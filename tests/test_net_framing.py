"""Unit tests for the frame layer: round trips, bounds, error mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import framing
from repro.net.framing import (
    FRAME_ERROR,
    FRAME_KINDS,
    FRAME_REPORT_BATCH,
    FRAME_ROUND_CONTROL,
    FrameError,
    OversizeFrameError,
)
from repro.service.protocol import WireFormatError
from repro.service.server import (
    SERVICE_ERROR_CODES,
    ExportedShardState,
    ServiceError,
)


class TestFrameHeader:
    def test_encode_parse_round_trip(self):
        for kind in FRAME_KINDS:
            encoded = framing.encode_frame(kind, b"payload")
            length, parsed_kind = framing.parse_frame_header(
                encoded[: framing.FRAME_HEADER_SIZE]
            )
            assert (length, parsed_kind) == (7, kind)
            assert encoded[framing.FRAME_HEADER_SIZE :] == b"payload"

    def test_unknown_kind_rejected_on_encode_and_check(self):
        with pytest.raises(FrameError, match="kind"):
            framing.encode_frame(42, b"")
        with pytest.raises(FrameError, match="kind"):
            framing.check_frame_header(0, 42, max_frame_bytes=1024)

    def test_retired_estimate_kind_is_unknown(self):
        # Kind 5 carried a gateway-side estimate; rounds now close by
        # shard-state export only, and the number stays unassigned.
        assert 5 not in FRAME_KINDS
        assert framing.FRAME_SHARD_STATE == 6 and framing.FRAME_STATS == 7
        with pytest.raises(FrameError, match="kind"):
            framing.check_frame_header(0, 5, max_frame_bytes=1024)

    def test_oversize_rejected_from_header_alone(self):
        with pytest.raises(OversizeFrameError, match="exceeds"):
            framing.check_frame_header(2048, FRAME_ROUND_CONTROL, max_frame_bytes=1024)
        # At the bound is fine.
        framing.check_frame_header(1024, FRAME_ROUND_CONTROL, max_frame_bytes=1024)

    def test_short_header_rejected(self):
        with pytest.raises(FrameError, match="header"):
            framing.parse_frame_header(b"\x00\x00")


class TestBodyCodecs:
    def test_report_frame_round_trip(self):
        body = framing.encode_report_frame(7, 123, b"RPB1...")
        assert framing.decode_report_frame(body) == (7, 123, b"RPB1...")
        # The payload is a view of the frame body, never a copy.
        assert framing.decode_report_frame(body)[2].obj is body

    def test_report_frame_too_short(self):
        with pytest.raises(FrameError, match="at least"):
            framing.decode_report_frame(b"\x01\x02")

    def test_control_round_trip_is_canonical(self):
        message = {"op": "batch_ack", "seq": 3, "round_id": 1}
        body = framing.encode_control(message)
        assert body == framing.encode_control(dict(reversed(message.items())))
        assert framing.decode_control(body) == message

    def test_control_rejects_non_objects_and_garbage(self):
        with pytest.raises(FrameError, match="JSON object"):
            framing.decode_control(b"[1, 2]")
        with pytest.raises(FrameError, match="parse"):
            framing.decode_control(b"\xff\xfe not json")


class TestErrorMapping:
    @pytest.mark.parametrize("code", SERVICE_ERROR_CODES)
    def test_service_codes_round_trip(self, code):
        original = ServiceError("boom", code=code)
        body = framing.encode_error(original)
        mapped = framing.decode_error(body)
        assert isinstance(mapped, ServiceError)
        assert mapped.code == code
        assert "boom" in str(mapped)

    def test_no_ring_version_code(self):
        # A cluster's routing has no version to disagree on; the code is
        # gone rather than left unreachable.
        assert "ring_version_mismatch" not in SERVICE_ERROR_CODES
        assert "shard_mismatch" in SERVICE_ERROR_CODES

    def test_wire_format_and_frame_errors_round_trip(self):
        for exc, expected in (
            (WireFormatError("bad payload"), WireFormatError),
            (FrameError("bad frame"), FrameError),
            (OversizeFrameError("too big"), OversizeFrameError),
        ):
            mapped = framing.decode_error(framing.encode_error(exc))
            assert type(mapped) is expected
            assert str(exc) in str(mapped)

    def test_unexpected_exceptions_ship_as_internal(self):
        code, message = framing.exception_to_error(RuntimeError("surprise"))
        assert code == "internal"
        mapped = framing.error_to_exception(code, message)
        assert isinstance(mapped, ServiceError) and mapped.code == "internal"

    def test_unknown_code_still_maps_to_service_error(self):
        mapped = framing.error_to_exception("from_the_future", "msg")
        assert isinstance(mapped, ServiceError)
        assert "from_the_future" in str(mapped)

    def test_error_frame_carries_optional_seq(self):
        body = framing.encode_error(ServiceError("x"), seq=9)
        assert framing.decode_control(body)["seq"] == 9

    def test_error_frame_missing_keys(self):
        with pytest.raises(FrameError, match="key"):
            framing.decode_error(framing.encode_control({"oops": 1}))


def _shard_state(domain_size: int = 13) -> ExportedShardState:
    gen = np.random.default_rng(7)
    return ExportedShardState(
        party="alpha",
        level=4,
        oracle_name="olh",
        epsilon=2.5,
        domain_size=domain_size,
        n_users=321,
        n_batches=6,
        upload_bits=98_765,
        broadcast_bits=2_904,
        counts=gen.integers(0, 10_000, size=domain_size, dtype=np.int64),
    )


class TestShardStateCodec:
    def test_lossless_round_trip(self):
        original = _shard_state()
        decoded = framing.decode_shard_state(framing.encode_shard_state(original))
        assert decoded.counts.dtype == np.int64
        np.testing.assert_array_equal(decoded.counts, original.counts)
        for field_name in (
            "party", "level", "oracle_name", "epsilon",
            "domain_size", "n_users", "n_batches", "upload_bits",
            "broadcast_bits",
        ):
            assert getattr(decoded, field_name) == getattr(original, field_name)

    def test_shard_state_frame_round_trip(self):
        body = framing.encode_shard_state_frame(23, _shard_state())
        round_id, decoded = framing.decode_shard_state_frame(body)
        assert round_id == 23 and decoded.n_users == 321

    def test_frame_buffers_are_the_encoded_frame(self):
        state = _shard_state()
        head, counts = framing.shard_state_frame_buffers(23, state)
        expected = framing.encode_frame(
            framing.FRAME_SHARD_STATE, framing.encode_shard_state_frame(23, state)
        )
        assert head + bytes(counts) == expected
        # The counts travel as a byte view of the exported array, not a copy.
        assert counts.format == "B" and counts.nbytes == state.counts.nbytes
        assert counts.obj is state.counts

    def test_counts_shape_must_match_domain(self):
        state = _shard_state()
        lying = ExportedShardState(
            **{**state.__dict__, "counts": state.counts[:-1]}
        )
        with pytest.raises(FrameError, match="shape"):
            framing.encode_shard_state(lying)

    def test_truncations_raise_frame_errors(self):
        data = framing.encode_shard_state(_shard_state())
        for cut in (0, 2, 4, 7, 20, len(data) - 1):
            with pytest.raises(FrameError):
                framing.decode_shard_state(data[:cut])
        # Extra trailing bytes are as suspect as missing ones.
        with pytest.raises(FrameError, match="expected"):
            framing.decode_shard_state(data + b"\x00")

    def test_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            framing.decode_shard_state(b"NOPE" + b"\x00" * 32)

    def test_frame_body_missing_round_id(self):
        with pytest.raises(FrameError, match="round id"):
            framing.decode_shard_state_frame(b"\x01")
