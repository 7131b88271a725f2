"""Tests for the service wire codecs: lossless round trips, exact sizes."""

from __future__ import annotations

import json
import struct
import sys

import numpy as np
import pytest

from repro.cluster import coordinator
from repro.ldp.registry import available_oracles, make_oracle
from repro.net import client
from repro.net import gateway as gateway_module
from repro.net.client import GatewayConnection
from repro.net.gateway import start_gateway
from repro.service import protocol
from repro.service.clients import iter_perturbed_batches
from repro.service.protocol import (
    BroadcastHeader,
    ReportBatch,
    RoundBroadcast,
    WireFormatError,
    broadcast_wire_bits,
    decode_broadcast,
    decode_report_batch,
    encode_broadcast,
    encode_report_batch,
    split_broadcast,
    wire_bits,
)
from repro.service.server import AggregationServer
from repro.trie.candidate_domain import CandidateDomain


def _one_batch(oracle_name: str, n: int = 200, domain_size: int = 37) -> ReportBatch:
    oracle = make_oracle(oracle_name, epsilon=3.0)
    values = np.random.default_rng(5).integers(0, domain_size, size=n)
    (batch,) = iter_perturbed_batches(
        oracle, values, domain_size, rng=7, batch_size=n, party="alpha", level=4
    )
    return batch


def _reports_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b))


class TestReportBatchRoundTrip:
    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_lossless(self, oracle_name):
        batch = _one_batch(oracle_name)
        decoded = decode_report_batch(encode_report_batch(batch))
        assert decoded.party == batch.party
        assert decoded.level == batch.level
        assert decoded.oracle_name == batch.oracle_name
        assert decoded.epsilon == batch.epsilon
        assert decoded.domain_size == batch.domain_size
        assert decoded.value_domain == batch.value_domain
        assert decoded.n_users == batch.n_users
        assert _reports_equal(decoded.reports, batch.reports)

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_encoding_is_canonical(self, oracle_name):
        batch = _one_batch(oracle_name)
        assert encode_report_batch(batch) == encode_report_batch(batch)

    def test_empty_batch_round_trip(self):
        oracle = make_oracle("krr", epsilon=2.0)
        batch = ReportBatch(
            party="p", level=1, oracle_name="krr", epsilon=2.0,
            domain_size=9, value_domain=9, n_users=0,
            reports=np.zeros(0, dtype=np.int64),
        )
        decoded = decode_report_batch(encode_report_batch(batch))
        assert decoded.n_users == 0
        assert oracle.n_reports(decoded.reports) == 0


class TestPayloadSizes:
    def test_krr_uses_one_byte_per_small_domain_report(self):
        batch = _one_batch("krr", n=100, domain_size=200)
        header = encode_report_batch(
            ReportBatch(**{**batch.__dict__, "n_users": 0,
                           "reports": np.zeros(0, dtype=np.int64)})
        )
        payload_bytes = len(encode_report_batch(batch)) - len(header)
        assert payload_bytes == 100  # uint8 per report

    def test_unary_packs_to_ceil_d_over_8_bytes_per_user(self):
        batch = _one_batch("oue", n=50, domain_size=37)
        empty = ReportBatch(**{**batch.__dict__, "n_users": 0,
                               "reports": np.zeros((0, 37), dtype=bool)})
        payload_bytes = len(encode_report_batch(batch)) - len(
            encode_report_batch(empty)
        )
        assert payload_bytes == 50 * ((37 + 7) // 8)

    def test_olh_ships_seed_plus_small_bucket(self):
        batch = _one_batch("olh", n=64)
        empty = ReportBatch(**{**batch.__dict__, "n_users": 0,
                               "reports": (np.zeros(0, np.int64), np.zeros(0, np.int64))})
        payload_bytes = len(encode_report_batch(batch)) - len(
            encode_report_batch(empty)
        )
        assert payload_bytes == 64 * 9  # 8-byte seed + 1-byte bucket (d' < 256)

    def test_wire_bits_is_exact(self):
        payload = encode_report_batch(_one_batch("krr"))
        assert wire_bits(payload) == len(payload) * 8


def _domain_broadcast(
    domain: CandidateDomain, *, party="beta", oracle_name="krr", epsilon=4.0
) -> RoundBroadcast:
    return RoundBroadcast(
        party=party, level=domain.prefix_length, oracle_name=oracle_name,
        epsilon=epsilon, domain_size=domain.size, prefixes=tuple(domain.prefixes),
    )


def _header_bytes(**fields) -> bytes:
    """A canonical header from raw fields (which may be values no encoder
    would write), as the wire carries it."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()


def _raw_broadcast(packed: bytes = b"", **fields) -> bytes:
    """Hand-assembled ``RBC2`` bytes: magic, header length, header, bits."""
    head = _header_bytes(**fields)
    return b"RBC2" + struct.pack("<I", len(head)) + head + packed


_VALID_FIELDS = dict(
    party="p", level=2, oracle="krr", epsilon=4.0, domain_size=4, n=3, L=2
)


class TestBroadcastRoundTrip:
    def test_lossless(self):
        broadcast = RoundBroadcast(
            party="beta", level=3, oracle_name="krr", epsilon=4.0,
            domain_size=5, prefixes=("000", "010", "110", "111"),
        )
        assert decode_broadcast(encode_broadcast(broadcast)) == broadcast

    @pytest.mark.parametrize("length", [0, 1, 2, 5, 7, 14])
    def test_full_domains_round_trip(self, length):
        """L = 0 (the one empty prefix), small L, and a level-14 domain."""
        broadcast = _domain_broadcast(CandidateDomain.full_domain(length))
        payload = encode_broadcast(broadcast)
        assert payload == encode_broadcast(broadcast)  # canonical
        assert decode_broadcast(payload) == broadcast
        header, packed = split_broadcast(payload)
        assert isinstance(packed, memoryview)
        assert (header.n_prefixes, header.prefix_length) == (2**length, length)
        assert len(packed) == (2**length * length + 7) // 8

    def test_sparse_domain_with_dummy_round_trips(self):
        domain = CandidateDomain(["10110", "00001", "11111"], include_dummy=True)
        broadcast = _domain_broadcast(domain, oracle_name="olh", epsilon=1.5)
        assert decode_broadcast(encode_broadcast(broadcast)) == broadcast

    def test_level_14_broadcast_is_packed_bits(self):
        """16,384 prefixes of 14 bits: 28,672 bytes of bits plus the header,
        about a tenth of the JSON prefix list it replaces."""
        domain = CandidateDomain.full_domain(14)
        payload = encode_broadcast(_domain_broadcast(domain, party="bench"))
        header, packed = split_broadcast(payload)
        assert len(packed) == 16_384 * 14 // 8
        assert len(payload) < 29_000

    @pytest.mark.parametrize("length", [0, 1, 3, 9, 14])
    def test_wire_bits_follow_from_the_header(self, length):
        """A server accounts a broadcast from its header, never encoding it."""
        domain = CandidateDomain.full_domain(length, include_dummy=True)
        payload = encode_broadcast(_domain_broadcast(domain))
        header, _ = split_broadcast(payload)
        assert broadcast_wire_bits(header) == wire_bits(payload)

    def test_split_returns_the_header_and_the_packed_bits(self):
        payload = encode_broadcast(
            _domain_broadcast(CandidateDomain.full_domain(4))
        )
        header, packed = split_broadcast(payload)
        assert header == BroadcastHeader(
            party="beta", level=4, oracle_name="krr", epsilon=4.0,
            domain_size=16, n_prefixes=16, prefix_length=4,
        )
        assert bytes(packed) == np.packbits(
            [int(bit) for i in range(16) for bit in f"{i:04b}"]
        ).tobytes()


class TestBroadcastEncodeRefusals:
    @pytest.mark.parametrize(
        "prefixes",
        [
            ("0a",),          # not a bit
            ("02", "01"),
            ("01", "0 "),
            ("1,", "00"),     # the separator character inside a prefix
            ("é",),           # not ASCII
            ("0", 1),         # not a string
            (1,),
        ],
    )
    def test_non_binary_prefixes_are_refused(self, prefixes):
        with pytest.raises(WireFormatError):
            encode_broadcast(
                RoundBroadcast("p", 2, "krr", 1.0, len(prefixes), prefixes)
            )

    @pytest.mark.parametrize(
        "prefixes",
        [
            ("0", "00"),
            ("00", "0"),
            ("00", "0", "000"),  # same total length as three 2-bit prefixes
            ("000", "0", "00"),
            ("0", ""),
        ],
    )
    def test_mixed_lengths_are_refused(self, prefixes):
        with pytest.raises(WireFormatError, match="one length"):
            encode_broadcast(
                RoundBroadcast("p", 2, "krr", 1.0, len(prefixes), prefixes)
            )

    def test_more_prefixes_than_bit_patterns_are_refused(self):
        with pytest.raises(WireFormatError, match="prefixes"):
            encode_broadcast(RoundBroadcast("p", 0, "krr", 1.0, 2, ("", "")))
        with pytest.raises(WireFormatError, match="prefixes"):
            encode_broadcast(
                RoundBroadcast("p", 1, "krr", 1.0, 3, ("0", "1", "0"))
            )

    def test_no_prefixes_encodes_an_empty_bit_string(self):
        broadcast = RoundBroadcast("p", 0, "krr", 1.0, 1, ())
        payload = encode_broadcast(broadcast)
        assert split_broadcast(payload)[0].n_prefixes == 0
        assert decode_broadcast(payload) == broadcast


class TestBroadcastDecodeRefusals:
    def test_hand_assembled_bytes_match_the_encoder(self):
        """The test helper speaks the wire format the refusals below bend."""
        payload = _raw_broadcast(b"\x18", **_VALID_FIELDS)  # 00 01 10, 00 pad
        assert payload == encode_broadcast(
            RoundBroadcast("p", 2, "krr", 4.0, 4, ("00", "01", "10"))
        )

    @pytest.mark.parametrize("packed", [b"", b"\x18\x00", b"\x18\x00\x00"])
    def test_body_length_must_match_n_times_l(self, packed):
        with pytest.raises(WireFormatError, match="prefix bits"):
            split_broadcast(_raw_broadcast(packed, **_VALID_FIELDS))

    def test_header_count_lying_about_n_cannot_mis_decode(self):
        """Three 3-bit prefixes fill two bytes; a count that needs another
        number of bytes is refused."""
        three = encode_broadcast(
            RoundBroadcast("p", 3, "krr", 4.0, 4, ("000", "101", "111"))
        )
        packed = bytes(split_broadcast(three)[1])
        for n in (1, 2, 6, 8):
            fields = {**_VALID_FIELDS, "n": n, "L": 3, "level": 3}
            with pytest.raises(WireFormatError, match="prefix bits"):
                split_broadcast(_raw_broadcast(packed, **fields))

    def test_nonzero_pad_bits_are_refused(self):
        with pytest.raises(WireFormatError, match="pad"):
            split_broadcast(_raw_broadcast(b"\x19", **_VALID_FIELDS))

    @pytest.mark.parametrize(
        "n,length", [(2, 0), (10**8, 0), (3, 1), (5, 2), (2**20 + 1, 20)]
    )
    def test_more_prefixes_than_2_to_the_l_are_refused(self, n, length):
        """With L = 0 the bit string is empty for any n: the prefix count
        itself must be bounded, or a tiny frame declares a huge domain."""
        packed = bytes((n * length + 7) // 8)
        fields = {**_VALID_FIELDS, "n": n, "L": length, "domain_size": n}
        with pytest.raises(WireFormatError, match=r"at most 2\*\*"):
            split_broadcast(_raw_broadcast(packed, **fields))

    def test_huge_l_costs_no_huge_integer(self):
        fields = {**_VALID_FIELDS, "n": 2, "L": 10**18}
        with pytest.raises(WireFormatError, match="prefix bits"):
            split_broadcast(_raw_broadcast(b"", **fields))

    def test_legacy_json_broadcast_is_refused(self):
        legacy = b"RBC1" + _header_bytes(
            party="p", level=1, oracle="krr", epsilon=1.0,
            domain_size=2, prefixes=["0", "1"],
        )
        with pytest.raises(WireFormatError, match="magic"):
            split_broadcast(legacy)
        with pytest.raises(WireFormatError, match="magic"):
            decode_broadcast(legacy)

    def test_non_canonical_header_is_refused(self):
        payload = encode_broadcast(
            RoundBroadcast("p", 2, "krr", 4.0, 4, ("00", "01", "10"))
        )
        head_size = int.from_bytes(payload[4:8], "little")
        head = payload[8 : 8 + head_size].replace(b",", b", ")
        spaced = b"RBC2" + len(head).to_bytes(4, "little") + head + payload[8 + head_size :]
        with pytest.raises(WireFormatError, match="canonical"):
            split_broadcast(spaced)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            decode_report_batch(b"XXXXjunk")
        with pytest.raises(WireFormatError, match="magic"):
            decode_broadcast(b"XXXXjunk")

    def test_unknown_oracle_codec(self):
        batch = ReportBatch(
            party="p", level=1, oracle_name="mystery", epsilon=1.0,
            domain_size=4, value_domain=4, n_users=1,
            reports=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(WireFormatError, match="mystery"):
            encode_report_batch(batch)

    def test_truncated_payload(self):
        payload = encode_report_batch(_one_batch("krr"))
        with pytest.raises(WireFormatError, match="bytes"):
            decode_report_batch(payload[:-3])

    def test_truncated_header(self):
        with pytest.raises(WireFormatError, match="header"):
            decode_report_batch(b"RPB1\x05")

    def test_out_of_domain_values_rejected_up_front(self):
        from repro.ldp.registry import make_oracle

        oracle = make_oracle("oue", epsilon=2.0)
        with pytest.raises(ValueError, match="candidate indices"):
            list(
                iter_perturbed_batches(
                    oracle, np.array([7]), 4, rng=0, batch_size=8
                )
            )


# --------------------------------------------------------------------------- #
# Fuzz/property coverage — the safety floor for accepting bytes off a socket:
# any truncated or corrupted buffer must raise WireFormatError (or decode to
# a well-formed value), never hang, crash with another exception type, or
# silently mis-decode.
# --------------------------------------------------------------------------- #
def _random_batch(oracle_name: str, gen: np.random.Generator) -> ReportBatch:
    oracle = make_oracle(oracle_name, epsilon=float(gen.uniform(0.5, 6.0)))
    domain_size = int(gen.integers(2, 300))
    n = int(gen.integers(0, 64))
    values = gen.integers(0, domain_size, size=n)
    party = "".join(gen.choice(list("abcxyz-_0"), size=int(gen.integers(1, 12))))
    batches = list(
        iter_perturbed_batches(
            oracle, values, domain_size, int(gen.integers(0, 2**31)),
            batch_size=max(n, 1), party=party, level=int(gen.integers(0, 40)),
        )
    )
    if batches:
        return batches[0]
    return ReportBatch(
        party=party, level=0, oracle_name=oracle.name, epsilon=oracle.epsilon,
        domain_size=domain_size,
        value_domain=oracle.report_value_domain(domain_size),
        n_users=0, reports=oracle.perturb(values, domain_size, gen),
    )


class TestFuzzedRoundTrips:
    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_random_batches_round_trip_exactly(self, oracle_name):
        gen = np.random.default_rng(2025)
        for _ in range(25):
            batch = _random_batch(oracle_name, gen)
            encoded = encode_report_batch(batch)
            assert encoded == encode_report_batch(batch)  # canonical
            decoded = decode_report_batch(encoded)
            assert decoded.party == batch.party
            assert decoded.epsilon == batch.epsilon
            assert decoded.value_domain == batch.value_domain
            assert _reports_equal(decoded.reports, batch.reports)

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_every_truncation_raises_wire_format_error(self, oracle_name):
        gen = np.random.default_rng(7)
        payload = encode_report_batch(_random_batch(oracle_name, gen))
        for cut in range(len(payload)):
            with pytest.raises(WireFormatError):
                decode_report_batch(payload[:cut])

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_corrupted_batches_never_crash_or_mis_decode(self, oracle_name):
        gen = np.random.default_rng(11)
        payload = bytearray(encode_report_batch(_random_batch(oracle_name, gen)))
        for _ in range(300):
            corrupted = bytearray(payload)
            for _ in range(int(gen.integers(1, 4))):
                corrupted[int(gen.integers(0, len(corrupted)))] = int(
                    gen.integers(0, 256)
                )
            try:
                decoded = decode_report_batch(bytes(corrupted))
            except WireFormatError:
                continue  # the contract: this is the only acceptable failure
            # A flip in the report payload (not the header) can still be a
            # valid batch — but then it must be fully well-formed.
            assert decoded.n_users >= 0
            assert decoded.oracle_name.lower() in available_oracles()

    @pytest.mark.parametrize("length", [0, 3, 9])
    def test_truncated_broadcasts_raise_wire_format_error(self, length):
        payload = encode_broadcast(
            _domain_broadcast(CandidateDomain.full_domain(length, include_dummy=True))
        )
        for cut in range(len(payload)):
            with pytest.raises(WireFormatError):
                decode_broadcast(payload[:cut])
        with pytest.raises(WireFormatError):
            decode_broadcast(payload + b"\x00")

    @pytest.mark.parametrize(
        "fields",
        [
            {k: v for k, v in _VALID_FIELDS.items() if k != "L"},  # missing key
            {k: v for k, v in _VALID_FIELDS.items() if k != "party"},
            {**_VALID_FIELDS, "party": 3},           # party not a str
            {**_VALID_FIELDS, "oracle": None},       # oracle not a str
            {**_VALID_FIELDS, "level": "2"},         # level not an int
            {**_VALID_FIELDS, "epsilon": 4},         # epsilon not a float
            {**_VALID_FIELDS, "epsilon": "4.0"},
            {**_VALID_FIELDS, "n": True},            # a bool is no count
            {**_VALID_FIELDS, "n": -1},
            {**_VALID_FIELDS, "L": -2},
            {**_VALID_FIELDS, "L": 2.0},
            {**_VALID_FIELDS, "domain_size": -4},
            {**_VALID_FIELDS, "prefixes": ["00"]},   # an unknown key
        ],
    )
    def test_malformed_broadcast_headers_raise_wire_format_error(self, fields):
        with pytest.raises(WireFormatError):
            split_broadcast(_raw_broadcast(b"\x18", **fields))

    @pytest.mark.parametrize(
        "head",
        [b"5", b"[1, 2]", b"{}", b"{", b"\xff\xfe", b"", b"[" * 100_000],
    )
    def test_unparsable_broadcast_headers_raise_wire_format_error(self, head):
        payload = b"RBC2" + len(head).to_bytes(4, "little") + head
        with pytest.raises(WireFormatError):
            split_broadcast(payload)

    def test_header_length_overrunning_the_buffer_is_refused(self):
        with pytest.raises(WireFormatError, match="overruns"):
            split_broadcast(b"RBC2" + (10**6).to_bytes(4, "little") + b"{}")

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_corrupted_broadcasts_never_crash(self, length):
        """Byte and bit flips anywhere: a WireFormatError, or a broadcast
        that is fully well-formed (a flip in the prefix bits is one)."""
        gen = np.random.default_rng(13 + length)
        broadcast = _domain_broadcast(
            CandidateDomain.full_domain(length, include_dummy=True),
            party="gamma", oracle_name="olh", epsilon=2.5,
        )
        payload = bytearray(encode_broadcast(broadcast))
        for trial in range(400):
            corrupted = bytearray(payload)
            index = int(gen.integers(0, len(corrupted)))
            if trial % 2:
                corrupted[index] ^= 1 << int(gen.integers(0, 8))
            else:
                corrupted[index] = int(gen.integers(0, 256))
            try:
                decoded = decode_broadcast(bytes(corrupted))
            except WireFormatError:
                continue
            assert isinstance(decoded.party, str)
            assert isinstance(decoded.oracle_name, str)
            n = len(decoded.prefixes)
            assert n <= 2 ** len(decoded.prefixes[0]) if n else True
            assert all(len(p) == len(decoded.prefixes[0]) for p in decoded.prefixes)
            assert all(set(p) <= {"0", "1"} for p in decoded.prefixes)
            assert encode_broadcast(decoded) == bytes(corrupted)

    def test_header_lying_about_n_users_cannot_mis_decode(self):
        """A tampered user count must length-mismatch, never mis-shape."""
        batch = _one_batch("krr", n=10, domain_size=20)
        payload = bytearray(encode_report_batch(batch))
        # n_users is the fourth u32 of the fixed header tail, right before
        # the f64 epsilon and the payload.
        offset = len(payload) - batch.n_users - 8 - 4
        payload[offset : offset + 4] = (batch.n_users * 2).to_bytes(4, "little")
        with pytest.raises(WireFormatError, match="bytes"):
            decode_report_batch(bytes(payload))


# --------------------------------------------------------------------------- #
# The broadcast through live gateways: opaque prefix bits, one encoding per
# logical round, and a frame size that bounds the domain it may declare.
# --------------------------------------------------------------------------- #
def _forbid(monkeypatch, name: str) -> None:
    """Make every ``repro`` module's binding of codec function ``name`` raise."""
    original = getattr(protocol, name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, forbidden)


class TestBroadcastAccounting:
    def test_server_open_round_never_encodes_the_broadcast(self, monkeypatch):
        """The server counts a broadcast's bits from its header: a level-14
        round opens without the 16k-prefix encode."""
        domain = CandidateDomain.full_domain(14, include_dummy=True)
        oracle = make_oracle("krr", 8.0)
        expected = wire_bits(
            encode_broadcast(_domain_broadcast(domain, party="p", epsilon=8.0))
        )
        _forbid(monkeypatch, "encode_broadcast")
        server = AggregationServer()
        server.open_round(party="p", level=14, oracle=oracle, domain=domain)
        assert server.broadcast_bits() == expected
        (message,) = server.messages
        assert message.payload_bits == expected

    def test_gateway_opens_a_round_without_encoding_or_parsing(self, monkeypatch):
        """No prefix string is built: neither codec direction runs."""
        domain = CandidateDomain.full_domain(6, include_dummy=True)
        broadcast = _domain_broadcast(domain)
        payload = encode_broadcast(broadcast)
        _forbid(monkeypatch, "encode_broadcast")
        _forbid(monkeypatch, "decode_broadcast")
        with start_gateway() as handle:
            with GatewayConnection(handle.address) as connection:
                _, bits = connection.open_round(broadcast, payload=payload)
        assert bits == wire_bits(payload)


class TestBroadcastThroughGateways:
    def test_shards_receive_one_encoding_byte_for_byte(self, monkeypatch):
        """A 2-shard cluster encodes the broadcast once; both gateways get
        those exact bytes, and the bits counted are theirs."""
        encodes: list[RoundBroadcast] = []
        received: list[bytes] = []
        real_encode, real_split = protocol.encode_broadcast, protocol.split_broadcast

        def counting_encode(broadcast):
            encodes.append(broadcast)
            return real_encode(broadcast)

        def recording_split(data):
            received.append(bytes(data))
            return real_split(data)

        monkeypatch.setattr(coordinator, "encode_broadcast", counting_encode)
        monkeypatch.setattr(client, "encode_broadcast", counting_encode)
        monkeypatch.setattr(gateway_module, "split_broadcast", recording_split)

        domain = CandidateDomain.full_domain(9, include_dummy=True)
        oracle = make_oracle("krr", 4.0)
        broadcast = _domain_broadcast(domain, party="alpha")
        with start_gateway() as first, start_gateway() as second:
            with coordinator.ClusterConnection(
                f"{first.address},{second.address}"
            ) as connection:
                round_id, bits = connection.open_round(broadcast)
                (batch,) = iter_perturbed_batches(
                    oracle, np.zeros(20, dtype=np.int64), domain.size, 0,
                    batch_size=32, party="alpha", level=9,
                )
                connection.send_batch(round_id, encode_report_batch(batch))
                estimate = connection.finalize(round_id)
                stats = connection.stats()
        assert encodes == [broadcast]
        assert len(received) == 2
        assert received[0] == received[1] == real_encode(broadcast)
        assert bits == wire_bits(received[0])
        local = AggregationServer()
        local.open_round(party="alpha", level=9, oracle=oracle, domain=domain)
        assert bits == local.broadcast_bits() == estimate.metadata["broadcast_bits"]
        assert [shard["rounds_opened"] for shard in stats["shards"]] == [1, 1]
        assert [shard["open_rounds"] for shard in stats["shards"]] == [0, 0]

    @pytest.mark.parametrize(
        "fields,match",
        [
            # L = 0 carries no bits at all, so the count itself is bounded.
            ({"n": 10**8, "L": 0, "domain_size": 10**8}, r"at most 2\*\*0"),
            ({"n": 2, "L": 0, "domain_size": 2}, r"at most 2\*\*0"),
            # One prefix may not announce a 50M-slot domain.
            ({"n": 1, "L": 1, "domain_size": 50_000_000}, "domain_size"),
        ],
    )
    def test_tiny_frame_cannot_declare_a_huge_domain(self, fields, match):
        """Refused with an error frame before any O(domain) allocation;
        the connection keeps serving."""
        header = {**_VALID_FIELDS, "level": fields["L"], **fields}
        packed = bytes((header["n"] * header["L"] + 7) // 8)
        frame = _raw_broadcast(packed, **header)
        assert len(frame) < 200
        domain = CandidateDomain.full_domain(2)
        with start_gateway() as handle:
            with GatewayConnection(handle.address) as connection:
                with pytest.raises(WireFormatError, match=match):
                    connection.open_round(
                        _domain_broadcast(domain), payload=frame
                    )
                assert connection.stats()["rounds_opened"] == 0
                round_id, bits = connection.open_round(_domain_broadcast(domain))
                assert bits == wire_bits(encode_broadcast(_domain_broadcast(domain)))
                assert connection.stats()["open_rounds"] == 1
