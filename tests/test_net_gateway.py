"""Gateway behaviour over real sockets: rounds, errors, admission control."""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.ldp.registry import make_oracle
from repro.net import framing
from repro.cluster.coordinator import ClusterCoordinator
from repro.net.client import GatewayConnection
from repro.net.framing import OversizeFrameError
from repro.net.gateway import start_gateway
from repro.service.clients import iter_perturbed_batches
from repro.service.protocol import (
    RoundBroadcast,
    encode_broadcast,
    encode_report_batch,
    wire_bits,
)
from repro.service.server import AggregationServer, ServiceError
from repro.trie.candidate_domain import CandidateDomain


@pytest.fixture(scope="module")
def gateway():
    with start_gateway() as handle:
        yield handle


def _broadcast(domain, *, party="alpha", level=3, oracle="krr", epsilon=4.0):
    return RoundBroadcast(
        party=party,
        level=level,
        oracle_name=oracle,
        epsilon=epsilon,
        domain_size=domain.size,
        prefixes=tuple(domain.prefixes),
    )


def _stream_round(connection, domain, *, seed=5, n=300, oracle_name="krr"):
    """Open a round, stream three batches, finalize; returns the estimate."""
    oracle = make_oracle(oracle_name, 4.0)
    round_id, bits = connection.open_round(
        _broadcast(domain, oracle=oracle_name)
    )
    values = np.random.default_rng(seed).integers(0, domain.size, size=n)
    for batch in iter_perturbed_batches(
        oracle, values, domain.size, seed, batch_size=100, party="alpha", level=3
    ):
        connection.send_batch(round_id, encode_report_batch(batch))
    return round_id, bits, connection.finalize(round_id)


class TestRoundsOverTheWire:
    def test_welcome_announces_the_contract(self, gateway):
        with GatewayConnection(gateway.address) as connection:
            assert connection.credits >= 1
            assert connection.max_frame_bytes > 0
            assert connection.protocol >= 1

    def test_round_matches_local_server_bit_for_bit(self, gateway):
        domain = CandidateDomain.full_domain(3)
        with GatewayConnection(gateway.address) as connection:
            _, remote_bits, remote = _stream_round(connection, domain, seed=5)

        local_server = AggregationServer()
        oracle = make_oracle("krr", 4.0)
        round_id = local_server.open_round(
            party="alpha", level=3, oracle=oracle, domain=domain
        )
        values = np.random.default_rng(5).integers(0, domain.size, size=300)
        for batch in iter_perturbed_batches(
            oracle, values, domain.size, 5, batch_size=100, party="alpha", level=3
        ):
            local_server.ingest_batch(round_id, batch)
        local = local_server.finalize_round(round_id)

        np.testing.assert_array_equal(remote.support_counts, local.support_counts)
        assert remote.estimated_counts.tobytes() == local.estimated_counts.tobytes()
        assert remote.metadata == local.metadata
        assert remote_bits == local_server.broadcast_bits()

    def test_batch_latencies_are_recorded(self, gateway):
        domain = CandidateDomain.full_domain(3)
        with GatewayConnection(gateway.address) as connection:
            _stream_round(connection, domain)
            assert len(connection.latencies) == 3
            assert all(lat > 0 for lat in connection.latencies)

    def test_olh_round_decodes_on_the_gateway_engine(self, gateway):
        domain = CandidateDomain.full_domain(4)
        with GatewayConnection(gateway.address) as connection:
            _, _, remote = _stream_round(connection, domain, oracle_name="olh")
        assert remote.oracle_name == "olh"
        assert remote.n_users == 300

    def test_round_close_drains_the_gateway_transcript(self):
        """Clients keep their own transcript; the gateway's embedded
        server must not accumulate one for the life of the process."""
        domain = CandidateDomain.full_domain(3)
        with start_gateway() as handle:
            server = handle.gateway.server
            with GatewayConnection(handle.address) as connection:
                connection.open_round(_broadcast(domain))
                assert server.messages  # the open round is logged...
                for seed in range(4):
                    _stream_round(connection, domain, seed=seed)
                # ...and each round close drains the whole log, that entry too.
                assert server.messages == []
                assert server.upload_bits() > 0  # running totals survive

    def test_round_closed_by_another_connection_keeps_exact_metadata(self, gateway):
        """Process-backend workers close rounds their parent's connection
        opened: the export carries the round's broadcast size, so the
        estimate metadata is exact whichever connection closes it."""
        domain = CandidateDomain.full_domain(3)
        oracle = make_oracle("krr", 4.0)
        (batch,) = iter_perturbed_batches(
            oracle, np.arange(8), domain.size, 0, batch_size=8, party="alpha", level=3
        )
        payload = encode_report_batch(batch)
        with GatewayConnection(gateway.address) as opener:
            round_id, bits = opener.open_round(_broadcast(domain))
            opener.send_batch(round_id, payload)
            opener.drain()
            with GatewayConnection(gateway.address) as closer:
                estimate = closer.finalize(round_id)
        assert estimate.metadata == {
            "execution": "service",
            "n_batches": 1,
            "upload_bits": wire_bits(payload),
            "broadcast_bits": bits,
        }

    def test_stats_expose_accounting(self, gateway):
        with GatewayConnection(gateway.address) as connection:
            stats = connection.stats()
        assert stats["upload_bits"] > 0
        assert stats["broadcast_bits"] > 0
        assert stats["rounds_opened"] >= 1
        assert stats["credits_per_connection"] == connection.credits


class TestReadPath:
    def test_connections_receive_under_the_mmap_threshold(self, monkeypatch):
        """Each recv stays under glibc's initial 128 KiB mmap threshold."""
        from repro.net import gateway as gateway_module

        transports = []
        handle_connection = gateway_module.AggregationGateway._handle_connection

        async def spy(self, reader, writer):
            transports.append(writer.transport)
            await handle_connection(self, reader, writer)

        monkeypatch.setattr(
            gateway_module.AggregationGateway, "_handle_connection", spy
        )
        with start_gateway() as handle:
            # The welcome is sent after the bound is set.
            with GatewayConnection(handle.address):
                assert [t.max_size for t in transports] == [gateway_module.RECV_BYTES]
        assert gateway_module.RECV_BYTES < 128 * 1024


class TestStructuredErrors:
    def test_unknown_round_code_crosses_the_wire(self, gateway):
        with GatewayConnection(gateway.address) as connection:
            connection._send(
                framing.FRAME_ROUND_CONTROL,
                framing.encode_control({"op": "export_shard", "round_id": 999_999}),
            )
            with pytest.raises(ServiceError) as excinfo:
                connection._next_message()
            assert excinfo.value.code == "unknown_round"
            # Service-level failures leave the connection usable.
            domain = CandidateDomain.full_domain(3)
            _, _, estimate = _stream_round(connection, domain)
            assert estimate.n_users == 300

    def test_batch_for_wrong_party_maps_to_party_mismatch(self, gateway):
        domain = CandidateDomain.full_domain(3)
        oracle = make_oracle("krr", 4.0)
        with GatewayConnection(gateway.address) as connection:
            round_id, _ = connection.open_round(_broadcast(domain, party="alpha"))
            (batch,) = iter_perturbed_batches(
                oracle,
                np.zeros(4, dtype=np.int64),
                domain.size,
                0,
                batch_size=8,
                party="mallory",
                level=3,
            )
            connection.send_batch(round_id, encode_report_batch(batch))
            with pytest.raises(ServiceError) as excinfo:
                connection.drain()
            assert excinfo.value.code == "party_mismatch"
            # The rejection returned its credit: the caught error leaves a
            # consistent ledger and the connection fully usable.
            assert connection.outstanding == 0
            _, _, estimate = _stream_round(connection, domain)
            assert estimate.n_users == 300

    def test_round_closed_after_finalize(self, gateway):
        domain = CandidateDomain.full_domain(3)
        with GatewayConnection(gateway.address) as connection:
            round_id, _, _ = _stream_round(connection, domain)
            connection._send(
                framing.FRAME_ROUND_CONTROL,
                framing.encode_control({"op": "export_shard", "round_id": round_id}),
            )
            with pytest.raises(ServiceError) as excinfo:
                connection._next_message()
            assert excinfo.value.code == "round_closed"

    def test_undecodable_batch_maps_to_wire_format(self, gateway):
        domain = CandidateDomain.full_domain(3)
        with GatewayConnection(gateway.address) as connection:
            round_id, _ = connection.open_round(_broadcast(domain))
            connection.send_batch(round_id, b"GARBAGE BYTES")
            from repro.service.protocol import WireFormatError

            with pytest.raises(WireFormatError):
                connection.drain()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epsilon", -1.0),       # check_positive refuses
            ("epsilon", 0.0),
            ("domain_size", 0),      # LevelShard refuses
            ("oracle_name", "mystery"),  # no such oracle registered
        ],
    )
    def test_value_invalid_broadcasts_answer_with_an_error_frame(
        self, gateway, field, value
    ):
        """A decodable broadcast with refused values must not kill the
        handler: the failure crosses the wire as a typed error frame and
        the gateway keeps serving."""
        from repro.service.protocol import WireFormatError

        domain = CandidateDomain.full_domain(3)
        broadcast = _broadcast(domain)
        broadcast = type(broadcast)(**{**broadcast.__dict__, field: value})
        with GatewayConnection(gateway.address) as connection:
            with pytest.raises(WireFormatError):
                connection.open_round(broadcast)
            # Same connection still serves a valid round afterwards.
            _, _, estimate = _stream_round(connection, domain)
            assert estimate.n_users == 300

    def test_unknown_control_op_is_a_frame_error(self, gateway):
        with GatewayConnection(gateway.address) as connection:
            connection._send(
                framing.FRAME_ROUND_CONTROL,
                framing.encode_control({"op": "frobnicate"}),
            )
            with pytest.raises(framing.FrameError, match="frobnicate"):
                connection._next_message()

    def test_retired_finalize_op_and_estimate_kind_are_refused(self, gateway):
        """Rounds close by export only: the old gateway-side ``finalize``
        op is an unknown control op, and kind 5 an unknown frame kind."""
        with GatewayConnection(gateway.address) as connection:
            connection._send(
                framing.FRAME_ROUND_CONTROL,
                framing.encode_control({"op": "finalize", "round_id": 0}),
            )
            with pytest.raises(framing.FrameError, match="unknown control op"):
                connection._next_message()
        with GatewayConnection(gateway.address) as connection:
            connection._sock.sendall(struct.pack("<IB", 0, 5))
            with pytest.raises(framing.FrameError, match="unknown frame kind 5"):
                connection._next_message()


class TestAdmissionControl:
    def test_oversize_frame_rejected_and_connection_closed(self):
        with start_gateway(max_frame_bytes=512) as handle:
            with GatewayConnection(handle.address) as connection:
                assert connection.max_frame_bytes == 512
                # The client itself refuses before sending...
                with pytest.raises(OversizeFrameError, match="batch_size"):
                    connection._send(framing.FRAME_REPORT_BATCH, b"\x00" * 1024)
                # ...and a client that pushes the bytes anyway is rejected
                # by the gateway and hung up on.
                connection._sock.sendall(
                    framing.encode_frame(framing.FRAME_REPORT_BATCH, b"\x00" * 1024)
                )
                with pytest.raises(OversizeFrameError):
                    connection._next_message()
                # The gateway hung up: the next read hits EOF.
                with pytest.raises(ConnectionError):
                    connection._read_frame()

    def test_oversize_header_never_buffers_the_body(self):
        """A huge *declared* length is refused without reading the body."""
        with start_gateway(max_frame_bytes=512) as handle:
            host, port = handle.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.settimeout(10)
                fp = sock.makefile("rb")
                # Read the welcome frame first.
                length, kind = framing.parse_frame_header(fp.read(5))
                fp.read(length)
                # Declare a 1 GiB control frame, send only the header.
                sock.sendall(struct.pack("<IB", 1 << 30, framing.FRAME_ROUND_CONTROL))
                length, kind = framing.parse_frame_header(fp.read(5))
                body = fp.read(length)
                assert kind == framing.FRAME_ERROR
                error = framing.decode_error(body)
                assert isinstance(error, OversizeFrameError)

    def test_upload_bound_does_not_cap_gateway_responses(self):
        """``max_frame_bytes`` bounds what clients upload; a response (a
        metrics document scales with the gateway's series, not the
        batch) may exceed it and must still reach the client."""
        with start_gateway(max_frame_bytes=1024) as handle:
            # Level 3: the broadcast request (95 B), every batch and the
            # shard-state reply stay under the bound; the metrics document
            # exceeds it.
            domain = CandidateDomain.full_domain(3)
            with GatewayConnection(handle.address) as connection:
                _, _, estimate = _stream_round(connection, domain, n=120)
                document = connection.metrics()
        assert estimate.domain_size == domain.size
        assert len(framing.encode_metrics_frame(document)) > 1024
        assert document["stats"]["max_frame_bytes"] == 1024

    def test_client_respects_small_credit_budgets(self):
        with start_gateway(connection_credits=1) as handle:
            domain = CandidateDomain.full_domain(3)
            with GatewayConnection(handle.address) as connection:
                assert connection.credits == 1
                _, _, estimate = _stream_round(connection, domain, n=500)
                assert estimate.n_users == 500
                stats = connection.stats()
            assert stats["frames_rejected"] == 0

    def test_domain_size_is_bound_to_the_broadcast_prefixes(self, gateway):
        """A tiny frame cannot declare a huge domain: the O(domain_size)
        shard allocation is tied to the broadcast's actual size."""
        from repro.service.protocol import WireFormatError

        with GatewayConnection(gateway.address) as connection:
            giant = RoundBroadcast(
                party="greedy", level=1, oracle_name="krr", epsilon=4.0,
                domain_size=50_000_000, prefixes=("0",),
            )
            with pytest.raises(WireFormatError, match="domain_size"):
                connection.open_round(giant)
            # The honest relation (n prefixes, dummy optional) still opens.
            for size in (1, 2):
                honest = RoundBroadcast(
                    party="ok", level=1, oracle_name="krr", epsilon=4.0,
                    domain_size=size, prefixes=("0",),
                )
                round_id, _ = connection.open_round(honest)
                assert round_id >= 0

    def test_refused_send_leaves_no_phantom_outstanding_batch(self):
        with start_gateway(max_frame_bytes=512) as handle:
            domain = CandidateDomain.full_domain(3)
            with GatewayConnection(handle.address) as connection:
                round_id, _ = connection.open_round(_broadcast(domain))
                with pytest.raises(OversizeFrameError):
                    connection.send_batch(round_id, b"\x00" * 1024)
                assert connection.outstanding == 0
                connection.drain()  # returns immediately, nothing pending

    def test_stats_are_safe_under_concurrent_round_opens(self):
        """stats snapshots run on the gateway's event loop, between the
        round-opening mutations of other connections."""
        import threading

        domain = CandidateDomain.full_domain(3)
        with start_gateway() as handle:
            errors: list[BaseException] = []

            def open_rounds():
                try:
                    with GatewayConnection(handle.address) as connection:
                        for _ in range(40):
                            connection.open_round(_broadcast(domain))
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            def poll_stats():
                try:
                    with GatewayConnection(handle.address) as connection:
                        for _ in range(40):
                            connection.stats()
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=open_rounds),
                threading.Thread(target=open_rounds),
                threading.Thread(target=poll_stats),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            with GatewayConnection(handle.address) as connection:
                assert connection.stats()["rounds_opened"] == 80

    def test_remote_shutdown_can_be_disabled(self):
        with start_gateway(allow_shutdown=False) as handle:
            with GatewayConnection(handle.address) as connection:
                with pytest.raises(ServiceError) as excinfo:
                    connection.shutdown_gateway()
                assert excinfo.value.code == "admission_rejected"

    def test_remote_shutdown_stops_the_gateway(self):
        handle = start_gateway()
        with GatewayConnection(handle.address) as connection:
            connection.shutdown_gateway()
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        handle.close()  # idempotent after self-stop


class TestCoordinatorOverOneGateway:
    """The one networked server class, at a single ``HOST:PORT``."""

    def test_mirrors_local_accounting_exactly(self, gateway):
        domain = CandidateDomain.full_domain(3)
        oracle = make_oracle("krr", 4.0)
        values = np.random.default_rng(9).integers(0, domain.size, size=200)

        def drive(server):
            round_id = server.open_round(
                party="alpha", level=3, oracle=oracle, domain=domain
            )
            for batch in iter_perturbed_batches(
                oracle, values, domain.size, 9, batch_size=64, party="alpha", level=3
            ):
                server.ingest_batch(round_id, batch)
            estimate = server.finalize_round(round_id)
            return estimate, server.drain_messages()

        remote_server = ClusterCoordinator(gateway.address)
        remote_est, remote_msgs = drive(remote_server)
        remote_server.shutdown()
        local_server = AggregationServer()
        local_est, local_msgs = drive(local_server)

        assert remote_est.estimated_counts.tobytes() == local_est.estimated_counts.tobytes()
        assert remote_est.metadata == local_est.metadata
        assert [
            (m.direction, m.party, m.kind, m.payload_bits, m.level)
            for m in remote_msgs
        ] == [
            (m.direction, m.party, m.kind, m.payload_bits, m.level)
            for m in local_msgs
        ]
        assert remote_server.upload_bits() == local_server.upload_bits()
        assert remote_server.broadcast_bits() == local_server.broadcast_bits()

    def test_raw_payload_ingest_matches_server(self, gateway):
        domain = CandidateDomain.full_domain(3)
        oracle = make_oracle("krr", 4.0)
        server = ClusterCoordinator(gateway.address)
        round_id = server.open_round(
            party="alpha", level=3, oracle=oracle, domain=domain
        )
        (batch,) = iter_perturbed_batches(
            oracle, np.zeros(10, dtype=np.int64), domain.size, 1,
            batch_size=16, party="alpha", level=3,
        )
        payload = encode_report_batch(batch)
        assert server.ingest(round_id, payload) == 10
        assert server.upload_bits() == wire_bits(payload)
        estimate = server.finalize_round(round_id)
        assert estimate.n_users == 10
        server.shutdown()

    @pytest.mark.parametrize("level", [0, 1, 4, 14])
    def test_broadcast_bits_cross_check(self, gateway, level):
        """The gateway's accounting of the open equals the canonical bytes
        and the in-process server's ``broadcast_bits`` for the same round."""
        domain = CandidateDomain.full_domain(level, include_dummy=level > 0)
        broadcast = _broadcast(domain, party="check", level=level)
        with GatewayConnection(gateway.address) as connection:
            round_id, bits = connection.open_round(broadcast)
            connection.export_shard(round_id)
        assert bits == wire_bits(encode_broadcast(broadcast))
        server = AggregationServer()
        server.open_round(
            party="check", level=level, oracle=make_oracle("krr", 4.0), domain=domain
        )
        assert bits == server.broadcast_bits()
