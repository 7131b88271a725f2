"""Tests for the aggregation server: round lifecycle, exact accounting, and
round finalisation matching the in-memory oracle computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federation.messages import MessageDirection
from repro.ldp.registry import available_oracles, make_oracle
from repro.service.clients import ClientPool, iter_perturbed_batches
from repro.service.protocol import encode_report_batch
from repro.service.server import (
    AggregationServer,
    ServiceError,
    ServiceRoundRunner,
    run_in_service_mode,
)
from repro.trie.candidate_domain import CandidateDomain


def _domain(bits: int = 5) -> CandidateDomain:
    return CandidateDomain.full_domain(bits, include_dummy=True)


def _stream_round(server, oracle, values, domain, seed, batch_size):
    round_id = server.open_round(
        party="alpha", level=domain.prefix_length, oracle=oracle, domain=domain
    )
    for batch in iter_perturbed_batches(
        oracle, values, domain.size, rng=np.random.default_rng(seed),
        batch_size=batch_size, party="alpha", level=domain.prefix_length,
    ):
        server.ingest(round_id, encode_report_batch(batch))
    return round_id


class TestRoundFinalization:
    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_streamed_round_equals_in_memory_run(self, oracle_name):
        """Single-batch streaming is bit-identical to the one-shot path."""
        oracle = make_oracle(oracle_name, epsilon=3.0)
        domain = _domain()
        values = np.random.default_rng(1).integers(0, domain.size, size=500)
        direct = oracle.run(values, domain.size, np.random.default_rng(9),
                            mode="per_user")
        server = AggregationServer()
        round_id = _stream_round(server, oracle, values, domain, 9, batch_size=500)
        streamed = server.finalize_round(round_id)
        assert np.array_equal(streamed.support_counts, direct.support_counts)
        assert np.array_equal(streamed.estimated_counts, direct.estimated_counts)
        assert np.array_equal(
            streamed.estimated_frequencies, direct.estimated_frequencies
        )
        assert streamed.n_users == direct.n_users

    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_batched_streaming_equals_batched_in_memory(self, oracle_name):
        """Equal batch splits consume the RNG identically on both paths."""
        oracle = make_oracle(oracle_name, epsilon=3.0)
        domain = _domain()
        values = np.random.default_rng(1).integers(0, domain.size, size=500)
        direct = oracle.run(values, domain.size, np.random.default_rng(9),
                            mode="per_user", batch_size=77)
        server = AggregationServer()
        round_id = _stream_round(server, oracle, values, domain, 9, batch_size=77)
        streamed = server.finalize_round(round_id)
        assert np.array_equal(streamed.support_counts, direct.support_counts)
        assert streamed.metadata["n_batches"] == -(-500 // 77)

    def test_empty_round(self):
        oracle = make_oracle("krr", epsilon=2.0)
        server = AggregationServer()
        round_id = server.open_round(
            party="a", level=3, oracle=oracle, domain=_domain(3)
        )
        result = server.finalize_round(round_id)
        assert result.n_users == 0
        assert not result.estimated_counts.any()


class TestAccounting:
    def test_exact_wire_bits(self):
        oracle = make_oracle("krr", epsilon=2.0)
        domain = _domain(4)
        values = np.random.default_rng(0).integers(0, domain.size, size=300)
        server = AggregationServer()
        _stream_round(server, oracle, values, domain, 3, batch_size=100)
        uploads = [
            m for m in server.messages
            if m.direction is MessageDirection.PARTY_TO_SERVER
        ]
        assert len(uploads) == 3
        assert all(m.kind == "report_batch" for m in uploads)
        assert server.upload_bits() == sum(m.payload_bits for m in uploads)
        assert server.broadcast_bits() > 0
        drained = server.drain_messages()
        assert len(drained) == 4 and server.messages == []

    def test_totals_survive_drain_and_shards_are_released(self):
        oracle = make_oracle("krr", epsilon=2.0)
        domain = _domain(4)
        values = np.random.default_rng(0).integers(0, domain.size, size=300)
        server = AggregationServer()
        round_id = _stream_round(server, oracle, values, domain, 3, batch_size=100)
        server.finalize_round(round_id)
        upload, broadcast = server.upload_bits(), server.broadcast_bits()
        assert upload > 0 and broadcast > 0
        server.drain_messages()
        assert server.upload_bits() == upload
        assert server.broadcast_bits() == broadcast
        # Finalisation released the round, accumulator and bookkeeping.
        assert round_id not in server.rounds
        with pytest.raises(ServiceError) as excinfo:
            server.finalize_round(round_id)
        assert excinfo.value.code == "round_closed"


class TestClosedRoundEviction:
    """A closed round leaves nothing behind, yet keeps its error code."""

    def test_export_releases_the_round(self):
        oracle = make_oracle("krr", epsilon=2.0)
        domain = _domain(3)
        server = AggregationServer()
        first = server.open_round(party="a", level=3, oracle=oracle, domain=domain)
        second = server.open_round(party="a", level=3, oracle=oracle, domain=domain)
        server.export_shard(first)
        assert list(server.rounds) == [second]
        server.finalize_round(second)
        assert server.rounds == {}
        assert server.rounds_opened == 2
        for round_id in (first, second):
            for close in (server.export_shard, server.finalize_round):
                with pytest.raises(ServiceError) as excinfo:
                    close(round_id)
                assert excinfo.value.code == "round_closed"

    @pytest.mark.parametrize("round_id", [-1, 2, 10**9])
    def test_never_issued_ids_are_unknown(self, round_id):
        oracle = make_oracle("krr", epsilon=2.0)
        server = AggregationServer()
        for _ in range(2):
            server.finalize_round(
                server.open_round(party="a", level=3, oracle=oracle, domain=_domain(3))
            )
        with pytest.raises(ServiceError) as excinfo:
            server.finalize_round(round_id)
        assert excinfo.value.code == "unknown_round"


class TestProtocolErrors:
    def _open(self):
        oracle = make_oracle("krr", epsilon=2.0)
        server = AggregationServer()
        domain = _domain(3)
        round_id = server.open_round(party="a", level=3, oracle=oracle, domain=domain)
        return server, oracle, domain, round_id

    def _payload(self, oracle, domain, **overrides):
        values = np.zeros(10, dtype=np.int64)
        (batch,) = iter_perturbed_batches(
            oracle, values, domain.size, rng=0, batch_size=10, party="a", level=3
        )
        if overrides:
            batch = type(batch)(**{**batch.__dict__, **overrides})
        return encode_report_batch(batch)

    def test_unknown_round(self):
        server, oracle, domain, _ = self._open()
        with pytest.raises(ServiceError, match="unknown round"):
            server.ingest(99, self._payload(oracle, domain))

    def test_finalised_round_rejects_ingest(self):
        server, oracle, domain, round_id = self._open()
        server.finalize_round(round_id)
        with pytest.raises(ServiceError, match="finalised"):
            server.ingest(round_id, self._payload(oracle, domain))

    def test_party_mismatch(self):
        server, oracle, domain, round_id = self._open()
        with pytest.raises(ServiceError, match="party"):
            server.ingest(round_id, self._payload(oracle, domain, party="b"))

    def test_level_mismatch(self):
        """A mis-addressed batch must not fold into the wrong round."""
        server, oracle, domain, round_id = self._open()
        with pytest.raises(ServiceError, match="level"):
            server.ingest(round_id, self._payload(oracle, domain, level=4))

    def test_oracle_mismatch(self):
        server, _, domain, round_id = self._open()
        other = make_oracle("oue", epsilon=2.0)
        with pytest.raises(ServiceError, match="oracle"):
            server.ingest(round_id, self._payload(other, domain))

    def test_epsilon_mismatch(self):
        server, _, domain, round_id = self._open()
        other = make_oracle("krr", epsilon=3.0)
        with pytest.raises(ServiceError, match="epsilon"):
            server.ingest(round_id, self._payload(other, domain))

    def test_domain_mismatch(self):
        server, oracle, _, round_id = self._open()
        with pytest.raises(ServiceError, match="domain size"):
            server.ingest(round_id, self._payload(oracle, _domain(4)))

    def test_aggregate_mode_refused(self):
        runner = ServiceRoundRunner(party="a", batch_size=10)
        with pytest.raises(ServiceError, match="per_user"):
            runner.run_round(
                make_oracle("krr", 2.0), np.zeros(5, dtype=np.int64),
                _domain(3), np.random.default_rng(0), mode="aggregate",
            )


class TestStructuredErrorCodes:
    """Every protocol failure carries a stable machine-readable code —
    what the network runtime ships in its error frames."""

    def _open(self):
        return TestProtocolErrors._open(TestProtocolErrors())

    def _code_of(self, fn) -> str:
        with pytest.raises(ServiceError) as excinfo:
            fn()
        return excinfo.value.code

    def test_codes_cover_every_raise_site(self):
        helper = TestProtocolErrors()
        server, oracle, domain, round_id = self._open()
        payload = helper._payload(oracle, domain)
        assert self._code_of(lambda: server.ingest(99, payload)) == "unknown_round"
        assert self._code_of(
            lambda: server.ingest(
                round_id, helper._payload(oracle, domain, party="b")
            )
        ) == "party_mismatch"
        assert self._code_of(
            lambda: server.ingest(
                round_id, helper._payload(oracle, domain, level=4)
            )
        ) == "level_mismatch"
        assert self._code_of(
            lambda: server.ingest(
                round_id, helper._payload(make_oracle("oue", 2.0), domain)
            )
        ) == "oracle_mismatch"
        assert self._code_of(
            lambda: server.ingest(
                round_id, helper._payload(make_oracle("krr", 3.0), domain)
            )
        ) == "epsilon_mismatch"
        assert self._code_of(
            lambda: server.ingest(round_id, helper._payload(oracle, _domain(4)))
        ) == "domain_mismatch"
        server.finalize_round(round_id)
        assert self._code_of(
            lambda: server.ingest(round_id, payload)
        ) == "round_closed"

    def test_default_code_and_validation(self):
        assert ServiceError("plain").code == "protocol"
        with pytest.raises(ValueError, match="unknown service error code"):
            ServiceError("x", code="not_a_code")

    def test_bad_mode_code(self):
        runner = ServiceRoundRunner(party="a", batch_size=10)
        with pytest.raises(ServiceError) as excinfo:
            runner.run_round(
                make_oracle("krr", 2.0), np.zeros(5, dtype=np.int64),
                _domain(3), np.random.default_rng(0), mode="aggregate",
            )
        assert excinfo.value.code == "bad_mode"


class TestClientPool:
    def test_from_dataset_and_party(self, two_party_dataset):
        pooled = ClientPool.from_dataset(two_party_dataset, batch_size=100)
        assert pooled.n_users == two_party_dataset.total_users
        alpha = ClientPool.from_dataset(two_party_dataset, party="alpha")
        assert alpha.name == "alpha"
        with pytest.raises(KeyError, match="gamma"):
            ClientPool.from_dataset(two_party_dataset, party="gamma")

    def test_bounded_batches_cover_all_users(self, two_party_dataset):
        pool = ClientPool.from_dataset(two_party_dataset, batch_size=128)
        oracle = make_oracle("krr", epsilon=4.0)
        domain = _domain(4)
        batches = list(
            pool.iter_report_batches(
                oracle, domain, two_party_dataset.n_bits, rng=0
            )
        )
        assert all(b.n_users <= 128 for b in batches)
        assert sum(b.n_users for b in batches) == pool.n_users

    def test_draw_users_for_load_generation(self, two_party_dataset):
        pool = ClientPool.from_dataset(two_party_dataset)
        users = pool.draw_users(1000, rng=3)
        assert users.shape == (1000,)
        assert users.min() >= 0 and users.max() < pool.n_users


class TestMemoryModel:
    """The service memory model: the report buffer is bounded by one batch,
    the server state by the domain, and the wire total is exact."""

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000, 4096])
    @pytest.mark.parametrize("oracle_name", available_oracles())
    def test_stream_memory_model(self, oracle_name, batch_size):
        n_users, bits = 1000, 6
        oracle = make_oracle(oracle_name, epsilon=4.0)
        domain = CandidateDomain.full_domain(bits, include_dummy=True)
        items = np.random.default_rng(0).integers(0, 1 << bits, size=n_users)
        pool = ClientPool(items, name="stream", batch_size=batch_size)
        server = AggregationServer()
        round_id = server.open_round(
            party="stream", level=bits, oracle=oracle, domain=domain
        )
        n_batches = wire_bytes = 0
        for batch in pool.iter_report_batches(oracle, domain, bits, rng=1):
            reports = batch.reports
            parts = reports if isinstance(reports, tuple) else (reports,)
            # A dense unary bit matrix, the widest form, is batch × domain.
            assert sum(part.nbytes for part in parts) <= min(
                batch_size, n_users
            ) * (domain.size + 16)
            payload = encode_report_batch(batch)
            wire_bytes += len(payload)
            n_batches += 1
            server.ingest(round_id, payload)
        result = server.finalize_round(round_id)

        assert result.n_users == n_users
        assert n_batches == -(-n_users // batch_size)
        # Server state is O(domain): one 64-bit counter per candidate.
        assert result.support_counts.dtype == np.int64
        assert result.support_counts.nbytes == domain.size * 8
        assert server.upload_bits() == 8 * wire_bytes


class TestRunInServiceMode:
    def test_converts_any_mechanism(self, two_party_dataset, tiny_config):
        from repro.core.tap import TAPMechanism

        mechanism = TAPMechanism(tiny_config)  # aggregate-mode config
        result = run_in_service_mode(mechanism, two_party_dataset, rng=0)
        assert result.transcript.messages_of_kind("report_batch")
        assert len(result.heavy_hitters) == tiny_config.k
