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
    def _run(self, server):
        """One k-RR round of 300 users in batches of 100, via the runner."""
        domain = _domain(4)
        values = np.random.default_rng(0).integers(0, domain.size, size=300)
        runner = ServiceRoundRunner(server=server, party="alpha", batch_size=100)
        runner.run_round(
            make_oracle("krr", epsilon=2.0), values, domain, 3, mode="per_user"
        )
        return runner

    def test_exact_wire_bits(self):
        server = AggregationServer()
        runner = self._run(server)
        messages = runner.drain_messages()
        uploads = [
            m for m in messages if m.direction is MessageDirection.PARTY_TO_SERVER
        ]
        assert len(uploads) == 3
        assert all(m.kind == "report_batch" for m in uploads)
        assert server.upload_bits() == sum(m.payload_bits for m in uploads)
        (broadcast,) = [
            m for m in messages if m.direction is MessageDirection.SERVER_TO_PARTY
        ]
        assert broadcast.kind == "service_round_open"
        assert server.broadcast_bits() == broadcast.payload_bits > 0
        assert len(messages) == 4 and runner.drain_messages() == []

    def test_totals_survive_drain_and_shards_are_released(self):
        server = AggregationServer()
        runner = self._run(server)
        upload, broadcast = server.upload_bits(), server.broadcast_bits()
        assert upload > 0 and broadcast > 0
        runner.drain_messages()
        assert server.upload_bits() == upload
        assert server.broadcast_bits() == broadcast
        # Finalisation released the round, accumulator and bookkeeping.
        assert server.rounds == {}
        with pytest.raises(ServiceError) as excinfo:
            server.finalize_round(0)
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
        pooled = ClientPool.from_dataset(two_party_dataset)
        assert pooled.n_users == two_party_dataset.total_users
        alpha = ClientPool.from_dataset(two_party_dataset, party="alpha")
        assert alpha.name == "alpha"
        with pytest.raises(KeyError, match="gamma"):
            ClientPool.from_dataset(two_party_dataset, party="gamma")

    def test_bounded_batches_cover_all_users(self, two_party_dataset):
        pool = ClientPool.from_dataset(two_party_dataset)
        oracle = make_oracle("krr", epsilon=4.0)
        domain = _domain(4)
        batches = list(
            iter_perturbed_batches(
                oracle,
                domain.encode_items(pool.items, two_party_dataset.n_bits),
                domain.size,
                rng=0,
                batch_size=128,
                party=pool.name,
                level=domain.prefix_length,
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
        server = AggregationServer()
        round_id = server.open_round(
            party="stream", level=bits, oracle=oracle, domain=domain
        )
        n_batches = wire_bytes = 0
        for batch in iter_perturbed_batches(
            oracle, domain.encode_items(items, bits), domain.size, rng=1,
            batch_size=batch_size, party="stream", level=domain.prefix_length,
        ):
            reports = batch.reports
            parts = reports if isinstance(reports, tuple) else (reports,)
            # Every report form fits in batch × (domain + 16) bytes.
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


class TestDefensePolicy:
    """``MechanismConfig.defense`` reaches every service-mode server, and
    the modes with no local shard to defend refuse it up front."""

    @staticmethod
    def _config(dataset, **overrides):
        from repro.core.config import MechanismConfig

        base = dict(
            k=5, epsilon=4.0, n_bits=dataset.n_bits, granularity=5,
            simulation_mode="per_user", execution_mode="service",
            report_batch_size=64, defense="trimmed", defense_fraction=0.4,
        )
        base.update(overrides)
        return MechanismConfig(**base)

    def test_every_service_server_carries_the_policy(self, two_party_dataset):
        from repro.core.tap import TAPMechanism

        config = self._config(two_party_dataset)
        for party in two_party_dataset.parties:
            runner = TAPMechanism._make_round_runner(config, party.name)
            assert runner.server.defense == config.defense_policy()
        undefended = self._config(two_party_dataset, defense=None)
        assert TAPMechanism._make_round_runner(undefended, "alpha").server.defense is None

    def test_defended_service_run_differs_from_the_exact_merge(self, tiny_rdb):
        from repro.core.tap import TAPMechanism

        defended = TAPMechanism(self._config(tiny_rdb)).run(tiny_rdb, rng=42)
        exact = TAPMechanism(self._config(tiny_rdb, defense=None)).run(tiny_rdb, rng=42)
        assert defended.estimated_counts != exact.estimated_counts

    @pytest.mark.parametrize("mode", ["memory", "network"])
    def test_memory_and_network_runs_refuse_a_defense(self, two_party_dataset, mode):
        from repro.core.tap import TAPMechanism

        # The config itself is valid (the scenario tracker builds memory
        # configs with a defense); the mechanism run refuses it before
        # any round, so the network run never dials the (dead) gateway.
        gateway = {"gateway": "127.0.0.1:9"} if mode == "network" else {}
        config = self._config(two_party_dataset, execution_mode=mode, **gateway)
        with pytest.raises(ValueError, match="defense='trimmed'"):
            TAPMechanism(config).run(two_party_dataset, rng=0)

    @pytest.mark.parametrize("kind", ["trimmed", "norm_bound"])
    @pytest.mark.parametrize("mechanism", ["fedpem", "gtf", "tap", "taps"])
    def test_every_mechanism_runs_on_defended_servers(
        self, two_party_dataset, monkeypatch, mechanism, kind
    ):
        """The policy reaches the servers a real run streams through, for
        every mechanism and defense kind: none builds its own server."""
        from repro.core.base import FederatedMechanism
        from repro.experiments.runner import MECHANISM_REGISTRY

        built = []
        make_runner = FederatedMechanism._make_round_runner

        def recording(config, party_name):
            runner = make_runner(config, party_name)
            built.append(runner)
            return runner

        monkeypatch.setattr(FederatedMechanism, "_make_round_runner", staticmethod(recording))
        config = self._config(two_party_dataset, defense=kind)
        result = MECHANISM_REGISTRY[mechanism](config).run(two_party_dataset, rng=0)
        assert result.transcript.messages_of_kind("report_batch")
        assert len(built) == len(two_party_dataset.parties)
        assert all(runner.server.defense == config.defense_policy() for runner in built)
        assert {runner.server.defense.kind for runner in built} == {kind}

    @pytest.mark.parametrize("mode", ["memory", "network"])
    @pytest.mark.parametrize("mechanism", ["fedpem", "gtf", "taps"])
    def test_no_mechanism_runs_a_round_outside_service_mode_with_a_defense(
        self, two_party_dataset, monkeypatch, mechanism, mode
    ):
        from repro.core.base import FederatedMechanism
        from repro.experiments.runner import MECHANISM_REGISTRY

        def no_runner(config, party_name):
            raise AssertionError("a runner was built before the defense check")

        monkeypatch.setattr(FederatedMechanism, "_make_round_runner", staticmethod(no_runner))
        gateway = {"gateway": "127.0.0.1:9"} if mode == "network" else {}
        config = self._config(two_party_dataset, execution_mode=mode, **gateway)
        with pytest.raises(ValueError, match=f"{mode} mode has no shard to defend"):
            MECHANISM_REGISTRY[mechanism](config).run(two_party_dataset, rng=0)


class TestBatchingLeftThePool:
    """A pool holds users only; whoever streams a round slices it."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda ds: ClientPool(ds.parties[0].items, batch_size=64),
            lambda ds: ClientPool.from_party(ds.parties[0], batch_size=64),
            lambda ds: ClientPool.from_dataset(ds, batch_size=64),
            lambda ds: ClientPool.from_arrivals([ds.parties[0].items], batch_size=64),
        ],
        ids=["init", "from_party", "from_dataset", "from_arrivals"],
    )
    def test_pool_constructors_take_no_batch_size(self, two_party_dataset, build):
        with pytest.raises(TypeError, match="batch_size"):
            build(two_party_dataset)
        assert not hasattr(ClientPool.from_dataset(two_party_dataset), "batch_size")
        assert not hasattr(ClientPool, "iter_report_batches")

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_serve_dataset_refuses_a_nonpositive_batch_size(self, tiny_rdb, batch_size):
        from repro.service.harness import serve_dataset

        with pytest.raises(ValueError, match="batch_size"):
            serve_dataset(tiny_rdb, level=4, batch_size=batch_size, seed=0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_loadgen_refuses_a_nonpositive_batch_size(self, batch_size):
        from repro.net.loadgen import run_loadgen

        # Refused before any connection: the address is never dialled.
        with pytest.raises(ValueError, match="batch_size"):
            run_loadgen("127.0.0.1:9", dataset="rdb", scale="tiny", batch_size=batch_size)
