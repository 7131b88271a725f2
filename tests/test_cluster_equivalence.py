"""The cluster invariant (ISSUE 7's acceptance criterion):

For a fixed seed, discovery over a live **N-shard localhost cluster** is
bit-identical — per-round estimates, per-message transcript, exact
wire-bit totals — to a single gateway and to in-memory service mode, for
TAP (k-RR), an OLH-decoding mechanism and the FedPEM and GTF baselines,
including a scenario-replay loadgen workload.  Shard fan-out is
transport, never semantics.

Routing: a connection's k-th batch goes to shard k mod N, so batches
split evenly over the shards, and a round merges bit-identical to one
in-process server however they split.

Failure taxonomy coverage: a clean shard shutdown mid-run surfaces as a
structured ``shard_unavailable`` error (no hang, no crash), and a
disagreeing shard export as ``shard_mismatch``.
"""

from __future__ import annotations

import gc
from contextlib import ExitStack

import numpy as np
import pytest

from repro.baselines.fedpem import FedPEMMechanism
from repro.baselines.gtf import GTFMechanism
from repro.cluster.coordinator import (
    ClusterConnection,
    ClusterCoordinator,
    parse_cluster_addresses,
)
from repro.core.config import MechanismConfig
from repro.core.tap import TAPMechanism
from repro.core.taps import TAPSMechanism
from repro.ldp.registry import make_oracle
from repro.net import GatewayConnection, run_over_network, start_gateway
from repro.net.framing import OversizeFrameError
from repro.service.clients import iter_perturbed_batches
from repro.service.protocol import RoundBroadcast, encode_report_batch
from repro.service.server import AggregationServer, ServiceError, run_in_service_mode
from repro.trie.candidate_domain import CandidateDomain


@pytest.fixture(scope="module")
def shard_pool():
    """Three live gateways; tests slice 2- and 3-shard clusters off them."""
    handles = [start_gateway() for _ in range(3)]
    yield handles
    for handle in handles:
        handle.close()


def _cluster_address(shard_pool, n_shards: int) -> str:
    return ",".join(handle.address for handle in shard_pool[:n_shards])


def _config(dataset, **overrides) -> MechanismConfig:
    base = dict(
        k=5,
        epsilon=4.0,
        n_bits=dataset.n_bits,
        granularity=5,
        simulation_mode="per_user",
        report_batch_size=64,
    )
    base.update(overrides)
    return MechanismConfig(**base)


def _assert_bit_identical(service, network):
    assert network.heavy_hitters == service.heavy_hitters
    assert network.estimated_counts == service.estimated_counts
    assert set(network.party_records) == set(service.party_records)
    for name, svc_record in service.party_records.items():
        net_record = network.party_records[name]
        assert net_record.local_heavy_hitters == svc_record.local_heavy_hitters
        assert net_record.levels == svc_record.levels
    assert network.accountant.blocks == service.accountant.blocks
    assert [
        (m.direction, m.party, m.kind, m.payload_bits, m.level)
        for m in network.transcript.messages
    ] == [
        (m.direction, m.party, m.kind, m.payload_bits, m.level)
        for m in service.transcript.messages
    ]
    assert network.transcript.bits_by_kind() == service.transcript.bits_by_kind()


#: TAP over k-RR plus an OLH-decoding mechanism: each shard decodes the
#: OLH batches routed to it over the full domain, and the merge must
#: still equal one server's decode.  The FedPEM (OUE) and GTF (k-RR)
#: baselines cover their own party loops.
CASES = [
    (TAPMechanism, "krr"),
    (TAPSMechanism, "olh"),
    (FedPEMMechanism, "oue"),
    (GTFMechanism, "krr"),
]


@pytest.mark.parametrize("n_shards", [2, 3])
@pytest.mark.parametrize("mechanism_cls,oracle", CASES)
class TestClusterBitIdentical:
    def test_discovery_over_live_cluster(
        self, mechanism_cls, oracle, n_shards, shard_pool, two_party_dataset
    ):
        config = _config(two_party_dataset, oracle=oracle)
        mechanism = mechanism_cls(config)
        service = run_in_service_mode(mechanism, two_party_dataset, rng=123)
        cluster = run_over_network(
            mechanism,
            two_party_dataset,
            _cluster_address(shard_pool, n_shards),
            rng=123,
        )
        _assert_bit_identical(service, cluster)


class TestClusterVsSingleGateway:
    def test_cluster_matches_single_gateway_run(self, shard_pool, two_party_dataset):
        config = _config(two_party_dataset)
        single = run_over_network(
            TAPMechanism(config), two_party_dataset, shard_pool[0].address, rng=321
        )
        cluster = run_over_network(
            TAPMechanism(config),
            two_party_dataset,
            [h.address for h in shard_pool],
            rng=321,
        )
        _assert_bit_identical(single, cluster)

    def test_scenario_replay_workload_is_identical(self, shard_pool):
        """One scenario-replay loadgen workload: same seed, same scenario,
        driven once at a single gateway and once at a 2-shard cluster —
        every deterministic measurement must agree."""
        from repro.net.loadgen import run_loadgen
        from repro.scenarios.spec import ScenarioSpec

        scenario = ScenarioSpec.from_dict(
            {
                "name": "cluster-replay",
                "base": {"kind": "zipf", "n_items": 64, "n_bits": 8,
                         "exponent": 2.0, "seed": 5},
                "n_steps": 4,
                "batch_size": 200,
                "k": 4,
                "window_batches": 2,
                "stride": 2,
                "effects": [{"kind": "drift", "mode": "gradual", "start": 1,
                             "duration": 2}],
            }
        )
        kwargs = dict(
            scenario=scenario, connections=1, rounds=2, oracle="krr",
            epsilon=4.0, level=5, batch_size=128, backend="serial", seed=9,
            include_gateway_stats=False,
        )
        single = run_loadgen(shard_pool[0].address, **kwargs)
        cluster = run_loadgen(_cluster_address(shard_pool, 2), **kwargs)
        assert cluster.shards == 2 and single.shards == 1
        for field_name in ("n_reports", "n_batches", "upload_bits", "broadcast_bits"):
            assert getattr(cluster, field_name) == getattr(single, field_name)
        assert [e["top_prefixes"] for e in cluster.per_connection] == [
            e["top_prefixes"] for e in single.per_connection
        ]

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_dataset_stream_does_not_depend_on_shard_count(
        self, n_shards, backend, shard_pool
    ):
        """A sampled dataset stream over two concurrent connections: routing
        is transport, so totals and wire bytes cannot depend on the shard
        count, and every connection streams its full sample each round."""
        from repro.net.loadgen import run_loadgen

        kwargs = dict(
            dataset="rdb", scale="tiny", connections=2, rounds=2,
            users_per_round=300, level=5, batch_size=128, backend=backend,
            max_workers=2, seed=0, include_gateway_stats=False,
        )
        single = run_loadgen(shard_pool[0].address, **kwargs)
        cluster = run_loadgen(_cluster_address(shard_pool, n_shards), **kwargs)
        assert cluster.shards == n_shards and single.shards == 1
        for field_name in ("n_reports", "n_batches", "upload_bits", "broadcast_bits"):
            assert getattr(cluster, field_name) == getattr(single, field_name)
        assert [e["top_prefixes"] for e in cluster.per_connection] == [
            e["top_prefixes"] for e in single.per_connection
        ]
        assert cluster.n_reports == 2 * 2 * 300
        latency = cluster.latency_ms
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]


def _open_test_round(connection, *, level: int = 4, party: str = "alpha"):
    domain = CandidateDomain.full_domain(level)
    round_id, _ = connection.open_round(
        RoundBroadcast(
            party=party,
            level=level,
            oracle_name="krr",
            epsilon=4.0,
            domain_size=domain.size,
            prefixes=tuple(domain.prefixes),
        )
    )
    return round_id, domain


def _one_payload(domain, *, party: str = "alpha", level: int = 4) -> bytes:
    from repro.service.protocol import ReportBatch

    oracle = make_oracle("krr", 4.0)
    gen = np.random.default_rng(0)
    values = gen.integers(0, domain.size, size=32)
    reports = oracle.perturb(values, domain.size, gen)
    return encode_report_batch(
        ReportBatch(
            party=party, level=level, oracle_name=oracle.name, epsilon=4.0,
            domain_size=domain.size,
            value_domain=oracle.report_value_domain(domain.size),
            n_users=len(values), reports=reports,
        )
    )


def _routed_shard_counts(connection) -> list[int]:
    counters = connection.telemetry.snapshot()["counters"]
    return [
        counters[f"cluster_batches_routed_total{{shard={shard}}}"]
        for shard in range(connection.n_shards)
    ]


class TestRoundRobinRouting:
    """Routing on fresh gateways, so each gateway's ingest counter reads
    this test's batches alone."""

    N_BATCHES = 7

    def _payloads(self) -> list[bytes]:
        oracle = make_oracle("krr", 4.0)
        domain = CandidateDomain.full_domain(4)
        values = np.random.default_rng(5).integers(
            0, domain.size, size=self.N_BATCHES * 32
        )
        return [
            encode_report_batch(batch)
            for batch in iter_perturbed_batches(
                oracle, values, domain.size, rng=6, batch_size=32,
                party="alpha", level=domain.prefix_length,
            )
        ]

    def _stream(self, address: str, payloads: list[bytes]):
        """One round of ``payloads``: the shard each batch was routed to,
        every shard's ingested-batch total and the merged result."""
        with ClusterConnection(address, timeout=5.0) as connection:
            round_id, _ = _open_test_round(connection)
            routes = []
            for payload in payloads:
                before = _routed_shard_counts(connection)
                connection.send_batch(round_id, payload)
                after = _routed_shard_counts(connection)
                (shard,) = [s for s, (b, a) in enumerate(zip(before, after)) if a != b]
                routes.append(shard)
            result = connection.finalize(round_id)
            ingested = [
                shard["metrics"]["counters"]["gateway_batches_ingested_total"]
                for shard in connection.metrics()["shards"]
            ]
        return routes, ingested, result

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_batch_k_lands_on_shard_k_mod_n(self, n_shards):
        payloads = self._payloads()
        assert len(payloads) == self.N_BATCHES
        with ExitStack() as stack:
            handles = [stack.enter_context(start_gateway()) for _ in range(n_shards)]
            address = ",".join(handle.address for handle in handles)
            routes, ingested, result = self._stream(address, payloads)
            assert routes == [k % n_shards for k in range(self.N_BATCHES)]
            assert ingested == [routes.count(shard) for shard in range(n_shards)]
            assert max(ingested) - min(ingested) <= 1
            # Same sends, same routes: routing is a function of the
            # connection's send sequence alone.
            replay_routes, _, replay = self._stream(address, payloads)
            assert replay_routes == routes

        oracle = make_oracle("krr", 4.0)
        domain = CandidateDomain.full_domain(4)
        server = AggregationServer()
        local_id = server.open_round(party="alpha", level=4, oracle=oracle, domain=domain)
        for payload in payloads:
            server.ingest(local_id, payload)
        reference = server.finalize_round(local_id)
        for merged in (result, replay):
            assert merged.n_users == reference.n_users
            for name in ("support_counts", "estimated_counts", "estimated_frequencies"):
                got, expected = getattr(merged, name), getattr(reference, name)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("n_batches", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_every_batch_count_splits_within_one(self, shard_pool, n_shards, n_batches):
        """Whatever the remainder of ``n_batches / n_shards``, the first
        shards take one batch more and the round still merges every batch."""
        payloads = self._payloads()[:n_batches]
        with ClusterConnection(_cluster_address(shard_pool, n_shards), timeout=5.0) as connection:
            round_id, _ = _open_test_round(connection)
            seqs = [connection.send_batch(round_id, payload) for payload in payloads]
            routed = _routed_shard_counts(connection)
            result = connection.finalize(round_id)
        assert seqs == list(range(n_batches))
        assert routed == [len(range(shard, n_batches, n_shards)) for shard in range(n_shards)]
        assert max(routed) - min(routed) <= 1
        assert result.n_users == 32 * n_batches

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_turns_carry_across_rounds(self, shard_pool, n_shards):
        """The turn belongs to the connection, not the round: a new round
        picks up at the shard after the previous round's last batch, while
        each round's ``seq`` restarts at 0."""
        payloads = self._payloads()
        with ClusterConnection(_cluster_address(shard_pool, n_shards), timeout=5.0) as connection:
            first, _ = _open_test_round(connection)
            for payload in payloads[:n_shards + 1]:
                connection.send_batch(first, payload)
            connection.finalize(first)
            after_first = _routed_shard_counts(connection)
            second, _ = _open_test_round(connection)
            assert connection.send_batch(second, payloads[0]) == 0
            after_second = _routed_shard_counts(connection)
            connection.finalize(second)
        assert after_first == [2] + [1] * (n_shards - 1)
        # Batch n_shards + 1 of this connection: shard 1, not shard 0.
        assert [b - a for a, b in zip(after_first, after_second)] == [
            int(shard == 1) for shard in range(n_shards)
        ]


class TestFailureTaxonomy:
    def test_clean_shard_shutdown_surfaces_shard_unavailable(self):
        """A shard stopping mid-benchmark must surface as a structured
        ``shard_unavailable`` error — bounded by socket timeouts, so no
        hang — and must not crash the coordinator."""
        survivor = start_gateway()
        victim = start_gateway()
        try:
            with ClusterConnection(
                f"{survivor.address},{victim.address}", timeout=5.0
            ) as connection:
                round_id, domain = _open_test_round(connection)
                payload = _one_payload(domain)
                for _ in range(4):
                    connection.send_batch(round_id, payload)
                victim.close()  # clean shutdown, mid-round
                with pytest.raises(ServiceError) as err:
                    # Keep streaming into the dead shard until the loss
                    # surfaces; the barrier flushes whatever the sends miss.
                    for _ in range(64):
                        connection.send_batch(round_id, payload)
                    connection.finalize(round_id)
                assert err.value.code == "shard_unavailable"
        finally:
            survivor.close()
            victim.close()

    def test_shutdown_cluster_tolerates_dead_shards(self):
        first = start_gateway()
        second = start_gateway()
        connection = ClusterConnection(f"{first.address},{second.address}", timeout=5.0)
        try:
            second.close()
            # One shard already gone: graceful shutdown still completes.
            connection.shutdown_cluster()
        finally:
            connection.close()
            first.close()
            second.close()

    def test_disagreeing_shard_export_surfaces_shard_mismatch(self):
        first = start_gateway()
        second = start_gateway()
        try:
            with ClusterConnection(
                f"{first.address},{second.address}", timeout=5.0
            ) as connection:
                round_id, _ = _open_test_round(connection)
                # Corrupt the coordinator's view of the round: the shards'
                # (truthful) exports now disagree with it field-for-field.
                connection._rounds[round_id].epsilon = 9.99
                with pytest.raises(ServiceError) as err:
                    connection.finalize(round_id)
                assert err.value.code == "shard_mismatch"
        finally:
            first.close()
            second.close()

    def test_disagreeing_broadcast_size_surfaces_shard_mismatch(self):
        gateway = start_gateway()
        try:
            with ClusterConnection(gateway.address, timeout=5.0) as connection:
                round_id, _ = _open_test_round(connection)
                # Each export carries the broadcast size its shard
                # accounted; the barrier checks it against the canonical one.
                connection._rounds[round_id].broadcast_bits += 8
                with pytest.raises(ServiceError, match="broadcast_bits") as err:
                    connection.finalize(round_id)
                assert err.value.code == "shard_mismatch"
        finally:
            gateway.close()

    def test_unknown_and_closed_rounds_keep_their_codes(self):
        gateway = start_gateway()
        try:
            with ClusterConnection(gateway.address, timeout=5.0) as connection:
                with pytest.raises(ServiceError) as err:
                    connection.finalize(7)
                assert err.value.code == "unknown_round"
                round_id, domain = _open_test_round(connection)
                connection.send_batch(round_id, _one_payload(domain))
                connection.finalize(round_id)
                # The closed round leaves no coordinator bookkeeping behind.
                assert round_id not in connection._rounds
                with pytest.raises(ServiceError) as err:
                    connection.finalize(round_id)
                assert err.value.code == "round_closed"
                with pytest.raises(ServiceError) as err:
                    connection.send_batch(round_id, _one_payload(domain))
                assert err.value.code == "round_closed"
                with pytest.raises(ServiceError) as err:
                    connection.finalize(round_id + 1)
                assert err.value.code == "unknown_round"
        finally:
            gateway.close()


class TestClusterSurface:
    def test_address_parsing_rejects_duplicates_and_garbage(self):
        assert parse_cluster_addresses("h1:1, h2:2") == ["h1:1", "h2:2"]
        assert parse_cluster_addresses(["h1:1"]) == ["h1:1"]
        with pytest.raises(ValueError, match="twice"):
            parse_cluster_addresses("h1:1,h1:1")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_cluster_addresses("h1:1,,h2:2")
        with pytest.raises(ValueError):
            parse_cluster_addresses("no-port")

    @pytest.mark.parametrize("n_shards", [1, 2], ids=["one-gateway", "two-shards"])
    def test_one_server_class_for_every_address(self, shard_pool, n_shards):
        """A single gateway is a one-shard cluster: the same class serves
        both, over a connection to every listed gateway."""
        gateway = _cluster_address(shard_pool, n_shards)
        config = MechanismConfig(
            k=5, epsilon=4.0, n_bits=8, simulation_mode="per_user",
            execution_mode="network", gateway=gateway,
        )
        runner = TAPMechanism._make_round_runner(config, "alpha")
        try:
            assert type(runner.server) is ClusterCoordinator
            assert runner.server.connection.addresses == parse_cluster_addresses(gateway)
        finally:
            runner.server.shutdown()

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_stats_sum_one_metrics_scrape_of_every_shard(self, shard_pool, n_shards):
        """``stats()`` is the :func:`cluster_stats` of the shards' own
        ``metrics()["stats"]`` documents, with no separate stats op."""
        with ClusterConnection(_cluster_address(shard_pool, n_shards), timeout=5.0) as connection:
            round_id, domain = _open_test_round(connection)
            for _ in range(n_shards):
                connection.send_batch(round_id, _one_payload(domain))
            connection.finalize(round_id)
            stats = connection.stats()
            per_shard = [shard["stats"] for shard in connection.metrics()["shards"]]
        assert stats["n_shards"] == n_shards
        assert stats["shards"] == per_shard
        for key in ("upload_bits", "broadcast_bits", "rounds_opened", "open_rounds"):
            assert stats[key] == sum(entry[key] for entry in per_shard), key
        assert stats["open_rounds"] == 0

    @pytest.mark.parametrize("name", ["HashRing", "DEFAULT_VNODES"])
    def test_cluster_package_exports_no_ring(self, name):
        import repro.cluster

        assert name not in repro.cluster.__all__
        with pytest.raises(AttributeError):
            getattr(repro.cluster, name)

    def test_ring_module_and_attribute_are_gone(self, shard_pool):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.cluster.ring")
        with ClusterConnection(_cluster_address(shard_pool, 2), timeout=5.0) as connection:
            assert not hasattr(connection, "ring")

    def test_closed_single_gateway_is_shard_unavailable(self, two_party_dataset):
        handle = start_gateway()
        address = handle.address
        handle.close()
        config = _config(two_party_dataset)
        with pytest.raises(ServiceError) as err:
            run_over_network(TAPMechanism(config), two_party_dataset, address, rng=1)
        assert err.value.code == "shard_unavailable"

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_failed_run_leaves_no_connection_open(self, two_party_dataset, monkeypatch):
        """Every party connects before the first round; that round fails
        (the gateway's frame bound refuses the first frame, client-side),
        and the run still closes every connection it opened.  An unclosed
        socket would also surface as a ResourceWarning at the collection
        below, which these filters turn into a failure."""
        opened: list[GatewayConnection] = []
        original_init = GatewayConnection.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            opened.append(self)

        monkeypatch.setattr(GatewayConnection, "__init__", recording_init)
        with start_gateway(max_frame_bytes=16) as handle:
            with pytest.raises(OversizeFrameError):
                run_over_network(
                    TAPMechanism(_config(two_party_dataset)),
                    two_party_dataset,
                    handle.address,
                    rng=1,
                )
        assert len(opened) == two_party_dataset.n_parties
        assert all(conn._sock.fileno() == -1 for conn in opened)
        gc.collect()

    def test_connecting_to_a_dead_shard_is_shard_unavailable(self, shard_pool):
        live = shard_pool[0].address
        with pytest.raises(ServiceError) as err:
            ClusterConnection(f"{live},127.0.0.1:9", timeout=2.0)
        assert err.value.code == "shard_unavailable"
