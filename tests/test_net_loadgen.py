"""The multiprocess load generator: totals, backends, scenario replay."""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.net import run_loadgen, start_gateway
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def gateway():
    with start_gateway() as handle:
        yield handle


def _tiny_scenario() -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {
            "name": "loadgen-replay",
            "base": {"kind": "zipf", "n_items": 32, "n_bits": 8, "seed": 3},
            "n_steps": 4,
            "batch_size": 200,
            "k": 3,
        }
    )


class TestDatasetWorkloads:
    def test_totals_and_latency_summary(self, gateway):
        dataset = load_dataset("rdb", scale="tiny", seed=0)
        report = run_loadgen(
            gateway.address, dataset=dataset, level=4, batch_size=256,
            connections=3, rounds=2, backend="serial", seed=0,
        )
        assert report.connections == 3 and report.rounds == 2
        assert report.n_reports == sum(
            entry["n_reports"] for entry in report.per_connection
        )
        assert report.n_batches >= 3 * 2  # at least one batch per (pool, round)
        assert report.reports_per_sec > 0
        assert report.latency_ms["count"] == report.n_batches
        latency = report.latency_ms
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert report.upload_bits > 0 and report.broadcast_bits > 0
        # Parties assign round-robin: 3 connections over a 2-party dataset.
        pools = [entry["pool"] for entry in report.per_connection]
        assert len(pools) == 3 and len(set(pools)) == 3
        for entry in report.per_connection:
            assert entry["top_prefixes"], "every pool reports estimated top prefixes"

    def test_wire_bits_are_seed_deterministic(self, gateway):
        kwargs = dict(
            dataset="rdb", scale="tiny", dataset_seed=0, level=4,
            batch_size=128, connections=2, rounds=1, seed=42,
        )
        first = run_loadgen(gateway.address, backend="serial", **kwargs)
        second = run_loadgen(gateway.address, backend="thread", **kwargs)
        # Timing differs; the bytes on the wire must not.
        assert first.upload_bits == second.upload_bits
        assert first.broadcast_bits == second.broadcast_bits
        assert [e["top_prefixes"] for e in first.per_connection] == [
            e["top_prefixes"] for e in second.per_connection
        ]

    def test_level_is_capped_at_the_workload_bits(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=64,
            connections=1, backend="serial", seed=0,
        )
        assert report.level == load_dataset("rdb", scale="tiny", seed=2025).n_bits

    def test_users_per_round_bounds_the_stream(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            connections=2, rounds=2, users_per_round=50,
            backend="serial", seed=1,
        )
        assert report.n_reports == 2 * 2 * 50

    def test_process_backend_spawns_real_client_processes(self, gateway):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            batch_size=256, connections=2, backend="process", max_workers=2,
            seed=3,
        )
        assert report.backend == "process"
        assert report.n_reports > 0
        assert report.latency_ms["count"] == report.n_batches

    def test_report_to_dict_is_json_safe(self, gateway):
        import json

        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            connections=1, backend="serial", seed=0,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["workload"] == "dataset:rdb"
        assert "latencies" not in payload["per_connection"][0]
        assert payload["gateway"]["upload_bits"] > 0
        assert "reports/s" in report.render()

    @pytest.mark.parametrize("connections", [1, 2, 4])
    @pytest.mark.parametrize("oracle", ["krr", "olh", "oue", "sue"])
    def test_every_connection_streams_its_full_sample(
        self, gateway, oracle, connections
    ):
        report = run_loadgen(
            gateway.address, dataset="rdb", scale="tiny", level=4,
            oracle=oracle, connections=connections, rounds=2,
            users_per_round=300, batch_size=128, backend="thread",
            max_workers=2, seed=0,
        )
        assert report.n_reports == connections * 2 * 300
        # Each (connection, round) slices its 300 users into 128-report batches.
        assert report.n_batches == connections * 2 * 3
        assert report.latency_ms["count"] == report.n_batches
        latency = report.latency_ms
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert report.upload_bits > 0 and report.broadcast_bits > 0

    @pytest.mark.parametrize("batch_size", [64, 256, 1024])
    def test_batch_size_reslices_the_stream_without_changing_it(
        self, gateway, batch_size
    ):
        """Batches only slice a round's reports: the report count and the
        broadcast bytes are the same at any batch size."""
        kwargs = dict(dataset="rdb", scale="tiny", dataset_seed=0, level=4,
                      connections=1, rounds=2, backend="serial", seed=5)
        reference = run_loadgen(gateway.address, batch_size=128, **kwargs)
        report = run_loadgen(gateway.address, batch_size=batch_size, **kwargs)
        assert report.n_reports == reference.n_reports
        assert report.broadcast_bits == reference.broadcast_bits
        (entry,) = report.per_connection
        assert report.n_batches == 2 * -(-entry["n_users"] // batch_size)

    @pytest.mark.parametrize("workload", ["dataset", "scenario"])
    def test_report_keys_are_pinned(self, gateway, workload):
        source = (
            {"dataset": "rdb", "scale": "tiny"} if workload == "dataset"
            else {"scenario": _tiny_scenario()}
        )
        payload = run_loadgen(
            gateway.address, level=4, connections=1, backend="serial", seed=0,
            **source,
        ).to_dict()
        assert sorted(payload) == [
            "address", "backend", "batch_size", "broadcast_bits", "connections",
            "elapsed_seconds", "epsilon", "gateway", "latency_ms", "level",
            "n_batches", "n_reports", "oracle", "per_connection",
            "reports_per_sec", "rounds", "shards", "upload_bits", "workload",
        ]
        assert sorted(payload["per_connection"][0]) == [
            "broadcast_bits", "n_batches", "n_reports", "n_users", "pool",
            "top_prefixes", "upload_bits",
        ]

    def test_batch_size_is_a_fixed_argument(self, gateway):
        # The report slicing is set by `batch_size` alone; there is no
        # controller argument that would re-slice it between rounds.
        with pytest.raises(TypeError, match="adaptive"):
            run_loadgen(
                gateway.address, dataset="rdb", scale="tiny",
                connections=1, backend="serial", adaptive=True,
            )


class TestScenarioReplay:
    def test_each_connection_replays_the_arrival_stream(self, gateway):
        spec = _tiny_scenario()
        report = run_loadgen(
            gateway.address, scenario=spec, level=6, batch_size=300,
            connections=2, backend="serial", seed=0,
        )
        # 4 steps x 200 arrivals per replayed stream, per connection.
        assert report.n_reports == 2 * 4 * 200
        assert report.workload == "scenario:loadgen-replay"
        assert report.level == 6  # capped at the scenario's 8 bits, not below

    @pytest.mark.parametrize("connections", [1, 2, 3])
    def test_replay_totals_scale_with_connections(self, gateway, connections):
        report = run_loadgen(
            gateway.address, scenario=_tiny_scenario(), level=5,
            batch_size=128, connections=connections, backend="thread",
            max_workers=2, seed=4,
        )
        assert report.n_reports == connections * 4 * 200
        assert [entry["n_reports"] for entry in report.per_connection] == [
            4 * 200
        ] * connections
        latency = report.latency_ms
        assert latency["count"] == report.n_batches
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_scenario_replay_is_seed_deterministic(self, gateway):
        spec = _tiny_scenario()
        kwargs = dict(scenario=spec, level=5, connections=2, seed=9)
        first = run_loadgen(gateway.address, backend="serial", **kwargs)
        second = run_loadgen(gateway.address, backend="serial", **kwargs)
        assert first.upload_bits == second.upload_bits
        assert [e["top_prefixes"] for e in first.per_connection] == [
            e["top_prefixes"] for e in second.per_connection
        ]


class TestAddresses:
    @pytest.mark.parametrize("faults", [None, {"name": "quiet"}], ids=["plain", "faults"])
    def test_a_shard_listed_twice_is_rejected(self, gateway, faults):
        # With faults every shard gets its own proxy port, so the repeat
        # must be caught on the address as given, before any proxy starts.
        with pytest.raises(ValueError, match="twice"):
            run_loadgen(
                f"{gateway.address},{gateway.address}", dataset="rdb",
                scale="tiny", connections=1, backend="serial", faults=faults,
            )

    def test_one_gateway_reports_as_a_one_shard_cluster(self):
        # A fresh gateway, so its counters hold this run's traffic alone.
        with start_gateway() as gateway:
            report = run_loadgen(
                [gateway.address], dataset="rdb", scale="tiny", level=4,
                connections=1, backend="serial", seed=0,
            )
        assert report.address == gateway.address
        assert report.shards == report.gateway["n_shards"] == 1
        assert report.gateway["upload_bits"] == report.upload_bits
        (shard,) = report.gateway["shards"]
        assert shard["upload_bits"] == report.upload_bits
