"""End-to-end tests of the ``repro`` CLI (run / sweep / serve / bench).

Everything goes through ``main(argv)`` — the same entry point the console
script installs — asserting both the exit statuses and the CLI ↔ API
equivalence guarantees (a CLI invocation is bit-identical to the direct
API calls for a fixed seed, modulo wall-clock keys).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets.registry import load_dataset
from repro.experiments.runner import (
    ExperimentSettings,
    build_mechanism,
    make_config,
    run_sweep,
)
from repro.experiments.serialization import load_sweep, summarize_result

SPEC_DICT = {
    "name": "cli-test",
    "settings": {"scale": "tiny", "repetitions": 2, "seed": 2025, "granularity": 6},
    "grid": {
        "datasets": ["rdb"],
        "mechanisms": ["fedpem", "taps"],
        "epsilons": [4.0],
        "ks": [5],
    },
}


def write_spec(tmp_path, data=None):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data or SPEC_DICT))
    return path


def strip_runtime(records):
    return [{k: v for k, v in r.items() if k != "runtime_seconds"} for r in records]


def spec_settings() -> ExperimentSettings:
    return ExperimentSettings(
        scale="tiny",
        repetitions=2,
        seed=2025,
        granularity=6,
        datasets=("rdb",),
        mechanisms=("fedpem", "taps"),
        epsilons=(4.0,),
        ks=(5,),
    )


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRun:
    def test_json_output_and_api_equivalence(self, capsys):
        assert main(["run", "taps", "--smoke", "--rng", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism"] == "taps"
        assert 0.0 <= payload["metrics"]["f1"] <= 1.0
        # --smoke applies the full canonical preset, k and ε included.
        assert payload["config"]["k"] == 5 and payload["config"]["epsilon"] == 4.0

        # The CLI run must be bit-identical to the equivalent API calls.
        settings = ExperimentSettings(
            scale="tiny", repetitions=1, granularity=6, oracle="krr", seed=2025
        )
        dataset = load_dataset("rdb", scale="tiny", seed=2025)
        config = make_config(settings, dataset, k=5, epsilon=4.0)
        result = build_mechanism("taps", config).run(dataset, rng=0)
        expected = summarize_result(result)
        actual = payload["summary"]
        for key in ("runtime_seconds",):
            expected.pop(key), actual.pop(key)
        assert actual == expected

    def test_explicit_flags_beat_the_smoke_preset(self, capsys):
        assert main(["run", "taps", "--smoke", "-k", "7", "--rng", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["k"] == 7

    def test_explicit_scale_beats_the_smoke_preset(self, capsys):
        assert main(["run", "taps", "--smoke", "--scale", "small", "--rng", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == "small"
        assert payload["config"]["k"] == 5  # the rest of the preset still applies

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["run", "gtf", "--smoke", "-o", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["mechanism"] == "gtf"

    @pytest.mark.parametrize("flags", [["--backend", "thread"], ["--workers", "2"]])
    def test_removed_party_backend_flags_are_refused(self, flags, capsys):
        # A run's parties go in party order: there is no party pool left
        # for these flags to pick or size.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "taps", "--smoke", *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


class TestSweep:
    def test_spec_run_matches_api_and_resume_is_bit_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "4 cells (0 reused, 4 computed)" in err
        assert (out / "spec.json").exists() and (out / "cells.jsonl").exists()

        uninterrupted = load_sweep(out / "sweep.json")
        api = run_sweep(spec_settings())
        assert strip_runtime(uninterrupted.records) == strip_runtime(api.records)

        # Simulate a kill at 50%: drop the last two completed cells plus a
        # partial line mid-write, then rerun with --resume.
        store_path = out / "cells.jsonl"
        lines = store_path.read_text().splitlines()
        store_path.write_text("\n".join(lines[:3]) + '\n{"key": ["rdb", "ta')
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "--resume"]) == 0
        assert "4 cells (2 reused, 2 computed)" in capsys.readouterr().err

        resumed = load_sweep(out / "sweep.json")
        assert strip_runtime(resumed.records) == strip_runtime(uninterrupted.records)
        # The two reused cells kept their original wall-clock values —
        # proof they were not recomputed.
        assert [r["runtime_seconds"] for r in resumed.records[:2]] == [
            r["runtime_seconds"] for r in uninterrupted.records[:2]
        ]

    def test_existing_store_without_resume_fails(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 0
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_under_a_different_spec_fails(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 0
        original_spec_json = (out / "spec.json").read_text()
        changed = dict(SPEC_DICT, grid={**SPEC_DICT["grid"], "epsilons": [3.0]})
        other = tmp_path / "other.json"
        other.write_text(json.dumps(changed))
        assert main(["sweep", "--spec", str(other), "-o", str(out), "--resume", "-q"]) == 2
        assert "different sweep spec" in capsys.readouterr().err
        # A refused invocation must not rewrite the provenance record.
        assert (out / "spec.json").read_text() == original_spec_json

    def test_resume_survives_backend_and_worker_changes(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 0
        first = load_sweep(out / "sweep.json")
        # Execution knobs are not part of the grid identity: resuming the
        # same spec on another backend/worker count must reuse every cell.
        assert main([
            "sweep", "--spec", str(spec), "-o", str(out), "--resume",
            "--backend", "thread", "--workers", "2",
        ]) == 0
        assert "(4 reused, 0 computed)" in capsys.readouterr().err
        resumed = load_sweep(out / "sweep.json")
        assert strip_runtime(resumed.records) == strip_runtime(first.records)

    def test_force_overwrites(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 0
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q", "--force"]) == 0

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"settings": {"not_a_knob": 1}}))
        assert main(["sweep", "--spec", str(bad), "-o", str(tmp_path / "o")]) == 2
        assert "not_a_knob" in capsys.readouterr().err


class TestServe:
    ARGS = ["serve", "--smoke", "--level", "4", "--batch-size", "256",
            "--rounds", "2", "--rng", "3"]

    def test_prints_accounting_and_is_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        assert main(self.ARGS + ["-o", str(out_a)]) == 0
        rendered = capsys.readouterr().out
        assert "upload (kB)" in rendered and "round" in rendered

        out_b = tmp_path / "b.json"
        assert main(self.ARGS + ["-o", str(out_b)]) == 0
        capsys.readouterr()
        report_a = json.loads(out_a.read_text())
        report_b = json.loads(out_b.read_text())
        assert report_a == report_b
        assert report_a["upload_bits"] > 0 and report_a["broadcast_bits"] > 0
        # Two parties (RDB) × two rounds.
        assert len(report_a["rounds"]) == 4


SCENARIO_DOC = {
    "name": "cli-lab",
    "base": {"kind": "zipf", "n_items": 64, "n_bits": 8, "exponent": 2.5,
             "shift": 4.0, "seed": 5},
    "n_steps": 8,
    "batch_size": 400,
    "k": 3,
    "window_batches": 2,
    "stride": 2,
    "effects": [
        {"kind": "drift", "mode": "abrupt", "start": 5},
        {"kind": "poison", "fraction": 0.1},
    ],
}


class TestServeScenario:
    def write_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        return path

    def args(self, spec, **paths):
        argv = ["serve", "--scenario", str(spec), "--epsilon", "6",
                "--granularity", "3", "--rng", "3"]
        for flag, value in paths.items():
            argv += [f"--{flag}", str(value)]
        return argv

    def test_persists_snapshot_records(self, tmp_path, capsys):
        spec = self.write_scenario(tmp_path)
        store = tmp_path / "snapshots.jsonl"
        out = tmp_path / "report.json"
        assert main(self.args(spec, store=store, output=out)) == 0
        rendered = capsys.readouterr().out
        assert "precision" in rendered and "drift @ step 5" in rendered

        from repro.experiments.store import ScenarioSnapshotStore

        records = ScenarioSnapshotStore.load(store)
        assert [r["step"] for r in records] == [2, 4, 6, 8]
        for record in records:
            assert {"precision", "recall", "f1", "upload_bits"} <= set(record)
        report = json.loads(out.read_text())
        assert report["records"] == records
        assert [e["event_step"] for e in report["events"]] == [5]

    def test_same_seed_runs_are_byte_identical(self, tmp_path, capsys):
        """The acceptance invariant: two same-seed CLI runs persist
        byte-identical stores (records hold no wall-clock values)."""
        spec = self.write_scenario(tmp_path)
        store_a, store_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.args(spec, store=store_a)) == 0
        assert main(self.args(spec, store=store_b)) == 0
        capsys.readouterr()
        assert store_a.read_bytes() == store_b.read_bytes()

    def test_existing_store_needs_force(self, tmp_path, capsys):
        spec = self.write_scenario(tmp_path)
        store = tmp_path / "snapshots.jsonl"
        assert main(self.args(spec, store=store)) == 0
        assert main(self.args(spec, store=store)) == 2
        assert "--force" in capsys.readouterr().err
        assert main(self.args(spec, store=store) + ["--force"]) == 0

    def test_bench_pivot_renders_a_snapshot_store(self, tmp_path, capsys):
        spec = self.write_scenario(tmp_path)
        store = tmp_path / "snapshots.jsonl"
        assert main(self.args(spec, store=store)) == 0
        capsys.readouterr()
        assert main(["bench", "pivot", "--from", str(store),
                     "--rows", "step", "--cols", "n_poisoned",
                     "--value", "f1"]) == 0
        assert "step" in capsys.readouterr().out

    def test_window_and_stride_flags_override_the_spec(self, tmp_path, capsys):
        spec = self.write_scenario(tmp_path)
        out = tmp_path / "report.json"
        assert main(self.args(spec, output=out, window=4, stride=4)) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert [r["step"] for r in report["records"]] == [4, 8]

    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"base": {"kind": "uniform"}}))
        assert main(["serve", "--scenario", str(path)]) == 2
        assert "uniform" in capsys.readouterr().err

    def test_raw_round_flags_are_rejected_in_scenario_mode(self, tmp_path, capsys):
        # Flags the scenario run would silently ignore must fail loudly.
        spec = self.write_scenario(tmp_path)
        assert main(self.args(spec) + ["--smoke"]) == 2
        assert "--smoke" in capsys.readouterr().err
        assert main(self.args(spec) + ["--batch-size", "128"]) == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_oversized_window_override_is_a_usage_error(self, tmp_path, capsys):
        spec = self.write_scenario(tmp_path)
        assert main(self.args(spec, window=20)) == 2
        assert "never fill" in capsys.readouterr().err

    def test_failed_run_does_not_leave_a_blocking_empty_store(self, tmp_path, capsys):
        # A run that dies before any snapshot must not leave a header-only
        # store that forces --force on the corrected rerun.
        spec = self.write_scenario(tmp_path)
        store = tmp_path / "snapshots.jsonl"
        assert main(self.args(spec, store=store, window=20)) == 2
        assert not store.exists()
        capsys.readouterr()
        assert main(self.args(spec, store=store)) == 0

    def test_scenario_flags_are_rejected_in_raw_mode(self, tmp_path, capsys):
        # The mirror image: raw rounds would silently ignore --store etc.
        store = tmp_path / "snapshots.jsonl"
        assert main(["serve", "--smoke", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert "--store" in err and "--scenario" in err
        assert not store.exists()
        assert main(["serve", "--smoke", "--window", "3"]) == 2
        assert "--window" in capsys.readouterr().err

    def test_shipped_example_spec_loads(self):
        from pathlib import Path

        from repro.experiments.spec import load_scenario_spec

        spec_path = Path(__file__).parent.parent / "examples/specs/drift_attack.yaml"
        spec = load_scenario_spec(spec_path)
        assert spec.name == "drift-attack" and spec.build().drift_steps()


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "figure7" in out

    @pytest.mark.parametrize(
        "argv",
        [["bench", "gate"], ["bench", "--selftest"], ["bench", "table2", "--results", "x"]],
    )
    def test_bench_times_nothing(self, argv, capsys):
        # `repro bench` only reproduces tables and figures; a speed-gate
        # invocation is a usage error, not a silent no-op.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_compute_persist_and_rerender(self, tmp_path, capsys):
        assert main(["bench", "table8", "--smoke", "-o", str(tmp_path)]) == 0
        computed = capsys.readouterr().out
        assert "Table 8" in computed
        artifact = tmp_path / "table8.json"
        payload = json.loads(artifact.read_text())
        assert payload["target"] == "table8" and payload["records"]

        # Re-render from the persisted records: no recomputation, same data.
        assert main(["bench", "table8", "--from", str(artifact)]) == 0
        rerendered = capsys.readouterr().out
        assert "Table 8" in rerendered
        for record in payload["records"]:
            assert f"{record['f1']:.4f}" in rerendered

    def test_pivot_rerenders_sweep_output(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 0
        assert main([
            "bench", "pivot", "--from", str(out / "sweep.json"),
            "--rows", "mechanism", "--cols", "epsilon", "--value", "f1",
        ]) == 0
        assert "fedpem" in capsys.readouterr().out

    def test_missing_records_file(self, capsys):
        assert main(["bench", "table8", "--from", "/nonexistent.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_rerender_with_missing_pivot_keys_is_a_clean_error(self, tmp_path, capsys):
        # table3's recipe needs step_size, which plain sweep records lack —
        # that must surface as a friendly CLIError, not a KeyError traceback.
        spec = write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec), "-o", str(out), "-q"]) == 0
        assert main(["bench", "table3", "--from", str(out / "sweep.json")]) == 2
        assert "step_size" in capsys.readouterr().err

    def test_figure_rerender(self, tmp_path, capsys):
        assert main(["bench", "figure7", "--smoke", "-o", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["bench", "figure7", "--from", str(tmp_path / "figure7.json")]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "eps=4" in out


class TestLoadgen:
    def test_smoke_self_hosts_a_gateway(self, tmp_path, capsys):
        out = tmp_path / "loadgen.json"
        assert main(["loadgen", "--smoke", "--level", "4", "--batch-size",
                     "256", "--rng", "0", "-o", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "reports/s" in rendered and "p99" in rendered
        payload = json.loads(out.read_text())
        assert payload["workload"] == "dataset:rdb"
        assert payload["n_reports"] > 0
        assert set(payload["latency_ms"]) == {"count", "p50", "p95", "p99",
                                              "mean", "max"}
        assert payload["gateway"]["upload_bits"] > 0

    def test_spec_drives_the_run_and_flags_win(self, tmp_path, capsys):
        spec = tmp_path / "loadgen.json"
        spec.write_text(json.dumps({
            "name": "cli-net",
            "gateway": {"connection_credits": 4},
            "workload": {"dataset": "rdb", "scale": "tiny", "level": 4,
                         "batch_size": 128, "rounds": 2},
            "load": {"connections": 3, "backend": "serial", "seed": 5},
        }))
        out = tmp_path / "report.json"
        # --connections 1 must beat the spec's 3, and --rounds 1 must beat
        # the spec's 2 even though 1 is also the built-in default; the
        # rest comes from the spec.
        assert main(["loadgen", "--spec", str(spec), "--connections", "1",
                     "--rounds", "1", "-o", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["connections"] == 1
        assert payload["rounds"] == 1 and payload["batch_size"] == 128
        assert payload["backend"] == "serial"

    def test_scenario_replay(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO_DOC))
        out = tmp_path / "report.json"
        assert main(["loadgen", "--scenario", str(scenario), "--connections",
                     "2", "--level", "5", "--rng", "1", "-o", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["workload"] == "scenario:cli-lab"
        # 8 steps x 400 arrivals per replayed stream, per connection.
        assert payload["n_reports"] == 2 * 8 * 400

    def test_refused_shutdown_keeps_the_measurement(self, tmp_path, capsys):
        from repro.net import start_gateway

        out = tmp_path / "report.json"
        with start_gateway(allow_shutdown=False) as handle:
            assert main(["loadgen", "--connect", handle.address, "--scale",
                         "tiny", "--level", "4", "--rng", "0", "--shutdown",
                         "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "did not shut down" in captured.err
        # The completed measurement survives the refusal.
        assert json.loads(out.read_text())["n_reports"] > 0

    def test_bad_connect_address_is_a_cli_error(self, capsys):
        assert main(["loadgen", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_unreachable_gateway_is_a_cli_error(self, capsys):
        assert main(["loadgen", "--connect", "127.0.0.1:1"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeListen:
    def test_gateway_only_flags_require_listen(self, capsys):
        assert main(["serve", "--credits", "4"]) == 2
        assert "--listen" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--backend", "thread"], ["--workers", "2"], ["--max-inflight", "8"]],
    )
    def test_removed_gateway_flags_are_refused(self, flags, capsys):
        # The gateway ingests on its event loop: there is no decode
        # engine or in-flight bound left for these flags to size.
        # Parsed only: at a gateway that took them, main() would serve.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--listen", "127.0.0.1:0", *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_listen_rejects_round_flags(self, capsys):
        assert main(["serve", "--listen", "127.0.0.1:0", "--rounds", "3"]) == 2
        err = capsys.readouterr().err
        assert "--rounds" in err

    def test_listen_rejects_perturbation_flags(self, capsys):
        # A gateway never perturbs: a seed would be silently meaningless.
        assert main(["serve", "--listen", "127.0.0.1:0", "--rng", "7"]) == 2
        assert "--rng" in capsys.readouterr().err

    def test_listen_rejects_bad_address(self, capsys):
        assert main(["serve", "--listen", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_and_loadgen_pair_over_a_real_socket(self, tmp_path, capsys):
        """The scripted CI flow: serve --listen + loadgen --connect --shutdown."""
        import threading
        import time

        ready = tmp_path / "gw.addr"
        stats_out = tmp_path / "gateway.json"
        serve_status: list[int] = []

        def serve():
            serve_status.append(main([
                "serve", "--listen", "127.0.0.1:0", "--ready-file", str(ready),
                "--credits", "4", "-o", str(stats_out),
            ]))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.time() + 30
        # Non-empty, not merely existing: write_text creates the file
        # before its content lands.
        while time.time() < deadline:
            if ready.exists() and ready.read_text().strip():
                break
            time.sleep(0.05)
        address = ready.read_text().strip()
        out = tmp_path / "loadgen.json"
        assert main(["loadgen", "--connect", address, "--scale", "tiny",
                     "--level", "4", "--rng", "2", "--shutdown",
                     "-o", str(out)]) == 0
        thread.join(timeout=30)
        assert serve_status == [0]
        capsys.readouterr()
        report = json.loads(out.read_text())
        stats = json.loads(stats_out.read_text())
        # The gateway accounted exactly the bits the clients sent.
        assert stats["upload_bits"] == report["upload_bits"]
        assert stats["broadcast_bits"] == report["broadcast_bits"]
        # One gateway is a one-shard cluster: its own counters are shards[0].
        assert report["gateway"]["n_shards"] == 1
        assert report["gateway"]["shards"][0]["credits_per_connection"] == 4


class TestGatewaySpecErrors:
    """A spec's gateway: value the constructor refuses exits cleanly."""

    def spec_with_zero_credits(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"gateway": {"connection_credits": 0}}))
        return spec

    def test_listen_reports_refused_gateway_value_cleanly(self, tmp_path, capsys):
        spec = self.spec_with_zero_credits(tmp_path)
        assert main(["serve", "--listen", "127.0.0.1:0", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "connection_credits" in err and "Traceback" not in err

    def test_loadgen_reports_refused_gateway_value_cleanly(self, tmp_path, capsys):
        spec = self.spec_with_zero_credits(tmp_path)
        assert main(["loadgen", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "connection_credits" in err and "Traceback" not in err


class TestCluster:
    @pytest.mark.parametrize(
        "flags",
        [["--backend", "thread"], ["--workers", "2"], ["--max-inflight", "8"]],
    )
    def test_removed_shard_flags_are_refused(self, flags, capsys):
        # Parsed only: a cluster that took them would start its shards.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["cluster", *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


class TestLoadgenScenarioConflicts:
    def test_scenario_rejects_explicit_dataset_flags(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO_DOC))
        assert main(["loadgen", "--scenario", str(scenario), "--dataset",
                     "rdb", "--scale", "large"]) == 2
        err = capsys.readouterr().err
        assert "--dataset" in err and "--scale" in err
