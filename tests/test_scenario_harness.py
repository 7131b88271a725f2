"""The robustness harness: snapshot scoring, determinism, stores.

The backbone invariant mirrors ``test_service_equivalence.py``: a scenario
run with the same seed produces a bit-identical snapshot-record sequence
— and, store included, byte-identical persisted files.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import MechanismConfig
from repro.experiments.store import ScenarioSnapshotStore, StoreError
from repro.metrics.robustness import detection_latency, score_series
from repro.scenarios import (
    BaseWorkload,
    DriftSchedule,
    PoisonedReports,
    Scenario,
    ScenarioSpec,
    run_scenario,
    run_scenario_spec,
)


def _scenario(**overrides) -> Scenario:
    kwargs = dict(
        base=BaseWorkload(
            kind="zipf", n_items=64, n_bits=8, exponent=2.5, shift=4.0, seed=5
        ),
        effects=[DriftSchedule(mode="abrupt", start=5)],
        n_steps=8,
        batch_size=500,
        k=3,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def _run(scenario=None, **overrides):
    kwargs = dict(
        epsilon=6.0, oracle="krr", granularity=3,
        window_batches=2, stride=2, seed=0,
    )
    kwargs.update(overrides)
    return run_scenario(scenario or _scenario(), **kwargs)


class TestRunScenario:
    def test_records_align_with_tracker_cadence(self):
        report = _run()
        assert [r["step"] for r in report.records] == [2, 4, 6, 8]
        for record in report.records:
            assert 0.0 <= record["f1"] <= 1.0
            assert record["upload_bits"] > 0 and record["broadcast_bits"] > 0
            assert record["window_users"] == 1000
            assert len(record["true_top_k"]) == 3

    def test_truth_moves_with_the_scenario(self):
        report = _run()
        assert report.records[0]["true_top_k"] != report.records[-1]["true_top_k"]
        assert report.records[0]["since_drift"] is None
        assert report.records[-1]["since_drift"] == 3

    def test_drift_events_carry_latency(self):
        report = _run()
        assert [e["event_step"] for e in report.events] == [5]
        event = report.events[0]
        if event["latency_steps"] is not None:
            assert event["detected_step"] == 5 + event["latency_steps"]

    def test_poison_counts_surface_in_records(self):
        report = _run(_scenario(effects=[PoisonedReports(fraction=0.1)]))
        assert all(r["n_poisoned"] == 50 for r in report.records)

    def test_report_round_trips_to_json(self):
        report = _run()
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["records"] == report.records
        assert parsed["events"] == report.events

    def test_render_mentions_drift(self):
        text = _run().render()
        assert "drift @ step 5" in text and "precision" in text

    def test_explicit_config_must_match_the_domain(self):
        config = MechanismConfig(
            k=3, epsilon=6.0, n_bits=12, granularity=3, simulation_mode="per_user"
        )
        with pytest.raises(ValueError, match="n_bits"):
            _run(config=config)

    def test_oversized_window_is_rejected_not_silent(self):
        # An explicit override past the stream length must fail loudly
        # instead of producing a zero-snapshot run (the spec-level check
        # does not see CLI/API overrides).
        with pytest.raises(ValueError, match="never fill"):
            _run(window_batches=20)


class TestBackendDeterminism:
    """Same seed ⇒ bit-identical snapshot records."""

    def test_run_scenario_has_no_backend_knob(self):
        with pytest.raises(TypeError, match="backend"):
            _run(backend="thread")

    def test_same_seed_same_records(self):
        assert _run(seed=7).records == _run(seed=7).records

    def test_different_seeds_differ(self):
        assert _run(seed=0).records != _run(seed=1).records


class TestSnapshotStore:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        with ScenarioSnapshotStore(path, fingerprint="abcd") as store:
            report = _run(store=store)
            assert store.records() == report.records
        assert ScenarioSnapshotStore.load(path) == report.records

    def test_refuses_existing_store_without_overwrite(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        ScenarioSnapshotStore(path).close()
        with pytest.raises(StoreError, match="exists"):
            ScenarioSnapshotStore(path)
        ScenarioSnapshotStore(path, overwrite=True).close()

    def test_same_seed_runs_write_identical_bytes(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            with ScenarioSnapshotStore(path, fingerprint="f" * 16) as store:
                _run(store=store, seed=3)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_load_drops_a_partial_trailing_line(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        with ScenarioSnapshotStore(path) as store:
            store.append({"step": 2, "f1": 1.0})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"record": {"step": 4, "f1"')
        assert ScenarioSnapshotStore.load(path) == [{"step": 2, "f1": 1.0}]

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-store.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(StoreError, match="snapshot store"):
            ScenarioSnapshotStore.load(path)


class TestRunScenarioSpec:
    def test_spec_cadence_is_the_default(self):
        spec = ScenarioSpec.from_dict(
            {
                "base": {"kind": "zipf", "n_items": 64, "n_bits": 8,
                         "exponent": 2.5, "shift": 4.0, "seed": 5},
                "n_steps": 8, "batch_size": 500, "k": 3,
                "window_batches": 2, "stride": 2,
                "effects": [{"kind": "drift", "mode": "abrupt", "start": 5}],
                "name": "unit-lab",
            }
        )
        report = run_scenario_spec(spec, epsilon=6.0, granularity=3, seed=0)
        assert report.scenario == "unit-lab"
        assert report.records == _run(seed=0).records

    def test_overrides_win_over_the_spec(self):
        spec = ScenarioSpec.from_dict(
            {"base": {"n_items": 64, "n_bits": 8, "exponent": 2.5, "shift": 4.0,
                      "seed": 5},
             "n_steps": 8, "batch_size": 500, "k": 3, "window_batches": 4}
        )
        report = run_scenario_spec(
            spec, epsilon=6.0, granularity=3, window_batches=2, stride=4, seed=0
        )
        assert [r["step"] for r in report.records] == [2, 6]


class TestRobustnessMetrics:
    def test_detection_latency(self):
        scored = [(2, 0.2), (4, 0.4), (6, 0.8), (8, 1.0)]
        assert detection_latency(5, scored) == 1
        assert detection_latency(5, scored, threshold=0.9) == 3
        assert detection_latency(5, scored, threshold=1.1) is None
        # Snapshots before the event never count as detection.
        assert detection_latency(7, [(6, 1.0), (8, 1.0)]) == 1

    def test_score_series(self):
        records = score_series(
            [(1, [1, 2]), (2, [3, 4])], {1: [1, 2], 2: [1, 2]}
        )
        assert records[0] == {"step": 1, "precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert records[1]["f1"] == 0.0
        with pytest.raises(KeyError):
            score_series([(3, [1])], {1: [1]})
