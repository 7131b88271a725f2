"""Experiment harness: regenerate every table and figure of Section 7.

* :mod:`repro.experiments.runner` — generic sweep runner (mechanism ×
  dataset × ε × k × repetitions) returning tidy records,
* :mod:`repro.experiments.figures` — Figures 4, 5, 6 and 7,
* :mod:`repro.experiments.tables` — Tables 2, 3, 4, 5, 6, 7 and 8
  (Table 1 lives in :mod:`repro.analysis.costs`),
* :mod:`repro.experiments.reporting` — plain-text rendering of the results,
* :mod:`repro.experiments.spec` — declarative YAML/JSON sweep specs
  (what ``repro sweep`` consumes),
* :mod:`repro.experiments.store` — the resumable run store (completed
  cells as append-only JSON lines).

Every entry point takes an :class:`ExperimentSettings` so that the same code
runs at smoke-test scale in CI and at larger scales offline.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.runner": (
            "ExperimentSettings",
            "SMOKE_PRESET",
            "SweepCell",
            "SweepResult",
            "build_mechanism",
            "cell_seed",
            "evaluate_run",
            "iter_cells",
            "run_cell",
            "run_sweep",
            "MECHANISM_REGISTRY",
        ),
        "repro.experiments.spec": (
            "SpecError",
            "SweepSpec",
            "LoadgenSpec",
            "load_loadgen_spec",
            "load_scenario_spec",
            "load_spec",
            "save_spec",
        ),
        "repro.experiments.store": (
            "ScenarioSnapshotStore",
            "StoreError",
            "SweepCellStore",
            "cell_key",
        ),
        "repro.experiments.figures": ("figure4", "figure5", "figure6", "figure7"),
        "repro.experiments.tables": (
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
        ),
        "repro.experiments.reporting": ("render_records", "records_to_table"),
        "repro.experiments.serialization": (
            "load_sweep",
            "records_from_json",
            "records_to_json",
            "save_result",
            "save_sweep",
            "summarize_result",
        ),
    },
)
