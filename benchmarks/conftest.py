"""Shared configuration for the benchmark harness.

Every benchmark reproduces one table or figure of the paper's evaluation
section (the experiment index lives in each ``test_bench_*`` module's
docstring).  Two profiles are available, selected with the
``REPRO_BENCH_PROFILE`` environment variable:

* ``quick`` (default) — reduced repetitions at the ``small`` dataset scale;
  the full suite finishes in a few minutes on a laptop.
* ``full``  — more repetitions at the ``medium`` scale; closer to the
  paper's averaging but takes correspondingly longer.

Two further environment variables profile the execution engine (see
:mod:`repro.engine` and the README's "Running sweeps in parallel"):

* ``REPRO_BENCH_BACKEND`` — ``serial`` (default), ``thread`` or ``process``;
  how each benchmark's sweep cells execute.
* ``REPRO_BENCH_WORKERS`` — worker count for the parallel backends
  (default: the executor's own default, i.e. the core count).

Backends change wall-clock time only, never results: every benchmark
reproduces the same numbers under any backend for a fixed seed.

Each benchmark renders the same rows/series the paper reports, prints them,
and also writes them to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentSettings

RESULTS_DIR = Path(__file__).parent / "results"

_PROFILES = {
    "quick": ExperimentSettings(
        scale="small",
        repetitions=1,
        granularity=6,
        epsilons=(1.0, 2.0, 3.0, 4.0, 5.0),
        ks=(10, 20, 40),
        seed=2025,
    ),
    "full": ExperimentSettings(
        scale="medium",
        repetitions=3,
        granularity=6,
        epsilons=(1.0, 2.0, 3.0, 4.0, 5.0),
        ks=(10, 20, 40),
        seed=2025,
    ),
}


def active_profile() -> str:
    """Benchmark profile selected via REPRO_BENCH_PROFILE (default: quick)."""
    return os.environ.get("REPRO_BENCH_PROFILE", "quick")


def engine_overrides() -> dict:
    """Execution-engine knobs from REPRO_BENCH_BACKEND / REPRO_BENCH_WORKERS."""
    overrides: dict = {}
    backend = os.environ.get("REPRO_BENCH_BACKEND")
    if backend:
        overrides["backend"] = backend
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    if workers:
        overrides["max_workers"] = int(workers)
    return overrides


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """The sweep settings for the selected profile and engine backend."""
    profile = active_profile()
    if profile not in _PROFILES:
        raise KeyError(f"unknown REPRO_BENCH_PROFILE {profile!r}; use quick or full")
    base = _PROFILES[profile]
    overrides = engine_overrides()
    return base.with_updates(**overrides) if overrides else base


@pytest.fixture(scope="session")
def save_report():
    """Persist a rendered report under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== {name} =====\n{text}\n")

    return _save
