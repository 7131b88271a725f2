"""The repository's two measurement surfaces stay in step with the code.

``benchmarks/`` reproduces the paper's tables and figures: every ``repro
bench`` target has a benchmark and a committed rendering, every committed
rendering has a benchmark that writes it, and nothing else lives under
``benchmarks/results/``.  ``perfbench/`` is the only speed measurement:
the CI smoke job runs every workload that ``BENCHMARK.json`` declares and
checks the correctness verdict on its result line.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

from repro.cli.bench import TARGETS

ROOT = Path(__file__).parent.parent
BENCH_DIR = ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"
CI = yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml").read_text())
WORKLOADS = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
RESULT_FILES = sorted(path.name for path in RESULTS_DIR.iterdir())


def _bench_sources() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(BENCH_DIR.glob("test_bench_*.py"))
    )


@pytest.mark.parametrize("target", sorted(name for name in TARGETS if name != "pivot"))
def test_every_paper_target_has_a_benchmark_and_a_rendering(target):
    assert (BENCH_DIR / f"test_bench_{target}.py").is_file()
    assert list(RESULTS_DIR.glob(f"{target}_*.txt")), (
        f"no committed benchmarks/results/{target}_*.txt"
    )


@pytest.mark.parametrize("name", RESULT_FILES)
def test_every_committed_result_has_a_writer(name):
    """No orphan artifacts: each file is saved by a benchmark under its stem."""
    assert name.endswith(".txt"), f"{name} is not a rendered table or figure"
    assert f'"{Path(name).stem}"' in _bench_sources(), (
        f"no benchmark saves {name}; delete it or add its benchmark"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ci_smoke_runs_every_declared_workload(workload):
    job = CI["jobs"]["perfbench-smoke"]
    assert workload in job["strategy"]["matrix"]["workload"]
    (run,) = [step["run"] for step in job["steps"] if "perfbench/run.py" in step.get("run", "")]
    assert "--workload ${{ matrix.workload }}" in run
    # Exit 1 is a correctness mismatch; the last line carries the verdict.
    assert "pipefail" in run
    assert "r['correct'] is True" in run and "r['failed'] == 0" in run
