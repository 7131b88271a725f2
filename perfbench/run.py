"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {discovery,ingest,rounds} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of the untraced timed window.
``--trace 1`` runs the same window, then replays its units with spans
recorded and prints the per-layer metrics (span data goes to
``.perfbench/``).  The line before the result records where each process
ran and how loaded the machine was.  The exit code is non-zero when an
output of the program is wrong; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from pathlib import Path

from procs import THREAD_ENV

# Before numpy loads: one BLAS thread in this process too.
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "discovery_s": "s",
    "f1": "ratio",
    "upload_bytes_per_report": "B",
    "reports_per_s": "1/s",
    "rounds_per_s": "1/s",
    "client_rss_mb": "MB",
    "server_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "ldp.decode_s": "s",
    "ldp.perturb_s": "s",
    "ldp.account_s": "s",
    "ldp.reports": "count",
    "core.estimate_s": "s",
    "core.extension_s": "s",
    "core.prune_s": "s",
    "core.rounds": "count",
    "core.candidates": "count",
    "core.prune_keep_ratio": "ratio",
    "trie.domain_s": "s",
    "service.encode_s": "s",
    "service.ingest_s": "s",
    "service.finalize_s": "s",
    "service.batches": "count",
    "net.send_s": "s",
    "net.credit_stall_s": "s",
    "net.ack_p50_ms": "ms",
    "net.ack_p99_ms": "ms",
    "net.bytes_up": "B",
    "net.client_busy": "ratio",
    "net.gateway_busy": "ratio",
    "net.open_round_ms": "ms",
    "net.finalize_ms": "ms",
    "net.gateway_batches": "count",
    "net.gateway_errors": "count",
    "cluster.route_s": "s",
    "cluster.merge_barrier_ms": "ms",
    "cluster.export_bytes": "B",
    "cli.import_s": "s",
    "cli.serve_ready_s": "s",
    "obs.trace_overhead": "ratio",
}


def layer_metrics(workload, window, recorder, overhead: float) -> dict:
    """Fold spans, counters and probes into the per-layer metrics."""
    from procs import timed_child
    from workloads import CLI_PROBES

    self_s = recorder.self_seconds()
    counts = recorder.counts
    proposed = counts["core.prune_proposed"]
    values = {
        "ldp.decode_s": self_s["ldp.decode"],
        "ldp.perturb_s": self_s["ldp.perturb"],
        "ldp.account_s": self_s["ldp.account"],
        "ldp.reports": counts["ldp.reports"],
        "core.estimate_s": self_s["core.estimate"],
        "core.extension_s": self_s["core.extension"],
        "core.prune_s": self_s["core.prune"],
        "core.rounds": counts["core.rounds"],
        "core.candidates": counts["core.candidates"],
        "core.prune_keep_ratio": counts["core.prune_kept"] / proposed if proposed else 0.0,
        "trie.domain_s": self_s["trie.domain"],
        "service.encode_s": self_s["service.encode"],
        "service.ingest_s": self_s["service.ingest"],
        "service.finalize_s": self_s["service.finalize"],
        "service.batches": counts["service.batches"],
        "net.send_s": self_s["net.send"],
        "net.credit_stall_s": counts["net.credit_stall_s"],
        "net.ack_p50_ms": 0.0,
        "net.ack_p99_ms": 0.0,
        "net.bytes_up": counts["net.bytes_up"],
        "net.gateway_busy": 0.0,
        "net.open_round_ms": recorder.p50_ms("net.open_round"),
        "net.finalize_ms": recorder.p50_ms("net.finalize"),
        "net.gateway_batches": 0,
        "net.gateway_errors": 0,
        "cluster.route_s": self_s["cluster.route"],
        "cluster.merge_barrier_ms": recorder.p50_ms("cluster.merge_barrier"),
        "cluster.export_bytes": counts["cluster.export_bytes"],
        "cli.import_s": statistics.median(
            timed_child(workload.placement, "import repro") for _ in range(CLI_PROBES)
        ),
        "cli.serve_ready_s": statistics.median(workload.gateway_ready_times()),
        "obs.trace_overhead": overhead,
    }
    # Counts and shares read without spans come from the untraced window.
    values.update(window.layer)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def run(workload, seconds: float, trace: bool) -> dict:
    from spans import Recorder

    from procs import write_json_lines
    from workloads import COLD_STARTS_AFTER, CheckFailed

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        workload.setup()
        workload.check()
        workload.reset_peak_rss()
        window = workload.measure(seconds)
        workload.setup_times += [workload.cold_start() for _ in range(COLD_STARTS_AFTER)]
        if trace:
            recorder = Recorder()
            # After a failed operation the window's units cannot be redone.
            overhead = workload.replay(window, recorder) if not workload.ledger.failed else 0.0
            write_json_lines(
                OUT_DIR / f"spans-{workload.name}-{workload.seed}.jsonl", recorder.records()
            )
            metrics = layer_metrics(workload, window, recorder, overhead)
        else:
            values = dict(window.metrics)
            values["setup_s"] = statistics.median(workload.setup_times)
            values["ok_ratio"] = workload.ledger.ok_ratio()
            # A metric that needs a completed unit is absent when none did.
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
                if name in values
            }
        result["metrics"] = metrics
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        result["correct"] = False
    result["attempted"] = workload.ledger.attempted
    result["failed"] = workload.ledger.failed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("discovery", "ingest", "rounds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from procs import Placement, loadavg
    from workloads import WORKLOADS

    # A terminated run still stops its gateway (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    placement = Placement.pin(ROOT, OUT_DIR)
    record = {"workload": args.workload, "seed": args.seed, "loadavg_start": loadavg()}
    record.update(placement.record())
    workload = WORKLOADS[args.workload](args.seed, placement)
    try:
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    record["loadavg_end"] = loadavg()
    print("placement " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
