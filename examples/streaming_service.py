"""Stream one million users through the online aggregation service.

Run with::

    PYTHONPATH=src python examples/streaming_service.py           # 1M users
    PYTHONPATH=src python examples/streaming_service.py --smoke   # CI scale

The batch simulations materialise every report of a level at once, so the
population is capped by an ``(n_users, domain_size)`` matrix in RAM.  In
service mode the same TAP protocol runs as a message pipeline instead:
:func:`~repro.service.clients.iter_perturbed_batches` emits privatized report
batches of bounded size, the :class:`~repro.service.server.AggregationServer` folds
them into ``O(domain_size)`` shards, and the transcript records the exact
bytes every batch put on the wire.  Peak report-buffer memory is
``batch_size`` reports — never the full population — which is what lets a
laptop serve 1 000 000 users.

A second act feeds a drifting stream through the sliding-window tracker to
show continual heavy-hitter discovery on top of the same service.
"""

from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from repro.core.config import MechanismConfig
from repro.core.tap import TAPMechanism
from repro.datasets.registry import SCALES
from repro.datasets.synthetic import make_syn
from repro.experiments import SMOKE_PRESET
from repro.metrics.scores import f1_score
from repro.service.streaming import SlidingWindowDiscovery

N_USERS = 1_000_000
BATCH_SIZE = 65_536
#: --smoke: the canonical smoke preset's user reduction applied to this
#: example's hand-built population, with a batch size small enough that the
#: run still crosses several wire batches (a pure memory knob).
SMOKE_USERS = int(N_USERS * SCALES[SMOKE_PRESET["scale"]].users_multiplier)
SMOKE_BATCH_SIZE = 8_192


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def service_run(n_users: int, batch_size: int) -> None:
    print(f"generating a {n_users:,}-user SYN population ...")
    dataset = make_syn(total_users=n_users, n_items=2_000, n_bits=12, rng=7)
    print(f"dataset: {dataset.n_parties} parties, {dataset.total_users:,} users")

    # k-RR keeps every report a single index — the service streams batches
    # of at most batch_size of them, so nothing (n_users × domain_size)
    # sized ever exists.  The same config with execution_mode="memory"
    # would be bit-identical for this seed (given equal batching) but
    # perturb each level's group in one shot.
    config = MechanismConfig(
        k=10,
        epsilon=4.0,
        n_bits=dataset.n_bits,
        granularity=6,
        oracle="krr",
        execution_mode="service",
        simulation_mode="per_user",
        report_batch_size=batch_size,
    )

    start = time.perf_counter()
    result = TAPMechanism(config).run(dataset, rng=0)
    elapsed = time.perf_counter() - start

    truth = dataset.true_top_k(config.k)
    print(f"\nservice-mode TAP finished in {elapsed:.1f}s "
          f"(peak RSS {peak_rss_mb():.0f} MiB)")
    print(f"estimated federated top-{config.k}: {result.heavy_hitters}")
    print(f"exact federated top-{config.k}:     {truth}")
    print(f"F1 = {f1_score(result.heavy_hitters, truth):.3f}")

    by_kind = result.transcript.bits_by_kind()
    batches = result.transcript.messages_of_kind("report_batch")
    print(f"\nwire accounting ({result.transcript.n_messages()} messages):")
    print(f"  report batches: {len(batches)} x <= {batch_size:,} reports, "
          f"{by_kind['report_batch'] / 8e6:.2f} MB uploaded")
    print(f"  round broadcasts: {by_kind['service_round_open'] / 8e3:.1f} kB")
    print(f"  total upload: {result.upload_bits() / 8e6:.2f} MB, "
          f"total both ways: {result.communication_bits() / 8e6:.2f} MB")


def streaming_run(n_steps: int = 12) -> None:
    print("\n--- continual tracking over a drifting stream ---")
    config = MechanismConfig(
        k=5, epsilon=5.0, n_bits=10, granularity=5,
        oracle="krr", simulation_mode="per_user",
    )
    tracker = SlidingWindowDiscovery(config, window_batches=4, stride=2, rng=11)
    rng = np.random.default_rng(3)
    for step in range(n_steps):
        # The dominant item flips from 37 to 805 halfway through the stream.
        hot = 37 if step < 6 else 805
        batch = np.concatenate(
            [np.full(3_000, hot), rng.integers(0, 1 << 10, size=1_500)]
        )
        snapshot = tracker.push(batch)
        if snapshot is not None:
            print(f"  step {snapshot.step:2d}: window={snapshot.n_users:,} users, "
                  f"top={list(snapshot.heavy_hitters[:3])}, "
                  f"upload={snapshot.upload_bits / 8e3:.0f} kB")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run at the canonical smoke scale (used by CI)")
    args = parser.parse_args()
    if args.smoke:
        service_run(SMOKE_USERS, SMOKE_BATCH_SIZE)
        streaming_run(n_steps=6)
    else:
        service_run(N_USERS, BATCH_SIZE)
        streaming_run()


if __name__ == "__main__":
    main()
