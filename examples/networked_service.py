"""Serve the aggregation protocol over TCP and hammer it with clients.

Run with::

    PYTHONPATH=src python examples/networked_service.py           # full load
    PYTHONPATH=src python examples/networked_service.py --smoke   # CI scale

Three acts:

1. **Bit-identity** — the same fixed-seed TAP discovery runs once with
   in-process service execution and once over a live localhost gateway
   (:func:`repro.net.run_over_network`); the heavy hitters, the estimates
   *and the exact wire-bit totals* must match — the network layer adds
   transport, never semantics.
2. **Load generation** — :func:`repro.net.run_loadgen` drives concurrent
   client pools against the gateway and reports throughput plus batch
   latency percentiles.
3. **Backpressure on display** — the same load through a deliberately
   tiny credit budget: everything still completes, just slower, because
   clients block on acknowledgements instead of overwhelming the server.
"""

from __future__ import annotations

import argparse

from repro.core.config import MechanismConfig
from repro.core.tap import TAPMechanism
from repro.datasets.registry import load_dataset
from repro.experiments import SMOKE_PRESET
from repro.net import run_loadgen, run_over_network, start_gateway
from repro.service.server import run_in_service_mode


def bit_identity_act(scale: str, seed: int) -> None:
    dataset = load_dataset("rdb", scale=scale, seed=seed)
    config = MechanismConfig(
        k=int(SMOKE_PRESET["ks"][0]),
        epsilon=float(SMOKE_PRESET["epsilons"][0]),
        n_bits=dataset.n_bits,
        granularity=5,
        simulation_mode="per_user",
        report_batch_size=512,
    )
    mechanism = TAPMechanism(config)
    print(f"running TAP twice on rdb/{scale} (seed {seed}) ...")
    service = run_in_service_mode(mechanism, dataset, rng=seed)
    with start_gateway() as handle:
        network = run_over_network(mechanism, dataset, handle.address, rng=seed)

    assert network.heavy_hitters == service.heavy_hitters
    assert network.estimated_counts == service.estimated_counts
    assert (
        network.transcript.bits_by_kind() == service.transcript.bits_by_kind()
    )
    bits = network.transcript.bits_by_kind()
    print(f"  top-{config.k} (both runs): {network.heavy_hitters}")
    print(
        f"  wire bits (both runs): report batches "
        f"{bits['report_batch']:,}, round opens "
        f"{bits['service_round_open']:,}"
    )
    print("  in-memory service run and networked run are bit-identical.")


def loadgen_act(scale: str, connections: int, credits: int | None = None) -> None:
    kwargs = {}
    label = "load generation"
    if credits is not None:
        kwargs["connection_credits"] = credits
        label = f"backpressure (credits={credits})"
    print(f"\n--- {label} ---")
    with start_gateway(**kwargs) as handle:
        report = run_loadgen(
            handle.address,
            dataset="rdb",
            scale=scale,
            level=6,
            rounds=2,
            batch_size=1024,
            connections=connections,
            backend="thread",
            seed=7,
        )
        print(report.render())
    assert report.gateway is not None
    assert report.gateway["upload_bits"] == report.upload_bits
    print(
        f"  gateway cross-check: accounted exactly "
        f"{report.upload_bits / 8e3:.1f} kB of uploads, "
        f"{report.gateway['frames_rejected']} frames rejected"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run at the canonical smoke scale (used by CI)")
    args = parser.parse_args()
    scale = str(SMOKE_PRESET["scale"]) if args.smoke else "small"
    connections = 2 if args.smoke else 4
    bit_identity_act(scale, seed=2025)
    loadgen_act(scale, connections)
    loadgen_act(scale, connections, credits=1)


if __name__ == "__main__":
    main()
