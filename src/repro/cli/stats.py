"""``repro stats`` — scrape a live gateway's metrics over the wire.

``repro stats HOST:PORT`` asks a listening gateway for its metrics
document (the wire protocol's ``metrics`` control op, answered with a
``FRAME_STATS`` frame), schema-validates it, and prints a human summary;
``--json`` / ``-o FILE`` emit the raw document instead.  A
comma-separated address scrapes a whole cluster.  Either way the
document is the cluster one (``source: "cluster"``): every shard's
document under ``shards`` — a single gateway is a one-shard cluster, its
document ``shards[0]`` — each validated.  The top-level ``metrics`` is
the registry of the connection that made the scrape, so its
``cluster_*`` counters are all 0; the human summary leaves it out.

Scraping is read-only and safe mid-round: the gateway serialises the
snapshot through the same single-worker accumulator that applies batches,
so a scrape never tears a half-applied round — and never perturbs one
(``tests/test_obs_telemetry.py`` pins bit-identity under scraping).
"""

from __future__ import annotations

import argparse

from repro.cli.common import CLIError, add_logging_arguments, emit_json


def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "stats",
        help="scrape metrics from a live gateway or cluster",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "address",
        help="HOST:PORT of a listening gateway, or a comma-separated "
             "shard list to scrape a whole cluster",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="socket timeout in seconds (default: 10)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw metrics document as JSON instead of a summary",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the raw metrics document as JSON here",
    )
    add_logging_arguments(parser)
    parser.set_defaults(handler=cmd)
    return parser


def _render_document(document: dict, *, indent: str = "") -> list[str]:
    """Human lines for one metrics document: counters, gauges, histograms."""
    from repro.obs.registry import histogram_quantile

    lines = [f"{indent}{document['source']} metrics ({document['schema']})"]
    metrics = document["metrics"]
    for key, value in metrics["counters"].items():
        lines.append(f"{indent}  {key} {value}")
    for key, value in metrics["gauges"].items():
        lines.append(f"{indent}  {key} {value:g}")
    for key, hist in metrics["histograms"].items():
        p50 = histogram_quantile(hist, 0.50)
        p99 = histogram_quantile(hist, 0.99)
        lines.append(
            f"{indent}  {key} count={hist['count']} "
            f"p50~{p50:.3g} p99~{p99:.3g} max={hist['max']}"
        )
    return lines


def cmd(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import ClusterConnection
    from repro.obs.registry import validate_metrics_document
    from repro.service.server import ServiceError

    address = str(args.address)
    try:
        with ClusterConnection(address, timeout=args.timeout) as conn:
            document = conn.metrics()
    except ServiceError as exc:
        raise CLIError(f"cannot scrape {address}: {exc}") from exc

    try:
        validate_metrics_document(document)
        for shard_document in document.get("shards", []):
            validate_metrics_document(shard_document)
    except ValueError as exc:
        raise CLIError(f"{address} returned an invalid metrics document: {exc}") from exc

    if args.json or args.output is not None:
        emit_json(document, args.output)
        return 0
    shard_documents = document.get("shards", [])
    lines = [f"cluster of {len(shard_documents)} shard(s) ({document['schema']})"]
    for shard_document in shard_documents:
        lines.extend(_render_document(shard_document, indent="  "))
    print("\n".join(lines))
    return 0
