"""``repro loadgen`` — drive simulated client load against a gateway.

Streams full frequency-oracle rounds from N concurrent client pools
(:func:`repro.net.loadgen.run_loadgen`) and prints throughput and batch
latency percentiles with exact wire-bit accounting:

* ``--connect HOST:PORT`` targets an already-running gateway
  (``repro serve --listen``); without it, the command **self-hosts** an
  in-process gateway on an ephemeral port — the one-command smoke path
  CI uses (``repro loadgen --smoke``);
* workloads come from a registry dataset (``--dataset/--scale``) or a
  scenario-lab spec (``--scenario``), whose arrival stream every
  connection replays;
* ``--spec FILE`` reads a declarative loadgen document
  (:class:`~repro.experiments.spec.LoadgenSpec`: ``gateway:`` /
  ``workload:`` / ``load:`` sections); explicit flags still win over the
  spec, mirroring ``--smoke`` semantics elsewhere.
"""

from __future__ import annotations

import argparse

from repro.core.config import DEFAULT_REPORT_BATCH_SIZE

from repro.cli.common import (
    CLIError,
    add_backend_arguments,
    add_dataset_arguments,
    add_logging_arguments,
    add_smoke_argument,
    build_gateway,
    emit_json,
    resolve_scale,
)

#: CLI flag → (:func:`run_loadgen` keyword, built-in default).  The
#: parser defaults every one of these flags to ``None`` so "explicitly
#: passed" is distinguishable from "untouched" — an explicit flag always
#: wins, even when its value equals the built-in default — then
#: resolution falls back spec value (via
#: :meth:`~repro.experiments.spec.LoadgenSpec.loadgen_kwargs`, the one
#: spec→keyword mapping) → built-in default.  ``scale``/``smoke``
#: resolve through :func:`resolve_scale` and are handled separately.
_FLAG_PARAMS: tuple[tuple[str, str, object], ...] = (
    ("dataset", "dataset", "rdb"),
    ("seed", "dataset_seed", 2025),
    ("oracle", "oracle", "krr"),
    ("epsilon", "epsilon", 4.0),
    ("level", "level", 6),
    ("rounds", "rounds", 1),
    ("batch_size", "batch_size", DEFAULT_REPORT_BATCH_SIZE),
    ("users_per_round", "users_per_round", None),
    ("connections", "connections", 2),
    ("backend", "backend", None),
    ("workers", "max_workers", None),
    ("rng", "seed", 0),
    ("retries", "retries", 0),
    ("timeout", "timeout", 120.0),
    ("telemetry", "telemetry", False),
    ("trace_log", "trace_log", None),
)


def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "loadgen",
        help="drive multiprocess client load against an aggregation gateway",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="target a running gateway; a comma-separated list targets a "
             "shard cluster (repro cluster), batches sent round-robin "
             "(default: self-host one gateway in-process "
             "on an ephemeral port)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="loadgen spec (YAML/JSON: gateway/workload/load sections); "
             "explicit flags win over the spec",
    )
    add_dataset_arguments(parser)
    parser.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="replay this scenario spec's arrival stream instead of a dataset",
    )
    parser.add_argument("--oracle", default=None,
                        help="frequency oracle: krr/oue/olh (default: krr)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="per-user privacy budget ε (default: 4.0)")
    parser.add_argument("--level", type=int, default=None,
                        help="prefix length of each round's domain, capped at "
                             "the workload's n_bits (default: 6)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds each connection streams (default: 1)")
    parser.add_argument("--connections", type=int, default=None,
                        help="concurrent client pools (default: 2)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="reports per wire batch (default: the service-wide "
                             f"report batch bound, {DEFAULT_REPORT_BATCH_SIZE})")
    parser.add_argument(
        "--users-per-round", type=int, default=None,
        help="sample this many reporting users per round "
             "(default: every pool user reports once)",
    )
    parser.add_argument("--rng", type=int, default=None,
                        help="run seed for report perturbation (default: 0)")
    parser.add_argument(
        "--faults", default=None, metavar="FILE",
        help="chaos mode: fault profile or chain (YAML/JSON, see "
             "docs/faults.md) applied by a fault proxy in front of every "
             "shard gateway; wins over a spec's faults block",
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help="per-round retry budget for fault-shaped failures; a round "
             "that fails is replayed from its own seed on a fresh "
             "connection (default: 0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="socket timeout in seconds — the bound on any single stall, "
             "so chaos runs (--faults) fail over to their retries fast "
             "(default: 120)",
    )
    parser.add_argument(
        "--telemetry", action="store_const", const=True, default=None,
        help="collect an obs-layer metrics picture of the run (worker "
             "coordinator counters, fault-proxy actions, and the "
             "gateway's wire-scraped registry) into the report",
    )
    parser.add_argument(
        "--trace-log", default=None, metavar="FILE",
        help="append every client-side trace span (client.round / "
             "client.batch / cluster.merge_barrier) to this JSONL file, "
             "with the trace context stamped on outgoing frames",
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="send the gateway a shutdown frame after the run "
             "(for scripted --connect runs; self-hosted gateways always stop)",
    )
    add_backend_arguments(parser)
    add_logging_arguments(parser)
    add_smoke_argument(parser)
    parser.add_argument("-o", "--output", default=None,
                        help="also write the measurement report as JSON here")
    # The shared dataset flags carry their own defaults; neutralise them so
    # "explicitly passed" stays detectable (the built-ins live in
    # _FLAG_PARAMS and the help text above).
    parser.set_defaults(handler=cmd, dataset=None, seed=None)
    return parser


def _resolve_params(args: argparse.Namespace, spec) -> dict:
    """Resolve run_loadgen keywords: explicit flag > spec value > built-in."""
    spec_kwargs = spec.loadgen_kwargs() if spec is not None else {}
    spec_kwargs.pop("scenario", None)  # handled by cmd(), --scenario wins
    spec_scale = spec_kwargs.pop("scale", None)
    params: dict = dict(spec_kwargs)
    for flag, keyword, default in _FLAG_PARAMS:
        value = getattr(args, flag)
        if value is not None:
            params[keyword] = value
        elif keyword not in params:
            params[keyword] = default
    # Scale resolves through the smoke preset; a spec value only applies
    # when neither --scale nor --smoke was passed.
    if args.scale is None and not args.smoke and spec_scale is not None:
        params["scale"] = spec_scale
    else:
        params["scale"] = resolve_scale(args)
    if params["backend"] is None:
        params["backend"] = "thread"
    return params


def cmd(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import ClusterConnection
    from repro.experiments.spec import SpecError, load_loadgen_spec, load_scenario_spec
    from repro.net import run_loadgen, start_gateway
    from repro.service.server import ServiceError

    spec = None
    if args.spec is not None:
        try:
            spec = load_loadgen_spec(args.spec)
        except SpecError as exc:
            raise CLIError(str(exc)) from exc
    params = _resolve_params(args, spec)
    if args.faults is not None:
        from repro.faults.profile import FaultSpecError, load_fault_profile

        try:
            params["faults"] = load_fault_profile(args.faults)
        except FaultSpecError as exc:
            raise CLIError(str(exc)) from exc
    scenario = spec.scenario if spec is not None else None
    if args.scenario is not None:
        try:
            scenario = load_scenario_spec(args.scenario)
        except SpecError as exc:
            raise CLIError(str(exc)) from exc
    if scenario is not None:
        # Reject explicit dataset flags instead of silently ignoring them
        # (the CLI-wide convention); spec-sourced dataset values merely
        # lose to the spec's own scenario block.
        conflicting = [
            flag
            for flag, value in (
                ("--dataset", args.dataset),
                ("--scale", args.scale),
                ("--seed", args.seed),
            )
            if value is not None
        ]
        if conflicting:
            raise CLIError(
                f"{', '.join(conflicting)}: dataset-workload flag(s); a "
                "scenario run replays the scenario spec's arrival stream"
            )
        params["scenario"] = scenario
        for dataset_key in ("dataset", "scale", "dataset_seed"):
            params.pop(dataset_key, None)

    handle = None
    try:
        if args.connect is None:
            gateway_kwargs = spec.gateway_kwargs() if spec is not None else {}
            handle = build_gateway(
                lambda: start_gateway(**gateway_kwargs), action="start gateway"
            )
            address = handle.address
        else:
            address = args.connect
        try:
            report = run_loadgen(address, **params)
        except (ValueError, KeyError, ConnectionError, OSError, ServiceError) as exc:
            # ServiceError (a RuntimeError): gateway-side failures shipped
            # back as structured error frames must exit like every other
            # user-facing failure, not as a traceback.
            raise CLIError(str(exc)) from exc
        if args.shutdown and args.connect is not None:
            try:
                with ClusterConnection(address) as connection:
                    connection.shutdown_cluster()
            except Exception as exc:  # noqa: BLE001 - refusal/odd reply
                # A gateway already gone is the goal state.  A refused
                # shutdown must not discard the completed measurement:
                # warn and fall through to the report.
                if not (
                    isinstance(exc, ServiceError) and exc.code == "shard_unavailable"
                ):
                    from repro.obs.logs import get_logger

                    get_logger("repro.cli.loadgen").warning(
                        f"repro: warning: gateway did not shut down: {exc}"
                    )
    finally:
        if handle is not None:
            handle.close()
    print(report.render())
    if args.output is not None:
        emit_json(report.to_dict(), args.output)
    return 0
