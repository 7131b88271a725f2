"""``repro serve`` — stand up the aggregation service for streamed rounds.

Three modes:

* **raw rounds** (default): wraps
  :func:`repro.service.harness.serve_dataset` — an
  :class:`~repro.service.server.AggregationServer` plus one
  :class:`~repro.service.clients.ClientPool` per dataset party, streaming
  ``--rounds`` full frequency-oracle rounds over the length-``--level``
  prefix domain, printing exact per-round wire-bit accounting;
* **scenario lab** (``--scenario SPEC``): builds the declarative scenario
  (drift / bursts / churn / skew shift / poisoned reports — see
  ``docs/scenarios.md``), drives it through sliding-window discovery, and
  prints per-snapshot robustness metrics against the scenario's moving
  ground truth.  ``--store FILE`` persists one JSON line per snapshot
  (byte-identical across same-seed runs); ``repro bench pivot --from
  FILE`` re-renders the records;
* **network gateway** (``--listen HOST:PORT``): serves the wire protocol
  over TCP — an asyncio :class:`~repro.net.gateway.AggregationGateway`
  fronting one aggregation server on one thread, with credit-based
  backpressure and oversize-frame rejection.  Port 0 binds an ephemeral
  port; ``--ready-file FILE`` writes the bound ``host:port`` once listening
  (the scripting seam ``repro loadgen --connect`` pairs with).  The gateway runs until a
  client sends a shutdown frame (``repro loadgen --shutdown``) or Ctrl-C.
"""

from __future__ import annotations

import argparse

from repro.cli.common import (
    CLIError,
    add_dataset_arguments,
    add_logging_arguments,
    add_smoke_argument,
    build_gateway,
    emit_json,
    resolve_scale,
)


def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "serve",
        help="stream service rounds through a server + client pools",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_dataset_arguments(parser)
    parser.add_argument("--epsilon", type=float, default=4.0,
                        help="per-user privacy budget ε (default: 4.0)")
    parser.add_argument("--oracle", default="krr",
                        help="frequency oracle: krr/oue/olh (default: krr)")
    parser.add_argument("--level", type=int, default=6,
                        help="prefix length of the round's candidate domain (default: 6)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="rounds to stream per party (default: 1)")
    parser.add_argument("--batch-size", type=int, default=4096,
                        help="reports per wire batch (default: 4096)")
    parser.add_argument(
        "--users-per-round", type=int, default=None,
        help="sample this many reporting users per round "
             "(default: every user reports once)",
    )
    parser.add_argument("--top", type=int, default=10,
                        help="top prefixes to report per round (default: 10)")
    parser.add_argument("--rng", type=int, default=0,
                        help="seed for report perturbation (default: 0)")
    scenario = parser.add_argument_group("scenario lab")
    scenario.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="run a scenario-lab robustness pass from a scenario spec "
             "(YAML/JSON; standalone, or a sweep spec with a scenario: block) "
             "instead of raw rounds",
    )
    scenario.add_argument(
        "--granularity", type=int, default=4,
        help="trie levels of each discovery pass (scenario mode; default: 4)",
    )
    scenario.add_argument(
        "--window", type=int, default=None,
        help="override the spec's window_batches (scenario mode)",
    )
    scenario.add_argument(
        "--stride", type=int, default=None,
        help="override the spec's stride (scenario mode)",
    )
    scenario.add_argument(
        "--detection-recall", type=float, default=0.5,
        help="recall bar for drift re-detection (scenario mode; default: 0.5)",
    )
    scenario.add_argument(
        "--store", default=None, metavar="FILE",
        help="persist per-snapshot records to this JSON-lines store (scenario mode)",
    )
    scenario.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --store file",
    )
    scenario.add_argument(
        "--defense", default=None, metavar="KIND",
        help="robust shard-merge policy for the tracker's aggregation "
             "passes: trimmed/norm_bound (scenario mode; default: off)",
    )
    scenario.add_argument(
        "--defense-fraction", type=float, default=0.25,
        help="assumed corrupt fraction of wire batches for --defense "
             "(scenario mode; default: 0.25)",
    )
    scenario.add_argument(
        "--report-batch-size", type=int, default=None,
        help="reports per wire batch in the tracker's service passes — "
             "the defense's aggregation sources (scenario mode)",
    )
    listen = parser.add_argument_group("network gateway")
    listen.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the wire protocol over TCP instead of running rounds "
             "in-process (port 0 binds an ephemeral port)",
    )
    listen.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write the bound host:port to this file once listening "
             "(gateway mode; for scripts that need the ephemeral port)",
    )
    listen.add_argument(
        "--spec", default=None, metavar="FILE",
        help="loadgen spec whose gateway: section configures this gateway "
             "(gateway mode; explicit flags win)",
    )
    listen.add_argument(
        "--credits", type=int, default=None,
        help="per-connection in-flight report-batch budget (gateway mode)",
    )
    listen.add_argument(
        "--max-frame-bytes", type=int, default=None,
        help="largest accepted frame body; bigger frames are rejected "
             "unread (gateway mode)",
    )
    listen.add_argument(
        "--telemetry-sample", type=float, default=None,
        help="fraction of ingested batches whose latency the gateway "
             "times into its histogram (gateway mode; default: 0, off — "
             "counters always run)",
    )
    listen.add_argument(
        "--trace-log", default=None, metavar="FILE",
        help="append the gateway's finished trace spans to this JSONL "
             "file (gateway mode; default: off)",
    )
    add_logging_arguments(parser)
    add_smoke_argument(parser)
    parser.add_argument("-o", "--output", default=None,
                        help="also write the accounting/robustness report as JSON here")
    # The parser is the single source of truth for the mode-conflict
    # checks below: snapshot the defaults so cmd() can tell "explicitly
    # passed" from "untouched" without a second hardcoded table.
    parser.set_defaults(
        handler=cmd,
        parser_defaults={
            name: parser.get_default(name)
            for name in RAW_ONLY_FLAGS + SCENARIO_ONLY_FLAGS + LISTEN_ONLY_FLAGS
            + NOT_LISTEN_FLAGS
        },
    )
    return parser


#: Flags that only make sense for raw service rounds / only for scenario
#: runs.  The other mode rejects them instead of silently ignoring them;
#: defaults come from the parser itself (see ``add_parser``).
RAW_ONLY_FLAGS: tuple[str, ...] = (
    "dataset", "scale", "seed", "level", "rounds", "batch_size",
    "users_per_round", "top", "smoke",
)
SCENARIO_ONLY_FLAGS: tuple[str, ...] = (
    "granularity", "window", "stride", "detection_recall", "store", "force",
    "defense", "defense_fraction", "report_batch_size",
)
LISTEN_ONLY_FLAGS: tuple[str, ...] = (
    "ready_file", "spec", "credits", "max_frame_bytes", "telemetry_sample",
    "trace_log",
)
#: Flags shared by the raw and scenario modes that a gateway has no use
#: for (it learns oracle/budget from each broadcast and never perturbs).
NOT_LISTEN_FLAGS: tuple[str, ...] = ("epsilon", "oracle", "rng")


def _explicit_flags(args: argparse.Namespace, names: tuple[str, ...]) -> list[str]:
    """The flags in ``names`` whose values differ from the parser defaults."""
    return [
        "--" + name.replace("_", "-")
        for name in names
        if getattr(args, name) != args.parser_defaults[name]
    ]


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.spec import SpecError, load_scenario_spec
    from repro.experiments.store import ScenarioSnapshotStore, StoreError
    from repro.scenarios import run_scenario_spec

    conflicting = _explicit_flags(args, RAW_ONLY_FLAGS)
    if conflicting:
        raise CLIError(
            f"{', '.join(conflicting)}: raw-rounds-only flag(s); "
            "a scenario run is sized by its spec (override the tracker "
            "cadence with --window/--stride, the run seed with --rng)"
        )
    try:
        spec = load_scenario_spec(args.scenario)
    except SpecError as exc:
        raise CLIError(str(exc)) from exc
    store = None
    try:
        if args.store is not None:
            store = ScenarioSnapshotStore(
                args.store, fingerprint=spec.fingerprint(), overwrite=args.force
            )
        report = run_scenario_spec(
            spec,
            epsilon=args.epsilon,
            oracle=args.oracle,
            granularity=args.granularity,
            window_batches=args.window,
            stride=args.stride,
            seed=args.rng,
            store=store,
            detection_recall=args.detection_recall,
            defense=args.defense,
            defense_fraction=args.defense_fraction,
            report_batch_size=args.report_batch_size,
        )
    except (StoreError, ValueError) as exc:
        # A store that never received a record (the run failed before any
        # pass completed) must not block the corrected rerun with a
        # spurious "already exists".
        if store is not None and len(store) == 0:
            store.close()
            store.path.unlink(missing_ok=True)
        raise CLIError(str(exc)) from exc
    finally:
        if store is not None:
            store.close()
    print(report.render())
    if args.output is not None:
        emit_json(report.to_dict(), args.output)
    return 0


def _cmd_listen(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.net.client import parse_address
    from repro.net.gateway import AggregationGateway, run_gateway_forever

    conflicting = _explicit_flags(
        args, RAW_ONLY_FLAGS + SCENARIO_ONLY_FLAGS + NOT_LISTEN_FLAGS
    )
    if args.scenario is not None:
        conflicting.append("--scenario")
    if conflicting:
        raise CLIError(
            f"{', '.join(conflicting)}: not gateway-mode flag(s); a gateway "
            "learns oracle, budget and domain from each client's round "
            "broadcast — there is nothing to preconfigure"
        )
    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    kwargs: dict = {}
    if args.spec is not None:
        from repro.experiments.spec import SpecError, load_loadgen_spec

        try:
            kwargs = load_loadgen_spec(args.spec).gateway_kwargs()
        except SpecError as exc:
            raise CLIError(str(exc)) from exc
    for flag, keyword in (
        ("credits", "connection_credits"),
        ("max_frame_bytes", "max_frame_bytes"),
        ("telemetry_sample", "telemetry_sample"),
        ("trace_log", "trace_log"),
    ):
        if getattr(args, flag) is not None:
            kwargs[keyword] = getattr(args, flag)
    gateway = build_gateway(
        lambda: AggregationGateway(host=host, port=port, **kwargs),
        action="configure gateway",
    )

    from repro.obs.logs import get_logger

    log = get_logger("repro.cli.serve")

    def on_ready(address: str) -> None:
        log.info(f"gateway listening on {address}", address=address)
        if args.ready_file is not None:
            ready = Path(args.ready_file)
            ready.parent.mkdir(parents=True, exist_ok=True)
            ready.write_text(address + "\n", encoding="utf-8")

    try:
        run_gateway_forever(gateway, on_ready=on_ready)
    except OSError as exc:
        if not gateway.listening:  # port in use, permission denied, ...
            raise CLIError(f"cannot listen on {args.listen}: {exc}") from exc
        # Bound fine but failed while serving (e.g. an unwritable
        # --ready-file): do not misreport it as a bind failure.
        raise CLIError(f"gateway failed while serving: {exc}") from exc
    stats = gateway.stats()
    log.info(
        f"gateway stopped: {stats['rounds_opened']} rounds, "
        f"{stats['upload_bits'] / 8e3:.1f} kB uploaded, "
        f"{stats['connections_total']} connections",
        rounds_opened=stats["rounds_opened"],
        upload_bits=stats["upload_bits"],
        connections_total=stats["connections_total"],
    )
    if args.output is not None:
        emit_json(stats, args.output)
    return 0


def cmd(args: argparse.Namespace) -> int:
    if args.listen is not None:
        return _cmd_listen(args)
    listen_only = _explicit_flags(args, LISTEN_ONLY_FLAGS)
    if listen_only:
        raise CLIError(
            f"{', '.join(listen_only)}: gateway-only flag(s); "
            "pass --listen HOST:PORT to serve the network gateway"
        )
    if args.scenario is not None:
        return _cmd_scenario(args)
    ignored = _explicit_flags(args, SCENARIO_ONLY_FLAGS)
    if ignored:
        raise CLIError(
            f"{', '.join(ignored)}: scenario-only flag(s); "
            "pass --scenario SPEC to run the scenario lab"
        )
    from repro.datasets.registry import load_dataset
    from repro.service.harness import serve_dataset

    scale = resolve_scale(args)
    try:
        dataset = load_dataset(args.dataset, scale=scale, seed=args.seed)
    except KeyError as exc:
        raise CLIError(str(exc.args[0]) if exc.args else str(exc)) from exc
    try:
        report = serve_dataset(
            dataset,
            epsilon=args.epsilon,
            oracle=args.oracle,
            level=args.level,
            rounds=args.rounds,
            batch_size=args.batch_size,
            users_per_round=args.users_per_round,
            top=args.top,
            seed=args.rng,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    print(report.render())
    if args.output is not None:
        emit_json(report.to_dict(), args.output)
    return 0
