"""``repro cluster`` — launch and supervise a sharded gateway cluster.

Spawns ``--shards`` independent ``repro serve --listen`` shard processes
(:func:`repro.cluster.launcher.launch_cluster`), prints the comma-joined
cluster address (the one thing a client needs: ``repro loadgen --connect
HOST:P1,HOST:P2`` or ``MechanismConfig(gateway="HOST:P1,HOST:P2")``),
optionally writes it to ``--ready-file``, and supervises until every
shard exits — a remote ``repro loadgen --shutdown`` stops all shards
gracefully, as does Ctrl-C.

``--spec FILE`` reads a loadgen document whose ``cluster:`` section sizes
the topology and whose ``gateway:`` section configures every shard
(explicit flags win, the CLI-wide convention).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import (
    CLIError,
    add_logging_arguments,
    emit_json,
)


def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "cluster",
        help="launch and supervise N shard gateways behind one address",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard gateway processes to launch (default: 2)",
    )
    parser.add_argument(
        "--host", default=None,
        help="interface every shard binds, each on an ephemeral port "
             "(default: 127.0.0.1)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write the comma-joined cluster address to this file once "
             "every shard is listening (for scripts)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="loadgen spec whose cluster: section sizes the topology and "
             "whose gateway: section configures every shard; explicit "
             "flags win",
    )
    parser.add_argument(
        "--credits", type=int, default=None,
        help="per-connection in-flight report-batch budget of every shard",
    )
    parser.add_argument(
        "--max-frame-bytes", type=int, default=None,
        help="largest frame body each shard accepts",
    )
    add_logging_arguments(parser)
    parser.add_argument(
        "-o", "--output", default=None,
        help="also write the per-shard exit summary as JSON here",
    )
    parser.set_defaults(handler=cmd)
    return parser


def cmd(args: argparse.Namespace) -> int:
    from repro.cluster.launcher import LauncherError, launch_cluster
    from repro.experiments.spec import SpecError, load_loadgen_spec
    from repro.obs.logs import get_logger

    log = get_logger("repro.cli.cluster")

    n_shards, host, spec_path = 2, "127.0.0.1", None
    if args.spec is not None:
        try:
            spec = load_loadgen_spec(args.spec)
        except SpecError as exc:
            raise CLIError(str(exc)) from exc
        cluster_kwargs = spec.cluster_kwargs()
        n_shards = cluster_kwargs.get("n_shards", n_shards)
        host = cluster_kwargs.get("host", host)
        # Shards read the gateway: section themselves (serve --spec).
        spec_path = args.spec
    if args.shards is not None:
        if args.shards < 1:
            raise CLIError("--shards must be >= 1")
        n_shards = args.shards
    if args.host is not None:
        host = args.host

    try:
        handle = launch_cluster(
            n_shards,
            host=host,
            credits=args.credits,
            max_frame_bytes=args.max_frame_bytes,
            spec_path=spec_path,
        )
    except LauncherError as exc:
        raise CLIError(str(exc)) from exc

    with handle:
        log.info(
            f"cluster of {handle.n_shards} shards listening on {handle.address}",
            n_shards=handle.n_shards, address=handle.address,
        )
        for shard in handle.shards:
            log.info(
                f"  shard {shard.index}: {shard.address} (log: {shard.log_path})",
                shard=shard.index, address=shard.address,
            )
        if args.ready_file is not None:
            ready = Path(args.ready_file)
            ready.parent.mkdir(parents=True, exist_ok=True)
            ready.write_text(handle.address + "\n", encoding="utf-8")
        try:
            exit_codes = handle.wait()
        except KeyboardInterrupt:
            log.info("stopping cluster...")
            exit_codes = handle.shutdown()
    summary = {
        "n_shards": handle.n_shards,
        "addresses": handle.addresses,
        "exit_codes": exit_codes,
        "run_dir": str(handle.run_dir),
        "shards": handle.shutdown_record,
    }
    log.info(f"cluster stopped: exit codes {exit_codes}", exit_codes=exit_codes)
    if args.output is not None:
        emit_json(summary, args.output)
    return 0 if all(code == 0 for code in exit_codes) else 1
