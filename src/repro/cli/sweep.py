"""``repro sweep`` — drive a grid sweep from a declarative spec, resumably.

Loads a YAML/JSON sweep spec (:mod:`repro.experiments.spec`), opens the
output directory's resumable run store (``cells.jsonl``,
:mod:`repro.experiments.store`) and hands both to
:func:`~repro.experiments.runner.run_sweep`.  Every finished cell is
persisted the moment it completes, so a killed sweep rerun with
``--resume`` continues where it died and never recomputes a finished cell;
the merged records are bit-identical to one uninterrupted run (and to the
direct API call) for a fixed seed.

The output directory ends up with::

    spec.json     the resolved spec (always JSON, always re-loadable)
    cells.jsonl   the run store: header + one line per completed cell
    sweep.json    the merged SweepResult (settings + records, grid order)
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.cli.common import CLIError, add_backend_arguments, add_smoke_argument


def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "sweep",
        help="run a sweep grid from a YAML/JSON spec, with resumable state",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--spec", required=True,
                        help="path to the sweep spec (YAML or JSON)")
    parser.add_argument("-o", "--output", required=True,
                        help="output directory (created if needed)")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells already in the output's run store",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite a non-empty run store instead of refusing",
    )
    add_backend_arguments(parser)
    add_smoke_argument(parser)
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the progress/summary lines")
    parser.set_defaults(handler=cmd)
    return parser


def cmd(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_sweep
    from repro.experiments.serialization import save_sweep
    from repro.experiments.spec import SpecError, load_spec, save_spec
    from repro.experiments.store import StoreError, SweepCellStore

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise CLIError(str(exc)) from exc
    settings = spec.settings
    if args.smoke:
        settings = settings.smoke()
    if args.backend is not None:
        settings = settings.with_updates(backend=args.backend)
    if args.workers is not None:
        settings = settings.with_updates(max_workers=args.workers)
    spec = dataclasses.replace(spec, settings=settings)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        store = SweepCellStore(
            out_dir / "cells.jsonl",
            fingerprint=spec.fingerprint(),
            resume=args.resume,
            overwrite=args.force,
        )
    except StoreError as exc:
        raise CLIError(str(exc)) from exc
    # Only after the store accepted the spec: a refused invocation must not
    # rewrite the directory's provenance record out from under cells.jsonl.
    save_spec(spec, out_dir / "spec.json")

    n_stored = len(store)
    with store:
        sweep = run_sweep(
            settings,
            config_overrides=spec.config_overrides or None,
            dataset_kwargs=spec.dataset_kwargs or None,
            store=store,
        )
        n_total = len(sweep.records)
    save_sweep(sweep, out_dir / "sweep.json")

    if not args.quiet:
        print(
            f"sweep {spec.name!r}: {n_total} cells "
            f"({n_stored} reused, {n_total - n_stored} computed) -> {out_dir}",
            file=sys.stderr,
        )
        for mechanism in settings.mechanisms:
            mean_f1 = sweep.mean_metric("f1", mechanism=mechanism)
            print(f"  {mechanism}: mean F1 = {mean_f1:.3f}", file=sys.stderr)
    return 0
