"""Shared plumbing for the ``repro`` subcommands: errors, output, parsers."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.engine import available_backends


class CLIError(Exception):
    """A user-facing failure: printed to stderr, exit status 2, no traceback."""


def emit_json(payload: Any, output: str | Path | None, *, quiet: bool = False) -> None:
    """Write a JSON document to ``output`` (``None``/``-`` → stdout)."""
    from repro.experiments.serialization import _to_jsonable

    text = json.dumps(_to_jsonable(payload), indent=2, sort_keys=True)
    if output is None or str(output) == "-":
        print(text)
        return
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    if not quiet:
        print(f"wrote {path}", file=sys.stderr)


def build_gateway(factory, *, action: str):
    """Run a gateway-constructing callable, mapping bad config to CLIError.

    Shared by ``serve --listen`` and ``loadgen`` (self-hosting): a spec's
    ``gateway:`` section can carry values the constructor refuses (say,
    ``connection_credits: 0``), which must exit cleanly, not with a
    traceback.
    """
    try:
        return factory()
    except (KeyError, TypeError, ValueError) as exc:
        message = str(exc.args[0]) if exc.args else str(exc)
        raise CLIError(f"cannot {action}: {message}") from exc


def add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    """``--dataset/--scale/--seed``: how every subcommand names its data."""
    parser.add_argument(
        "--dataset", default="rdb",
        help="dataset name from the registry (default: rdb)",
    )
    parser.add_argument(
        "--scale", default=None,
        help="dataset scale preset: tiny/small/medium/large/paper "
             "(default: small; --smoke: the canonical smoke scale)",
    )
    parser.add_argument(
        "--seed", type=int, default=2025,
        help="dataset/base seed (default: 2025)",
    )


def add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """``--backend/--workers``: execution-engine knobs."""
    parser.add_argument(
        "--backend", choices=sorted(available_backends()), default=None,
        help="execution backend (default: whatever the settings/spec say)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the parallel backends",
    )


def add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """``--log-level/--log-json``: the structured-logging seam.

    Defaults reproduce the historical output byte for byte: ``info``
    records print their bare message to stdout, warnings and errors go
    to stderr.  ``--log-json`` switches every record to one canonical
    JSON line on stderr.
    """
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum level of emitted log records (default: info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines on stderr instead of human text",
    )


def add_smoke_argument(parser: argparse.ArgumentParser) -> None:
    """``--smoke``: the canonical tiny preset (SMOKE_PRESET), used by CI."""
    parser.add_argument(
        "--smoke", action="store_true",
        help="run at the canonical smoke scale (tiny datasets, one repetition); "
             "explicit flags still win over the preset",
    )


def resolve_scale(args: argparse.Namespace, default: str = "small") -> str:
    """The dataset scale: explicit ``--scale`` > ``--smoke`` preset > default."""
    from repro.experiments.runner import SMOKE_PRESET

    if args.scale is not None:
        return args.scale
    return str(SMOKE_PRESET["scale"]) if getattr(args, "smoke", False) else default
