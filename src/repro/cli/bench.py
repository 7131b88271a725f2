"""``repro bench`` — render paper tables/figures, from scratch or from disk.

Two modes per target (``table2`` … ``table8``, ``figure4`` … ``figure7``):

* **compute** (default): run the corresponding
  :mod:`repro.experiments.tables` / :mod:`repro.experiments.figures`
  function at the selected scale, print the rendered text, and persist
  ``<target>.json`` (records + settings + text) under ``--output``;
* **re-render** (``--from FILE``): load previously persisted records and
  re-render the table/figure *without recomputing anything* — works on
  ``repro bench`` artifacts and on ``repro sweep``/``save_sweep`` outputs
  alike (any JSON document with a ``records`` array).

``repro bench pivot --from sweep.json --rows dataset --cols mechanism
--value f1`` re-renders arbitrary persisted records as an ad-hoc pivot.

This command reproduces the paper's results; it times nothing.  Speed is
measured by ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.cli.common import CLIError, add_smoke_argument, emit_json
from repro.experiments.reporting import format_series, records_to_table, series_by_epsilon
from repro.utils.tables import TextTable

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentSettings


# --------------------------------------------------------------------------- #
# Re-rendering recipes (records -> text, no recomputation)
# --------------------------------------------------------------------------- #
def _listing(records: Sequence[Mapping], *, title: str) -> str:
    """Render tidy records verbatim: one row per record, one column per key."""
    if not records:
        return f"{title}: no records"
    columns = list(records[0])
    table = TextTable(columns)
    for rec in records:
        table.add_row([rec.get(col, "-") for col in columns])
    return table.render(title=title)


def _pivot(
    records: Sequence[Mapping],
    *,
    title: str,
    rows: str | Sequence[str],
    columns: str,
    value: str,
) -> str:
    """Pivot records into a table, composing multi-key row labels."""
    if not records:
        return f"{title}: no records"
    row_keys = [rows] if isinstance(rows, str) else list(rows)
    missing = [k for k in (*row_keys, columns, value) if k not in records[0]]
    if missing:
        raise CLIError(
            f"records have no {missing} key(s); available: {sorted(records[0])}"
        )
    if len(row_keys) > 1:
        rows = "/".join(row_keys)
        records = [
            {**rec, rows: " ".join(f"{rec[k]}" for k in row_keys)}
            for rec in records
        ]
    else:
        rows = row_keys[0]
    return records_to_table(records, rows=rows, columns=columns, value=value).render(
        title=title
    )


def _figure_text(
    records: Sequence[Mapping],
    *,
    title: str,
    value: str,
    value_name: str,
    panel_keys: Sequence[str] = ("dataset", "k"),
) -> str:
    """Re-render figure panels: one ε-series block per panel key combination."""
    panels: dict[tuple, list[Mapping]] = {}
    for rec in records:
        panels.setdefault(tuple(rec.get(k) for k in panel_keys), []).append(rec)
    blocks = []
    for panel, subset in sorted(panels.items(), key=lambda kv: str(kv[0])):
        label = " ".join(f"{k}={v}" for k, v in zip(panel_keys, panel))
        blocks.append(
            format_series(
                series_by_epsilon(subset, value=value),
                title=f"{title}: {label}",
                value_name=value_name,
            )
        )
    return "\n\n".join(blocks)


@dataclass(frozen=True)
class BenchTarget:
    """One renderable table/figure: how to compute it and how to re-render it.

    ``name`` is also the :mod:`repro.experiments` function that computes
    it, resolved only when the target runs: listing or re-rendering
    targets never loads the experiments stack.
    """

    name: str
    render: Callable[[Sequence[Mapping]], str]
    description: str

    def compute(self, settings: ExperimentSettings) -> object:
        """The target's table/figure function, run at ``settings``."""
        from repro import experiments

        return getattr(experiments, self.name)(settings)


TARGETS: dict[str, BenchTarget] = {
    t.name: t
    for t in (
        BenchTarget(
            "table2",
            lambda r: _listing(r, title="Table 2"),
            "dataset inventory (parties, users, items)",
        ),
        BenchTarget(
            "table3",
            lambda r: _pivot(r, title="Table 3", rows=("dataset", "step_size"),
                             columns="mechanism", value="f1"),
            "F1 vs step size ⌊m/g⌋",
        ),
        BenchTarget(
            "table4",
            lambda r: _pivot(r, title="Table 4 (F1)", rows=("user_fraction", "n_users"),
                             columns="mechanism", value="f1")
            + "\n\n"
            + _pivot(r, title="Table 4 (communication bits)",
                     rows=("user_fraction", "n_users"),
                     columns="mechanism", value="communication_bits"),
            "scalability on UBA (F1, communication, runtime)",
        ),
        BenchTarget(
            "table5",
            lambda r: _pivot(r, title="Table 5", rows="dataset",
                             columns="variant", value="f1"),
            "fixed vs adaptive extension",
        ),
        BenchTarget(
            "table6",
            lambda r: _pivot(r, title="Table 6", rows="dataset",
                             columns="shared_trie", value="f1"),
            "shared shallow trie ablation",
        ),
        BenchTarget(
            "table7",
            lambda r: _listing(r, title="Table 7"),
            "statistical heterogeneity (average local recall)",
        ),
        BenchTarget(
            "table8",
            lambda r: _pivot(r, title="Table 8", rows="beta",
                             columns="mechanism", value="f1"),
            "data heterogeneity (Dirichlet β) on SYN",
        ),
        BenchTarget(
            "figure4",
            lambda r: _figure_text(r, title="Figure 4", value="f1", value_name="F1"),
            "F1 vs ε for k ∈ {10, 20, 40}",
        ),
        BenchTarget(
            "figure5",
            lambda r: _figure_text(r, title="Figure 5", value="ncr", value_name="NCR"),
            "NCR vs ε for k ∈ {10, 20, 40}",
        ),
        BenchTarget(
            "figure6",
            lambda r: _figure_text(r, title="Figure 6", value="f1", value_name="F1",
                                   panel_keys=("dataset", "oracle")),
            "F1 vs ε under the OUE/OLH oracles",
        ),
        BenchTarget(
            "figure7",
            lambda r: _figure_text(r, title="Figure 7", value="f1", value_name="F1"),
            "TAPS vs TAP (consensus pruning ablation)",
        ),
    )
}


# --------------------------------------------------------------------------- #
# Command
# --------------------------------------------------------------------------- #
def add_parser(subparsers) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        "bench",
        help="render a paper table/figure (compute, or re-render from disk)",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target", nargs="?", choices=sorted(TARGETS) + ["pivot"],
        help="table/figure to render, or 'pivot' for an ad-hoc re-render",
    )
    parser.add_argument("--list", action="store_true", dest="list_targets",
                        help="list the available targets and exit")
    parser.add_argument(
        "--from", dest="from_file", default=None,
        help="re-render from this persisted records file instead of computing",
    )
    parser.add_argument("--scale", default=None,
                        help="dataset scale when computing (default: small; "
                             "--smoke: the canonical smoke scale)")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="repetitions per cell when computing (default: 1)")
    parser.add_argument("--seed", type=int, default=2025,
                        help="base seed when computing (default: 2025)")
    add_smoke_argument(parser)
    parser.add_argument("-o", "--output", default=None,
                        help="directory for the persisted <target>.json artifact")
    parser.add_argument("--rows", default="dataset", help="pivot row key (pivot mode)")
    parser.add_argument("--cols", default="mechanism", help="pivot column key (pivot mode)")
    parser.add_argument("--value", default="f1", help="pivot value key (pivot mode)")
    parser.set_defaults(handler=cmd)
    return parser


#: JSON-lines store headers the record loader understands.
_STORE_KINDS = ("repro-sweep-cells", "repro-scenario-snapshots")


def _records_from_store(path: Path, text: str) -> list[dict]:
    """Records from a JSON-lines store (sweep cells / scenario snapshots).

    Snapshot stores are parsed by their own loader
    (:meth:`~repro.experiments.store.ScenarioSnapshotStore.load`); the
    cell-store branch mirrors its semantics — tolerate a partial trailing
    line (the footprint of a mid-write kill), raise on corruption
    anywhere earlier — without opening the store for append (re-rendering
    must never mutate the file).
    """
    from repro.experiments.store import (
        SNAPSHOT_STORE_KIND,
        ScenarioSnapshotStore,
        StoreError,
    )

    lines = text.splitlines()
    try:
        header = json.loads(lines[0]) if lines else None
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or header.get("kind") not in _STORE_KINDS:
        raise CLIError(
            f"{path} holds neither a JSON record array, a document with a "
            "'records' array, nor a known JSON-lines run store"
        )
    if header.get("kind") == SNAPSHOT_STORE_KIND:
        try:
            return ScenarioSnapshotStore.load(path)
        except StoreError as exc:
            raise CLIError(str(exc)) from exc
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(dict(json.loads(line)["record"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if lineno == len(lines):
                break
            raise CLIError(f"{path}:{lineno}: corrupt store entry") from exc
    return records


def load_records(path: str | Path) -> list[dict]:
    """Records from any persisted artifact.

    Understands bench/sweep JSON documents (a ``records`` array), raw
    JSON record arrays, and the JSON-lines run stores (``cells.jsonl``
    written by ``repro sweep``, snapshot stores written by
    ``repro serve --scenario --store``).
    """
    path = Path(path)
    if not path.exists():
        raise CLIError(f"records file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return _records_from_store(path, text)
    if isinstance(data, list):
        return [dict(r) for r in data]
    if isinstance(data, dict) and isinstance(data.get("records"), list):
        return [dict(r) for r in data["records"]]
    if isinstance(data, dict) and data.get("kind") in _STORE_KINDS:
        return []  # a store holding its header only: valid, no records yet
    raise CLIError(
        f"{path} holds neither a JSON record array nor a document with a "
        "'records' array"
    )


def cmd(args: argparse.Namespace) -> int:
    if args.list_targets:
        for name in sorted(TARGETS):
            print(f"{name:10s} {TARGETS[name].description}")
        return 0
    if args.target is None:
        raise CLIError("no target given (use --list to see the choices)")

    if args.target == "pivot":
        if args.from_file is None:
            raise CLIError("'pivot' re-renders persisted records; pass --from FILE")
        records = load_records(args.from_file)
        print(_pivot(records, title=f"pivot of {args.from_file}",
                     rows=args.rows, columns=args.cols, value=args.value))
        return 0

    target = TARGETS[args.target]
    if args.from_file is not None:
        records = load_records(args.from_file)
        print(target.render(records))
        return 0

    from repro.experiments.runner import ExperimentSettings

    settings = ExperimentSettings(seed=args.seed, granularity=6, repetitions=1)
    if args.smoke:
        settings = settings.smoke()
    # Explicit flags win over both the defaults and the smoke preset.
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.repetitions is not None:
        overrides["repetitions"] = args.repetitions
    if overrides:
        settings = settings.with_updates(**overrides)
    result = target.compute(settings)
    print(result.text)
    if args.output is not None:
        out_dir = Path(args.output)
        payload = {
            "target": args.target,
            "settings": settings.to_dict(),
            "records": result.records,
            "text": result.text,
        }
        emit_json(payload, out_dir / f"{args.target}.json")
    return 0
