"""The resumable run store: completed sweep cells as append-only JSON lines.

Long sweeps die — machines reboot, jobs get preempted, grids get killed at
80%.  A :class:`SweepCellStore` makes the grid restartable at cell
granularity: every finished cell is appended (and flushed) as one JSON line
the moment it completes, and a resumed sweep skips every cell whose key is
already on disk.  Because each cell's record is a pure function of its
:func:`~repro.experiments.runner.cell_seed`-fixed spec, the merged result of
*any* interleaving of partial runs is bit-identical to one uninterrupted
run (``tests/test_experiments_store.py`` pins this down).

File layout — line 1 is a header, every further line one completed cell::

    {"kind": "repro-sweep-cells", "version": 1, "fingerprint": "ab12..."}
    {"key": ["rdb", "taps", 4.0, 10, 0, 2525], "record": {...}}

The key is ``(dataset, mechanism, epsilon, k, repetition, cell_seed)`` —
the full cell identity (the seed alone is shared by cells that differ only
in dataset/ε/k).  The ``fingerprint`` ties the store to the sweep spec that
produced it; resuming under a different spec raises :class:`StoreError`
instead of silently mixing grids.  A partial trailing line (the footprint
of a mid-write kill) is truncated away on resume — that one cell is simply
recomputed, and subsequent appends start cleanly on their own line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.runner import SweepCell

#: Header sentinel of a cell-store file.
STORE_KIND = "repro-sweep-cells"
STORE_VERSION = 1

#: Type of a cell key: (dataset, mechanism, epsilon, k, repetition, seed).
CellKey = tuple


class StoreError(RuntimeError):
    """A cell store cannot be (re)opened as requested."""


def cell_key(cell: SweepCell) -> CellKey:
    """The identity of one sweep cell, JSON-round-trip safe."""
    return (
        str(cell.dataset),
        str(cell.mechanism),
        float(cell.epsilon),
        int(cell.k),
        int(cell.repetition),
        int(cell.seed),
    )


def _key_from_json(raw) -> CellKey:
    dataset, mechanism, epsilon, k, repetition, seed = raw
    return (str(dataset), str(mechanism), float(epsilon), int(k), int(repetition), int(seed))


#: Header sentinel of a scenario snapshot store.
SNAPSHOT_STORE_KIND = "repro-scenario-snapshots"
SNAPSHOT_STORE_VERSION = 1

#: What each JSON-lines store kind is called in error messages.
_STORE_NAMES = {
    STORE_KIND: "sweep cell store",
    SNAPSHOT_STORE_KIND: "scenario snapshot store",
}


@dataclass(frozen=True)
class StoreContents:
    """A JSON-lines store as :func:`read_store` found it on disk."""

    header: dict
    #: ``parse(entry)`` of every intact entry line, in file order.
    entries: list
    #: Byte length of the header plus every intact entry line: where a
    #: partial or unparsable last line starts, or the file's size.
    valid_bytes: int


def _entry_record(entry) -> dict:
    return dict(entry["record"])


def read_store(
    path: str | Path,
    *,
    kinds: tuple[str, ...] = tuple(_STORE_NAMES),
    parse=_entry_record,
) -> StoreContents:
    """Read a JSON-lines store (either kind) without opening it for writing.

    Line 1 is the header, whose ``kind`` must be one of ``kinds``; every
    further non-blank line is one JSON entry, turned into ``parse(entry)``
    (default: its ``record``).  Only newline-terminated lines count: an
    unterminated tail, or a final line that does not parse — the footprint
    of a mid-write kill — is dropped, and corruption on any earlier line
    raises :class:`StoreError`.

    Reads bytes and splits on ``\\n`` only (stores are written with
    ``newline="\\n"`` on every platform), so ``valid_bytes`` is an exact
    on-disk offset: universal-newline translation would silently shift it.
    """
    path = Path(path)
    text = path.read_bytes().decode("utf-8")
    complete = text[: text.rfind("\n") + 1]
    lines = complete.split("\n")[:-1] if complete else []
    if not lines:
        raise StoreError(f"{path}: unreadable store header (incomplete write)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise StoreError(f"{path}: unreadable store header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") not in kinds:
        raise StoreError(
            f"{path} is not a {' or '.join(_STORE_NAMES[kind] for kind in kinds)} "
            f"(missing {' or '.join(repr(kind) for kind in kinds)} header)"
        )
    entries = []
    keep_chars = len(lines[0]) + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            try:
                entries.append(parse(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                if lineno == len(lines):
                    break  # mid-write kill: drop the fragment
                raise StoreError(f"{path}:{lineno}: corrupt store entry")
        keep_chars += len(line) + 1
    return StoreContents(header, entries, len(complete[:keep_chars].encode("utf-8")))


class SweepCellStore:
    """Append-only store of completed sweep-cell records.

    Parameters
    ----------
    path:
        The JSON-lines file.  Parent directories are created.
    fingerprint:
        Spec fingerprint stamped into the header (see
        :meth:`~repro.experiments.spec.SweepSpec.fingerprint`).  ``None``
        skips the compatibility check on resume.
    resume:
        ``True`` loads the existing cells (if any) and appends to the file;
        ``False`` refuses to open a file that already holds cells — pass
        ``overwrite=True`` to truncate it instead.
    overwrite:
        With ``resume=False``, truncate an existing non-empty store.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fingerprint: str | None = None,
        resume: bool = False,
        overwrite: bool = False,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._records: dict[CellKey, dict] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        exists = self.path.exists() and self.path.stat().st_size > 0
        if exists and resume:
            keep_bytes = self._load_existing()
            # Truncate away a partial/corrupt tail *before* appending, so
            # the next record starts on its own line.  Without this, the
            # first append after a mid-write kill would glue onto the
            # fragment and corrupt the store for every later resume.
            if keep_bytes < self.path.stat().st_size:
                with self.path.open("r+b") as handle:
                    handle.truncate(keep_bytes)
            self._handle = self.path.open("a", encoding="utf-8", newline="\n")
        else:
            if exists and not overwrite:
                raise StoreError(
                    f"run store {self.path} already exists; resume it "
                    "(resume=True / --resume) or overwrite it "
                    "(overwrite=True / --force)"
                )
            self._handle = self.path.open("w", encoding="utf-8", newline="\n")
            self._write_line(
                {
                    "kind": STORE_KIND,
                    "version": STORE_VERSION,
                    "fingerprint": fingerprint,
                }
            )

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def _load_existing(self) -> int:
        """Load the stored cells; return the byte length of the valid prefix.

        A partial or unparsable last line is excluded from the returned
        length so the caller can truncate it away; its cell is simply
        recomputed (:func:`read_store`).
        """
        contents = read_store(
            self.path,
            kinds=(STORE_KIND,),
            parse=lambda entry: (_key_from_json(entry["key"]), dict(entry["record"])),
        )
        stored = contents.header.get("fingerprint")
        if self.fingerprint is not None and stored is not None and stored != self.fingerprint:
            raise StoreError(
                f"{self.path} was written for a different sweep spec "
                f"(store fingerprint {stored}, spec fingerprint "
                f"{self.fingerprint}); refusing to mix grids — use a fresh "
                "output directory or rerun with the original spec"
            )
        self._records.update(contents.entries)
        return contents.valid_bytes

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def append(self, cell: SweepCell, record: dict) -> None:
        """Persist one completed cell (flushed immediately — kill-safe)."""
        key = cell_key(cell)
        self._records[key] = dict(record)
        self._write_line({"key": list(key), "record": dict(record)})

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __contains__(self, cell: SweepCell) -> bool:
        return cell_key(cell) in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, cell: SweepCell) -> dict:
        """The stored record of ``cell`` (KeyError if not yet computed)."""
        return dict(self._records[cell_key(cell)])

    def close(self) -> None:
        """Flush and close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepCellStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepCellStore(path={str(self.path)!r}, cells={len(self)})"


class ScenarioSnapshotStore:
    """Append-only store of per-snapshot scenario robustness records.

    The scenario-lab sibling of :class:`SweepCellStore`: ``repro serve
    --scenario --store FILE`` appends (and flushes) one JSON line per
    discovery snapshot the moment its pass completes, under a header that
    carries the scenario spec's fingerprint.  Records hold no wall-clock
    values, so two same-seed runs write byte-identical stores — the
    scenario lab's reproducibility check is ``cmp run-a.jsonl run-b.jsonl``.

    File layout::

        {"kind": "repro-scenario-snapshots", "version": 1, "fingerprint": "ab12..."}
        {"record": {"step": 4, "precision": 1.0, "recall": 1.0, ...}}

    ``repro bench pivot --from FILE`` renders these files directly (the
    loader understands both JSON-lines store kinds).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fingerprint: str | None = None,
        overwrite: bool = False,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._records: list[dict] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not overwrite and self.path.exists() and self.path.stat().st_size > 0:
            raise StoreError(
                f"snapshot store {self.path} already exists; pass "
                "overwrite=True (or --force) to replace it"
            )
        self._handle = self.path.open("w", encoding="utf-8", newline="\n")
        self._write_line(
            {
                "kind": SNAPSHOT_STORE_KIND,
                "version": SNAPSHOT_STORE_VERSION,
                "fingerprint": fingerprint,
            }
        )

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def append(self, record: dict) -> None:
        """Persist one snapshot record (flushed immediately — kill-safe)."""
        self._records.append(dict(record))
        self._write_line({"record": dict(record)})

    def records(self) -> list[dict]:
        """The records appended so far, in snapshot order."""
        return [dict(r) for r in self._records]

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def load(path: str | Path) -> list[dict]:
        """Read a snapshot store back into its record list.

        A partial trailing line (mid-write kill) is dropped, like the cell
        store's resume path; corruption earlier raises (:func:`read_store`).
        """
        return read_store(path, kinds=(SNAPSHOT_STORE_KIND,)).entries

    def close(self) -> None:
        """Flush and close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ScenarioSnapshotStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScenarioSnapshotStore(path={str(self.path)!r}, snapshots={len(self)})"
