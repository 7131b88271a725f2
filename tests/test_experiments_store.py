"""The resumable run store: persistence, resume semantics, bit-identity."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import ExperimentSettings, iter_cells, run_sweep
from repro.cli.bench import load_records
from repro.cli.common import CLIError
from repro.experiments.store import (
    SNAPSHOT_STORE_KIND,
    ScenarioSnapshotStore,
    StoreError,
    SweepCellStore,
    cell_key,
    read_store,
)


def smoke_settings(**updates) -> ExperimentSettings:
    base = ExperimentSettings().smoke().with_updates(
        repetitions=2, mechanisms=("fedpem", "taps")
    )
    return base.with_updates(**updates) if updates else base


def strip_runtime(records):
    """Drop the one wall-clock key; everything else must be bit-identical."""
    return [{k: v for k, v in r.items() if k != "runtime_seconds"} for r in records]


class TestStoreBasics:
    def test_append_then_reload(self, tmp_path):
        settings = smoke_settings()
        cells = list(iter_cells(settings))
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path, fingerprint="fp") as store:
            store.append(cells[0], {"f1": 0.5, "dataset": "rdb"})
            assert cells[0] in store and cells[1] not in store
        with SweepCellStore(path, fingerprint="fp", resume=True) as reloaded:
            assert len(reloaded) == 1
            assert reloaded.get(cells[0])["f1"] == 0.5

    def test_refuses_existing_without_resume(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        SweepCellStore(path).close()
        with pytest.raises(StoreError, match="resume"):
            SweepCellStore(path)

    def test_overwrite_truncates(self, tmp_path):
        settings = smoke_settings()
        cell = next(iter_cells(settings))
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path) as store:
            store.append(cell, {"f1": 1.0})
        with SweepCellStore(path, overwrite=True) as store:
            assert len(store) == 0

    def test_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        SweepCellStore(path, fingerprint="aaaa").close()
        with pytest.raises(StoreError, match="different sweep spec"):
            SweepCellStore(path, fingerprint="bbbb", resume=True)

    def test_partial_trailing_line_is_dropped(self, tmp_path):
        settings = smoke_settings()
        cell = next(iter_cells(settings))
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path, fingerprint="fp") as store:
            store.append(cell, {"f1": 1.0})
        with path.open("a") as handle:
            handle.write('{"key": ["rdb", "ta')  # mid-write kill
        with SweepCellStore(path, fingerprint="fp", resume=True) as store:
            assert len(store) == 1

    def test_appends_after_a_partial_line_do_not_glue(self, tmp_path):
        # A second kill+resume cycle must survive the first: the partial
        # fragment is truncated away on resume, so the next append starts
        # on its own line instead of corrupting the store.
        settings = smoke_settings()
        cells = list(iter_cells(settings))
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path, fingerprint="fp") as store:
            store.append(cells[0], {"f1": 1.0})
        with path.open("a") as handle:
            handle.write('{"key": ["rdb", "ta')  # kill #1, mid-write
        with SweepCellStore(path, fingerprint="fp", resume=True) as store:
            store.append(cells[1], {"f1": 0.5})  # the resumed run's work
        with SweepCellStore(path, fingerprint="fp", resume=True) as store:
            assert len(store) == 2  # kill #2: both cells load cleanly
            assert store.get(cells[1])["f1"] == 0.5

    def test_unterminated_but_parseable_tail_is_recomputed(self, tmp_path):
        # A tail with no newline is untrustworthy even if it parses: it may
        # be a complete record whose newline never hit disk.  Dropping it
        # (one cell recomputed) keeps the append path glue-free.
        settings = smoke_settings()
        cells = list(iter_cells(settings))
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path, fingerprint="fp") as store:
            store.append(cells[0], {"f1": 1.0})
            store.append(cells[1], {"f1": 0.5})
        with path.open("r+", encoding="utf-8") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            handle.truncate(size - 1)  # chop only the final newline
        with SweepCellStore(path, fingerprint="fp", resume=True) as store:
            assert cells[0] in store and cells[1] not in store

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        header = {"kind": "repro-sweep-cells", "version": 1, "fingerprint": None}
        path.write_text(
            json.dumps(header) + "\n" + "garbage\n" + json.dumps(header) + "\n"
        )
        with pytest.raises(StoreError, match="corrupt"):
            SweepCellStore(path, resume=True)

    def test_not_a_store_file(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        path.write_text('{"records": []}\n')
        with pytest.raises(StoreError, match="not a sweep cell store"):
            SweepCellStore(path, resume=True)


class TestOneStoreReader:
    """``read_store`` parses both store kinds, for the stores and for
    ``repro bench --from``."""

    def _stores(self, tmp_path):
        cells = list(iter_cells(smoke_settings()))[:2]
        cell_path = tmp_path / "cells.jsonl"
        with SweepCellStore(cell_path, fingerprint="fp") as store:
            for index, cell in enumerate(cells):
                store.append(cell, {"f1": index / 2})
        snapshot_path = tmp_path / "snapshots.jsonl"
        with ScenarioSnapshotStore(snapshot_path) as store:
            store.append({"step": 2, "f1": 1.0})
            store.append({"step": 4, "f1": 0.5})
        return cell_path, snapshot_path

    def test_both_kinds_drop_a_partial_tail_without_writing(self, tmp_path):
        for path in self._stores(tmp_path):
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"record": {"step": 6, "f1"')
            before = path.read_bytes()
            records = load_records(path)
            assert len(records) == 2 and records == read_store(path).entries
            assert path.read_bytes() == before  # re-rendering never writes
        assert ScenarioSnapshotStore.load(path) == [
            {"step": 2, "f1": 1.0},
            {"step": 4, "f1": 0.5},
        ]

    def test_a_header_only_store_has_no_records(self, tmp_path):
        cell_path = tmp_path / "cells.jsonl"
        SweepCellStore(cell_path).close()
        snapshot_path = tmp_path / "snapshots.jsonl"
        ScenarioSnapshotStore(snapshot_path).close()
        assert load_records(cell_path) == [] == load_records(snapshot_path)
        assert ScenarioSnapshotStore.load(snapshot_path) == []

    def test_earlier_corruption_raises(self, tmp_path):
        for path in self._stores(tmp_path):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text(lines[0] + "garbage\n" + "".join(lines[1:]))
            with pytest.raises(StoreError, match=":2: corrupt"):
                read_store(path)
            with pytest.raises(CLIError, match="corrupt"):
                load_records(path)

    def test_a_kind_filter_refuses_the_other_kind(self, tmp_path):
        cell_path, _ = self._stores(tmp_path)
        with pytest.raises(StoreError, match="not a scenario snapshot store"):
            read_store(cell_path, kinds=(SNAPSHOT_STORE_KIND,))
        with pytest.raises(StoreError, match="snapshot store"):
            ScenarioSnapshotStore.load(cell_path)


class TestResumeSemantics:
    def test_fresh_store_run_matches_plain_run(self, tmp_path):
        settings = smoke_settings()
        plain = run_sweep(settings)
        with SweepCellStore(tmp_path / "cells.jsonl") as store:
            stored = run_sweep(settings, store=store)
            assert len(store) == len(plain.records)
        assert strip_runtime(stored.records) == strip_runtime(plain.records)

    def test_resume_skips_completed_cells(self, tmp_path):
        settings = smoke_settings()
        cells = list(iter_cells(settings))
        full = run_sweep(settings)

        # Simulate a sweep killed halfway: persist only the first half of
        # the grid (with sentinel runtimes proving those cells are reused).
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path) as store:
            for cell, record in zip(cells[:2], full.records[:2]):
                store.append(cell, {**record, "runtime_seconds": -1.0})

        with SweepCellStore(path, resume=True) as store:
            resumed = run_sweep(settings, store=store)
            assert len(store) == len(cells)

        # The first half came from the store (sentinel intact = not rerun),
        # and the merged records equal the uninterrupted run bit-for-bit
        # modulo wall-clock.
        assert [r["runtime_seconds"] for r in resumed.records[:2]] == [-1.0, -1.0]
        assert strip_runtime(resumed.records) == strip_runtime(full.records)

    def test_store_runs_are_identical_across_backends(self, tmp_path):
        settings = smoke_settings()
        with SweepCellStore(tmp_path / "serial.jsonl") as store:
            serial = run_sweep(settings, store=store)
        with SweepCellStore(tmp_path / "thread.jsonl") as store:
            threaded = run_sweep(settings, backend="thread", max_workers=2, store=store)
        assert strip_runtime(serial.records) == strip_runtime(threaded.records)

    def test_thread_backend_resume_round_trip(self, tmp_path):
        settings = smoke_settings()
        full = run_sweep(settings)
        cells = list(iter_cells(settings))
        path = tmp_path / "cells.jsonl"
        with SweepCellStore(path) as store:
            store.append(cells[0], full.records[0])
        with SweepCellStore(path, resume=True) as store:
            resumed = run_sweep(settings, backend="thread", max_workers=2, store=store)
        assert strip_runtime(resumed.records) == strip_runtime(full.records)

    def test_cell_keys_are_unique_across_the_grid(self):
        settings = smoke_settings().with_updates(
            epsilons=(2.0, 4.0), ks=(5, 10), repetitions=2
        )
        cells = list(iter_cells(settings))
        keys = {cell_key(c) for c in cells}
        assert len(keys) == len(cells)
