"""The cluster launcher's run directory: removed after a clean stop, kept as
evidence when the caller owns it or a shard failed."""

from __future__ import annotations

import tempfile

import pytest

from repro.cluster.launcher import launch_cluster


@pytest.fixture
def temp_root(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory the test can list."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def test_clean_launch_and_shutdown_leaves_no_directory(temp_root):
    handle = launch_cluster(1)
    assert handle.run_dir.parent == temp_root
    assert handle.run_dir.is_dir()
    assert handle.shutdown() == [0]
    assert list(temp_root.iterdir()) == []


def test_caller_run_dir_is_kept(temp_root, tmp_path):
    run_dir = tmp_path / "run"
    with launch_cluster(1, run_dir=run_dir) as handle:
        pass
    assert handle.shutdown() == [0]
    assert (run_dir / "shard-0.log").is_file()
    assert list(temp_root.iterdir()) == []


def test_failed_shard_keeps_its_log(temp_root):
    handle = launch_cluster(1)
    handle.shards[0].process.kill()
    handle.shards[0].process.wait(timeout=10)
    assert handle.shutdown() != [0]
    assert (handle.run_dir / "shard-0.log").is_file()
