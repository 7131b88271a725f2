"""Spawn and supervise N shard gateway processes.

:func:`launch_cluster` starts ``n_shards`` independent ``repro serve
--listen`` processes (each a real :class:`~repro.net.gateway.
AggregationGateway` on an ephemeral port), waits for every shard's
ready-file to announce its bound address, and returns a
:class:`ClusterHandle` — the supervisor: liveness checks, the
comma-joined cluster address every cluster entry point takes, and
graceful shutdown (protocol ``shutdown`` frames first, escalating to
``terminate``/``kill`` only for shards that stopped answering).

The shards are plain ``repro serve`` processes on purpose: a cluster is
N single gateways plus a coordinator, nothing more — every shard can be
driven, inspected, or shut down individually with the existing tools.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import repro


class LauncherError(RuntimeError):
    """A shard process failed to start, announce itself, or stop."""


def _tail(path: Path, n_lines: int = 12) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError:
        return "<no log>"
    return "\n".join(lines[-n_lines:]) or "<empty log>"


@dataclass
class ShardProcess:
    """One supervised shard gateway."""

    index: int
    process: subprocess.Popen
    address: str
    log_path: Path


class ClusterHandle:
    """Supervisor for a launched shard cluster (context manager)."""

    def __init__(
        self, shards: list[ShardProcess], run_dir: Path, *, owns_run_dir: bool
    ):
        self.shards = shards
        self.run_dir = run_dir
        #: True when :func:`launch_cluster` made ``run_dir`` itself; only
        #: then does a clean :meth:`shutdown` remove it.
        self.owns_run_dir = owns_run_dir
        self._exit_codes: list[int] | None = None
        #: Per-shard structured teardown records, populated by
        #: :meth:`shutdown`: exit code, how the shard went down, and —
        #: for shards that died early or dirtily — the tail of their log.
        self.shutdown_record: list[dict] | None = None

    @property
    def addresses(self) -> list[str]:
        return [shard.address for shard in self.shards]

    @property
    def address(self) -> str:
        """The comma-joined cluster address (what ``--connect`` takes)."""
        return ",".join(self.addresses)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def alive(self) -> list[bool]:
        return [shard.process.poll() is None for shard in self.shards]

    def wait(self, timeout: float | None = None, poll: float = 0.2) -> list[int]:
        """Block until every shard exits (e.g. after a remote shutdown)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while any(self.alive()):
            if deadline is not None and time.monotonic() > deadline:
                raise LauncherError(
                    f"shards still running after {timeout}s: "
                    f"{[s.index for s in self.shards if s.process.poll() is None]}"
                )
            time.sleep(poll)
        return [shard.process.returncode for shard in self.shards]

    def shutdown(self, timeout: float = 10.0) -> list[int]:
        """Stop every shard, gracefully first; returns exit codes.

        Graceful means the wire protocol's ``shutdown`` op (the gateway
        answers ``bye``, drains, and exits 0); a shard that no longer
        answers is terminated, then killed.  Idempotent.

        Every shard's fate lands in :attr:`shutdown_record`: a shard that
        had *already* died is not silently reaped — its record says so
        (``"already_exited": true``) and carries the tail of its log, and
        a structured warning is emitted for it.

        A run directory the launcher created is removed once every shard
        exited 0.  One the caller passed, or one holding the log of a shard
        that failed, is kept.
        """
        if self._exit_codes is not None:
            return self._exit_codes
        from repro.net.client import GatewayConnection
        from repro.obs.logs import get_logger

        log = get_logger("repro.cluster").bind(run_dir=str(self.run_dir))
        records = [
            {
                "shard": shard.index,
                "address": shard.address,
                "already_exited": shard.process.poll() is not None,
                "graceful": False,
                "escalation": "none",
            }
            for shard in self.shards
        ]
        for shard, record in zip(self.shards, records):
            if record["already_exited"]:
                continue
            try:
                with GatewayConnection(shard.address, timeout=timeout) as conn:
                    conn.shutdown_gateway()
                record["graceful"] = True
            except Exception:
                # Transport death or a refused shutdown: escalate below.
                pass
        deadline = time.monotonic() + timeout
        for shard, record in zip(self.shards, records):
            remaining = max(0.1, deadline - time.monotonic())
            try:
                shard.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                record["escalation"] = "terminate"
                shard.process.terminate()
                try:
                    shard.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                    record["escalation"] = "kill"
                    shard.process.kill()
                    shard.process.wait()
        for shard, record in zip(self.shards, records):
            record["exit_code"] = shard.process.returncode
            # A shard that had already exited *cleanly* (a remote
            # ``shutdown`` op) is a normal teardown; only a non-zero code
            # marks a shard that died on us.
            if record["exit_code"] != 0:
                record["log_tail"] = _tail(shard.log_path)
                log.warning(
                    f"shard {shard.index} "
                    + ("died early" if record["already_exited"] else "exited dirty")
                    + f" (code {record['exit_code']}); log tail:\n"
                    + record["log_tail"],
                    shard=shard.index,
                    exit_code=record["exit_code"],
                    already_exited=record["already_exited"],
                )
            else:
                log.debug(
                    f"shard {shard.index} stopped cleanly",
                    shard=shard.index,
                    graceful=record["graceful"],
                )
        self.shutdown_record = records
        self._exit_codes = [record["exit_code"] for record in records]
        if self.owns_run_dir and all(code == 0 for code in self._exit_codes):
            shutil.rmtree(self.run_dir, ignore_errors=True)
        return self._exit_codes

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _shard_command(
    host: str,
    ready_file: Path,
    *,
    credits: int | None,
    max_frame_bytes: int | None,
    spec_path: str | None,
) -> list[str]:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--listen",
        f"{host}:0",
        "--ready-file",
        str(ready_file),
    ]
    if spec_path is not None:
        command += ["--spec", str(spec_path)]
    if credits is not None:
        command += ["--credits", str(credits)]
    if max_frame_bytes is not None:
        command += ["--max-frame-bytes", str(max_frame_bytes)]
    return command


def launch_cluster(
    n_shards: int,
    *,
    host: str = "127.0.0.1",
    credits: int | None = None,
    max_frame_bytes: int | None = None,
    spec_path: str | None = None,
    run_dir: str | Path | None = None,
    ready_timeout: float = 60.0,
) -> ClusterHandle:
    """Start ``n_shards`` shard gateways; block until all announce ready.

    Each shard binds an ephemeral port and writes it to a per-shard
    ready-file under ``run_dir`` (a fresh temporary directory by
    default, which also collects per-shard logs and which a clean
    :meth:`ClusterHandle.shutdown` removes).  On any failure —
    a shard dying before it binds, or the ready deadline passing —
    already-started shards are shut down before the
    :class:`LauncherError` propagates, so a failed launch never leaks
    processes.
    """
    if int(n_shards) < 1:
        raise LauncherError(f"n_shards must be >= 1, got {n_shards}")
    owns_run_dir = run_dir is None
    if owns_run_dir:
        run_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
    else:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)

    # Children must import repro even when the repo runs uninstalled
    # (PYTHONPATH=src): put this package's parent on their path.
    env = os.environ.copy()
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )

    shards: list[ShardProcess] = []
    logs: list = []
    handle = ClusterHandle(shards, run_dir, owns_run_dir=owns_run_dir)
    try:
        ready_files = []
        for index in range(int(n_shards)):
            ready = run_dir / f"shard-{index}.addr"
            ready.unlink(missing_ok=True)
            log_path = run_dir / f"shard-{index}.log"
            log = open(log_path, "w", encoding="utf-8")
            logs.append(log)
            process = subprocess.Popen(
                _shard_command(
                    host,
                    ready,
                    credits=credits,
                    max_frame_bytes=max_frame_bytes,
                    spec_path=spec_path,
                ),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
            shards.append(
                ShardProcess(index=index, process=process, address="", log_path=log_path)
            )
            ready_files.append(ready)

        deadline = time.monotonic() + float(ready_timeout)
        while True:
            for shard, ready in zip(shards, ready_files):
                if shard.address:
                    continue
                if shard.process.poll() is not None:
                    raise LauncherError(
                        f"shard {shard.index} exited with code "
                        f"{shard.process.returncode} before binding; log tail:\n"
                        f"{_tail(shard.log_path)}"
                    )
                if ready.exists():
                    address = ready.read_text(encoding="utf-8").strip()
                    if address:
                        shard.address = address
            if all(shard.address for shard in shards):
                break
            if time.monotonic() > deadline:
                pending = [s.index for s in shards if not s.address]
                raise LauncherError(
                    f"shards {pending} not ready after {ready_timeout}s"
                )
            time.sleep(0.05)
    except BaseException:
        # The logs of a failed launch are its evidence: keep them.
        handle.owns_run_dir = False
        handle.shutdown()
        raise
    finally:
        for log in logs:
            log.close()
    return handle
