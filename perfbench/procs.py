"""Process placement and the processes the benchmark starts.

Every process runs with one BLAS thread and is pinned to one core: the
benchmark (load-generating) process to the first core it may use, every
process it spawns (the ``repro serve --listen`` gateway, cold-start and
import probes) to the second.  Unpinned, the scheduler migrates the two
busy processes across the two cores of a small runner and networked
throughput depends on where they happened to land.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment every benchmark process runs with: one BLAS thread (an
#: idle ``import repro`` otherwise starts extra BLAS threads).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
_LIBC.prctl.restype = ctypes.c_int
_PR_SET_PDEATHSIG = 1


@dataclass
class Placement:
    """Which core each process runs on, and the paths children need."""

    bench_core: int
    peer_core: int
    allowed_cores: int
    root: Path
    out_dir: Path

    @classmethod
    def pin(cls, root: Path, out_dir: Path) -> "Placement":
        """Pin this process to its core and pick the core for children."""
        cores = sorted(os.sched_getaffinity(0))
        bench = cores[0]
        peer = cores[1] if len(cores) > 1 else cores[0]
        os.sched_setaffinity(0, {bench})
        out_dir.mkdir(parents=True, exist_ok=True)
        return cls(bench, peer, len(cores), root, out_dir)

    def child_env(self) -> dict:
        src = str(self.root / "src")
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
        return env

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        """Start a child pinned to the peer core (all its threads inherit it).

        The child is killed if this process dies first, so a benchmark that
        is itself killed leaves no gateway behind.
        """
        core = self.peer_core

        def prepare() -> None:
            os.sched_setaffinity(0, {core})
            _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)

        return subprocess.Popen(
            argv, env=self.child_env(), cwd=str(self.root), preexec_fn=prepare, **kwargs
        )

    def record(self) -> dict:
        """The placement and environment record printed with every result."""
        import numpy

        return {
            "bench_core": self.bench_core,
            "peer_core": self.peer_core,
            "nproc": os.cpu_count(),
            "allowed_cores": self.allowed_cores,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }


def loadavg() -> list[float]:
    """The 1/5/15-minute load averages (a noisy neighbour shows here)."""
    return [float(x) for x in os.getloadavg()]


def _status_kb(pid: int | str, key: str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return float(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def reset_peak_rss(pid: int | str = "self") -> None:
    """Lower a live process's ``VmHWM`` to its current RSS (Linux >= 4.0).

    Called before a timed window, so that the peak read after it belongs
    to the window and not to the set-up or the correctness checks.
    """
    Path(f"/proc/{pid}/clear_refs").write_text("5")


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds a process (all its threads) has used."""
    if pid == "self":
        t = os.times()
        return t.user + t.system
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _wait_ready_file(proc: subprocess.Popen, path: Path) -> str:
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"gateway exited with code {proc.returncode} before ready")
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            text = ""
        if text.endswith("\n"):
            return text.strip()
        time.sleep(0.001)
    raise TimeoutError(f"gateway not ready after {READY_TIMEOUT_S} s")


class Gateway:
    """One ``repro serve --listen`` subprocess, from spawn to shutdown."""

    _count = 0

    def __init__(self, placement: Placement):
        Gateway._count += 1
        ready = placement.out_dir / f"gateway-{os.getpid()}-{Gateway._count}.ready"
        ready.unlink(missing_ok=True)
        self._log = open(placement.out_dir / "gateway.log", "ab")
        start = time.perf_counter()
        self.proc = placement.spawn(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--ready-file", str(ready)],
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        try:
            self.address = _wait_ready_file(self.proc, ready)
        except BaseException:
            self.stop()
            raise
        finally:
            ready.unlink(missing_ok=True)
        #: Spawn → ready-file wall time of this cold start.
        self.ready_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def reset_peak_rss(self) -> None:
        reset_peak_rss(self.proc.pid)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.proc.pid)

    def stop(self) -> None:
        """Ask the gateway to shut down; kill it if it does not; reap it."""
        from repro.net.client import GatewayConnection

        try:
            if self.proc.poll() is None and getattr(self, "address", None):
                with GatewayConnection(self.address, timeout=STOP_TIMEOUT_S) as conn:
                    conn.shutdown_gateway()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        except Exception as exc:  # the kill below is the fallback for any failure
            print(f"gateway shutdown failed ({exc!r}); killing it", file=sys.stderr)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self._log.close()


def timed_child(placement: Placement, code: str, *, until_line: str | None = None) -> float:
    """Wall time of a fresh interpreter running ``code``.

    With ``until_line`` the clock stops when the child prints that line
    (it may keep running briefly after); otherwise it stops at exit.
    The child is always reaped before returning.
    """
    start = time.perf_counter()
    proc = placement.spawn([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        if until_line is None:
            proc.wait(timeout=READY_TIMEOUT_S)
            elapsed = time.perf_counter() - start
        else:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            if line != until_line:
                raise RuntimeError(f"cold-start child printed {line!r}, not {until_line!r}")
            proc.wait(timeout=READY_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start child exited with code {proc.returncode}")
        return elapsed
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def write_json_lines(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
