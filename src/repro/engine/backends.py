"""Execution backends: one abstraction over serial, threaded and process execution.

The engine's contract has three parts, all of them required for the
"identical results on every backend" guarantee the test suite enforces:

**Result ordering.**  :meth:`ExecutionBackend.map_tasks` always returns one
result per task *in task order*, no matter which worker finished first.

**Error propagation.**  The first (by task order) finished failure is
re-raised in the caller with its original type, after all still-pending
futures have been cancelled.  Serial and parallel execution therefore fail
with the same exception type on the same input.

**Seed fan-out.**  :meth:`ExecutionBackend.map_seeded` draws one integer
seed per task from a parent generator — in a single ordered batch, *before*
anything is dispatched (see :func:`repro.utils.rng.spawn_seeds`) — and
passes it to the task function.  Randomness is thereby a function of the
task index alone, never of scheduling.
"""

from __future__ import annotations

import abc
from concurrent.futures import (
    FIRST_EXCEPTION,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterable, Sequence

from repro.utils.rng import RandomState, as_generator, spawn_seeds

class ExecutionBackend(abc.ABC):
    """Runs independent tasks and returns their results in task order."""

    #: Stable identifier used in configuration and benchmark output.
    name: str = "backend"

    @abc.abstractmethod
    def submit(self, fn: Callable[..., Any], *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)`` and return a future for its result."""

    def map_tasks(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list:
        """Run ``fn`` over every task; ordered results, first error re-raised."""
        futures = [self.submit(fn, task) for task in tasks]
        return self.gather(futures)

    def map_seeded(
        self,
        fn: Callable[[Any, int], Any],
        tasks: Sequence[Any],
        rng: RandomState = None,
    ) -> list:
        """Run ``fn(task, seed)`` with per-task seeds fanned out up front."""
        tasks = list(tasks)
        seeds = spawn_seeds(as_generator(rng), len(tasks))
        futures = [self.submit(fn, task, seed) for task, seed in zip(tasks, seeds)]
        return self.gather(futures)

    @staticmethod
    def gather(futures: Sequence[Future]) -> list:
        """Collect results in submission order, re-raising the first failure.

        "First" is by submission order among the tasks that have *finished*
        when the failure surfaces — only done futures are inspected, so an
        early long-running task never delays the error of a later one, and
        pending tasks are cancelled before the exception is raised.
        """
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        failed = [f for f in done if f.exception() is not None]
        if failed:
            for future in not_done:
                future.cancel()
            indices = {id(f): i for i, f in enumerate(futures)}
            earliest = min(failed, key=lambda f: indices[id(f)])
            raise earliest.exception()
        return [future.result() for future in futures]

    def shutdown(self) -> None:
        """Release worker resources (no-op for the serial backend)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Runs every task inline, in order — the default and reference backend."""

    name = "serial"

    def submit(self, fn: Callable[..., Any], *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - propagated via the future
            future.set_exception(exc)
        return future

    def map_tasks(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list:
        # Inline loop: identical to the pre-engine code path, and fails fast
        # on the first error without touching the remaining tasks.
        return [fn(task) for task in tasks]


class _PoolBackend(ExecutionBackend):
    """Shared machinery for executor-pool backends (threads / processes)."""

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._executor = None

    @abc.abstractmethod
    def _make_executor(self):
        """Create the underlying concurrent.futures executor."""

    @property
    def executor(self):
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def submit(self, fn: Callable[..., Any], *args, **kwargs) -> Future:
        return self.executor.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadBackend(_PoolBackend):
    """Thread-pool backend: cheap dispatch, shares memory with the caller.

    Tasks must confine their mutations to task-local objects (sweep cells
    and loadgen pools do); NumPy releases the GIL in its hot loops, so the
    oracle rounds overlap even under CPython.
    """

    name = "thread"

    def _make_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-engine"
        )


class ProcessBackend(_PoolBackend):
    """Process-pool backend: true parallelism, tasks and results are pickled.

    Task functions must be importable (module-level functions or methods of
    picklable instances).
    """

    name = "process"

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)


#: Backend registry: name → constructor accepting ``max_workers``.
BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {
    "serial": lambda max_workers=None: SerialBackend(),
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered execution backends."""
    return tuple(BACKENDS)


def get_backend(
    spec: str | ExecutionBackend | None,
    max_workers: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through) to a backend.

    ``None`` resolves to the serial backend.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    key = (spec or "serial").lower()
    if key not in BACKENDS:
        raise KeyError(f"unknown backend {spec!r}; available: {sorted(BACKENDS)}")
    return BACKENDS[key](max_workers=max_workers)
