"""Pluggable execution engine: parallel sweep cells and loadgen pools.

Every figure/table reproduction is a grid of mutually independent *sweep
cells*, and a load generator drives independent *connection pools*.  This
subsystem puts both behind one abstraction so callers pick an execution
strategy without touching protocol code.  A mechanism's own parties run
one after another in party order (TAPS chains them by design).

Backends
--------
``serial``
    The default.  Runs tasks inline, in order; bit-for-bit identical to the
    historical single-threaded code path.
``thread``
    A :class:`concurrent.futures.ThreadPoolExecutor`.  Cheap dispatch and
    shared memory; parallel speedup comes from NumPy releasing the GIL in
    the frequency-oracle hot loops.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor`.  True multi-core
    parallelism; tasks and results cross the boundary via pickle.

Determinism contract
--------------------
Every stochastic task receives its RNG seed *before* dispatch, derived in
task order from the caller's generator (:func:`repro.utils.rng.spawn_seeds`).
Results are returned in task order, and shared state (privacy accounting,
protocol transcripts) is only ever merged by the caller in task order.
Consequently all backends produce identical results for a fixed seed,
regardless of worker count or scheduling — the property
``tests/test_engine_determinism.py`` pins down.

Where the knobs live
--------------------
* :class:`repro.experiments.runner.ExperimentSettings` — ``backend`` /
  ``max_workers`` select how a sweep runs its *cells*.
* :func:`repro.net.loadgen.run_loadgen` — ``backend`` / ``max_workers``
  select how the load generator runs its connection pools.
"""

from repro.engine.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
from repro.utils.rng import spawn_seeds as fan_out_seeds

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "available_backends",
    "fan_out_seeds",
    "get_backend",
]
