"""Pluggable execution engine: parallel parties and parallel sweep cells.

The paper's protocols are embarrassingly parallel along two axes — across
*parties* in phase II of TAP (and in every round of FedPEM/GTF/PEM), and
across *sweep cells* in every figure/table reproduction.  This subsystem
puts both behind one abstraction so callers pick an execution strategy
without touching protocol code.

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
* :class:`repro.core.config.MechanismConfig` — ``backend`` / ``max_workers``
  select how a mechanism runs its *parties*.
* :class:`repro.experiments.runner.ExperimentSettings` — ``backend`` /
  ``max_workers`` select how a sweep runs its *cells*, and
  ``party_backend`` is forwarded into each cell's ``MechanismConfig``.

Nested parallelism (cells × parties) is governed in
:func:`get_backend`: a ``"process"`` request made inside an engine worker
process resolves to serial, so ``backend="process"`` at both layers never
forks from a fork.
"""

from repro.engine.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
    in_worker_process,
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
    "in_worker_process",
]
