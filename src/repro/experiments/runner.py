"""Generic sweep runner shared by every figure/table reproduction.

A *sweep* runs a set of mechanisms over a set of datasets for a grid of
(ε, k) values, repeating each cell several times with different seeds, and
collects tidy records (one dict per run) carrying the utility metrics and
cost counters.  Figures and tables are just different groupings of these
records.

The sweep is decomposed into a pure task generator (:func:`iter_cells`,
which enumerates :class:`SweepCell` specs with their run seeds fixed up
front) and a backend-driven executor (:func:`run_sweep`, which maps
:func:`run_cell` over the cells on the engine selected by
``ExperimentSettings.backend``).  Cells are mutually independent, so the
grid parallelizes across threads or processes with results identical to a
serial run — seeds are part of the cell spec, never of the schedule.
"""

from __future__ import annotations

import dataclasses
import zlib
from concurrent.futures import as_completed
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.baselines.fedpem import FedPEMMechanism
from repro.baselines.gtf import GTFMechanism
from repro.core.config import ExtensionStrategy, MechanismConfig
from repro.core.results import MechanismResult
from repro.core.tap import TAPMechanism
from repro.core.taps import TAPSMechanism
from repro.datasets.base import FederatedDataset
from repro.datasets.registry import load_dataset
from repro.engine import ExecutionBackend, SerialBackend, get_backend
from repro.metrics.scores import average_local_recall, f1_score, ncr_score
from repro.utils.validation import check_known_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from repro.experiments.store import SweepCellStore

#: Mechanism name → constructor taking a MechanismConfig.
MECHANISM_REGISTRY: dict[str, Callable[[MechanismConfig], object]] = {
    "gtf": GTFMechanism,
    "fedpem": FedPEMMechanism,
    "tap": TAPMechanism,
    "taps": TAPSMechanism,
}


#: The one canonical smoke-scale preset, shared by :meth:`ExperimentSettings.smoke`,
#: every example script's ``--smoke`` flag and the CLI's ``--smoke`` flag:
#: the tiny dataset scale, one repetition, a single (ε, k) point on RDB.
SMOKE_PRESET: Mapping[str, object] = {
    "scale": "tiny",
    "repetitions": 1,
    "epsilons": (4.0,),
    "ks": (5,),
    "datasets": ("rdb",),
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment reproduction.

    Attributes
    ----------
    scale:
        Dataset scale preset (see :data:`repro.datasets.registry.SCALES`).
    repetitions:
        Number of repetitions per grid cell (the paper uses 50; the bench
        default keeps runtimes in seconds).
    granularity / n_bits:
        Protocol granularity ``g`` and binary width ``m``.  ``n_bits=None``
        uses each dataset's own width.
    oracle:
        Frequency oracle name.
    seed:
        Base seed; the run seed of each cell is derived from it by
        :func:`cell_seed` (stable across runs and across processes).
    backend / max_workers:
        Execution backend for the sweep's *cells* (``"serial"``,
        ``"thread"`` or ``"process"``, see :mod:`repro.engine`) and its
        worker count (``None``: executor default).  Purely an execution
        knob — every backend yields identical records for a fixed seed.
    execution_mode / report_batch_size:
        Forwarded into each cell's :class:`MechanismConfig`:
        ``execution_mode="service"`` runs every mechanism through the
        online aggregation service (streamed per-user report batches with
        exact wire accounting, see :mod:`repro.service`);
        ``report_batch_size`` bounds the reports perturbed/ingested at a
        time.
    """

    scale: str = "small"
    repetitions: int = 3
    granularity: int = 6
    n_bits: int | None = None
    oracle: str = "krr"
    seed: int = 2025
    epsilons: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    ks: tuple[int, ...] = (10, 20, 40)
    datasets: tuple[str, ...] = ("rdb", "ycm", "tys", "uba", "syn")
    mechanisms: tuple[str, ...] = ("gtf", "fedpem", "taps")
    backend: str = "serial"
    max_workers: int | None = None
    execution_mode: str = "memory"
    report_batch_size: int | None = None

    def __post_init__(self) -> None:
        from repro.core.config import EXECUTION_MODES
        from repro.engine import available_backends

        if self.backend.lower() not in available_backends():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"available: {sorted(available_backends())}"
            )
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution_mode {self.execution_mode!r}; "
                f"available: {sorted(EXECUTION_MODES)}"
            )
        if self.execution_mode == "network":
            # Sweeps have no way to supply (or stand up) a gateway per
            # cell; reject at validation instead of crashing mid-grid.
            # Networked runs go through repro.net.run_over_network /
            # `repro loadgen`.
            raise ValueError(
                'sweeps cannot run execution_mode="network" (no gateway to '
                "connect the cells to); use repro.net.run_over_network or "
                "the repro loadgen CLI for networked execution"
            )

    def with_updates(self, **changes) -> "ExperimentSettings":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def smoke(self) -> "ExperimentSettings":
        """A drastically reduced copy for unit tests, CI and ``--smoke`` runs.

        Applies :data:`SMOKE_PRESET` — the single canonical smoke scale —
        while keeping execution knobs (backend, workers, oracle) intact.

        >>> ExperimentSettings(backend="thread").smoke().scale
        'tiny'
        >>> ExperimentSettings(backend="thread").smoke().backend
        'thread'
        """
        return replace(self, **SMOKE_PRESET)

    # ------------------------------------------------------------------ #
    # Spec round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-safe mapping; :meth:`from_dict` round-trips it exactly.

        >>> s = ExperimentSettings(repetitions=2, epsilons=(1.0, 4.0))
        >>> ExperimentSettings.from_dict(s.to_dict()) == s
        True
        """
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], *, source: str = "<settings>"
    ) -> "ExperimentSettings":
        """Build settings from a parsed spec mapping, rejecting unknown keys."""
        field_names = {f.name for f in dataclasses.fields(cls)}
        check_known_keys(data, field_names, where="settings", source=source)
        kwargs = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        }
        return cls(**kwargs)


@dataclass
class SweepResult:
    """Tidy result records plus the settings that produced them."""

    settings: ExperimentSettings
    records: list[dict] = field(default_factory=list)

    def filter(self, **criteria) -> list[dict]:
        """Records matching all key=value criteria."""
        out = []
        for rec in self.records:
            if all(rec.get(key) == value for key, value in criteria.items()):
                out.append(rec)
        return out

    def mean_metric(self, metric: str, **criteria) -> float:
        """Average of ``metric`` over all matching records (NaN if none)."""
        values = [rec[metric] for rec in self.filter(**criteria) if metric in rec]
        return float(np.mean(values)) if values else float("nan")


def build_mechanism(name: str, config: MechanismConfig):
    """Instantiate a registered mechanism by name."""
    key = name.lower()
    if key not in MECHANISM_REGISTRY:
        raise KeyError(
            f"unknown mechanism {name!r}; available: {sorted(MECHANISM_REGISTRY)}"
        )
    return MECHANISM_REGISTRY[key](config)


def evaluate_run(
    result: MechanismResult, dataset: FederatedDataset, k: int
) -> dict[str, float]:
    """Compute every utility metric the paper reports for a single run."""
    truth = dataset.true_top_k(k)
    local = {
        name: record.local_top_items(k)
        for name, record in result.party_records.items()
    }
    return {
        "f1": f1_score(result.heavy_hitters, truth),
        "ncr": ncr_score(result.heavy_hitters, truth),
        "recall_local_avg": average_local_recall(local, truth),
        "communication_bits": float(result.upload_bits()),
        "runtime_seconds": float(result.runtime_seconds),
    }


def make_config(
    settings: ExperimentSettings,
    dataset: FederatedDataset,
    *,
    k: int,
    epsilon: float,
    **overrides,
) -> MechanismConfig:
    """Build the mechanism configuration for one sweep cell."""
    n_bits = settings.n_bits if settings.n_bits is not None else dataset.n_bits
    granularity = min(settings.granularity, n_bits)
    mode_kwargs: dict[str, object] = {}
    if settings.execution_mode == "service":
        # The service streams real reports; aggregate sampling has none.
        mode_kwargs["simulation_mode"] = "per_user"
    if overrides.get("execution_mode") == "network":
        # The same guard ExperimentSettings enforces, for the
        # config_overrides back door (spec `config_overrides:` blocks and
        # direct run_sweep(config_overrides=...) calls): cells have no
        # gateway to connect to, so fail before the grid starts.
        raise ValueError(
            'sweep cells cannot run execution_mode="network" (no gateway to '
            "connect them to); use repro.net.run_over_network or the "
            "repro loadgen CLI for networked execution"
        )
    config = MechanismConfig(
        k=k,
        epsilon=epsilon,
        n_bits=n_bits,
        granularity=granularity,
        oracle=settings.oracle,
        execution_mode=settings.execution_mode,
        report_batch_size=settings.report_batch_size,
        **mode_kwargs,
    )
    if overrides:
        config = config.with_updates(**overrides)
    return config


def mechanism_seed_offset(mech_name: str) -> int:
    """Stable per-mechanism seed offset in ``[0, 1000)``.

    A CRC-32 digest rather than ``hash()``: the builtin string hash is
    randomized per process (PYTHONHASHSEED), which made sweep seeds — and
    therefore every sweep metric — irreproducible across runs and across
    process-backend workers.
    """
    return zlib.crc32(mech_name.lower().encode("utf-8")) % 1000


def cell_seed(base_seed: int, mech_name: str, repetition: int) -> int:
    """The run seed of one sweep cell — an explicit function of the spec.

    Seeds depend only on (base seed, mechanism, repetition), never on the
    execution order or backend, which is what makes parallel sweeps
    reproduce serial sweeps exactly.
    """
    return base_seed + 7919 * repetition + mechanism_seed_offset(mech_name)


@dataclass(frozen=True)
class SweepCell:
    """A self-contained spec for one run of the sweep grid.

    Everything a worker needs travels in the cell: the dataset is referred
    to by (name, scale, seed, kwargs) — cheap to ship and deterministically
    reloadable — and the run ``seed`` and ``config`` are fixed at
    generation time.
    """

    dataset: str
    mechanism: str
    epsilon: float
    k: int
    repetition: int
    seed: int
    truth_size: int
    config: MechanismConfig
    scale: str
    dataset_seed: int
    dataset_kwargs: tuple = ()


#: Per-process dataset cache so workers load each dataset once, not per cell.
#: Bounded (LRU) so long-lived processes sweeping many (dataset, scale, seed,
#: kwargs) combinations don't accumulate every user array ever loaded.
_DATASET_CACHE: "dict[tuple, FederatedDataset]" = {}
_DATASET_CACHE_MAX = 8


def _cached_dataset(
    name: str, scale: str, seed: int, kwargs_items: tuple
) -> FederatedDataset:
    key = (name, scale, seed, kwargs_items)
    dataset = _DATASET_CACHE.get(key)
    if dataset is None:
        dataset = load_dataset(name, scale=scale, seed=seed, **dict(kwargs_items))
    else:
        del _DATASET_CACHE[key]  # re-insert below: dicts keep insertion order
    _DATASET_CACHE[key] = dataset
    while len(_DATASET_CACHE) > _DATASET_CACHE_MAX:
        _DATASET_CACHE.pop(next(iter(_DATASET_CACHE)))
    return dataset


def iter_cells(
    settings: ExperimentSettings,
    *,
    datasets: Sequence[str] | None = None,
    mechanisms: Sequence[str] | None = None,
    epsilons: Iterable[float] | None = None,
    ks: Iterable[int] | None = None,
    config_overrides: Mapping[str, object] | None = None,
    dataset_kwargs: Mapping[str, object] | None = None,
) -> Iterator[SweepCell]:
    """Enumerate the sweep grid as independent :class:`SweepCell` tasks.

    Cells come out in the historical nesting order (dataset → k → ε →
    mechanism → repetition), with per-cell seeds and configs resolved up
    front; the configuration is built once per (dataset, k, ε) — it is
    identical for every mechanism and repetition of that group.
    """
    datasets = tuple(datasets if datasets is not None else settings.datasets)
    mechanisms = tuple(mechanisms if mechanisms is not None else settings.mechanisms)
    epsilons = tuple(epsilons if epsilons is not None else settings.epsilons)
    ks = tuple(ks if ks is not None else settings.ks)
    config_overrides = dict(config_overrides or {})
    kwargs_items = tuple(sorted((dataset_kwargs or {}).items()))

    for dataset_name in datasets:
        dataset = _cached_dataset(
            dataset_name, settings.scale, settings.seed, kwargs_items
        )
        for k in ks:
            truth_size = len(dataset.true_top_k(k))
            for epsilon in epsilons:
                config = make_config(
                    settings, dataset, k=k, epsilon=epsilon, **config_overrides
                )
                for mech_name in mechanisms:
                    for repetition in range(settings.repetitions):
                        yield SweepCell(
                            dataset=dataset_name,
                            mechanism=mech_name,
                            epsilon=float(epsilon),
                            k=int(k),
                            repetition=repetition,
                            seed=cell_seed(settings.seed, mech_name, repetition),
                            truth_size=truth_size,
                            config=config,
                            scale=settings.scale,
                            dataset_seed=settings.seed,
                            dataset_kwargs=kwargs_items,
                        )


def run_cell(cell: SweepCell) -> dict:
    """Execute one sweep cell and return its tidy record.

    Module-level (hence picklable) so the process backend can run cells in
    workers; the dataset is reloaded there from the per-process cache.
    """
    dataset = _cached_dataset(
        cell.dataset, cell.scale, cell.dataset_seed, cell.dataset_kwargs
    )
    mechanism = build_mechanism(cell.mechanism, cell.config)
    result = mechanism.run(dataset, rng=cell.seed)
    return {
        "dataset": cell.dataset,
        "mechanism": cell.mechanism,
        "epsilon": cell.epsilon,
        "k": cell.k,
        "repetition": cell.repetition,
        "truth_size": cell.truth_size,
        **evaluate_run(result, dataset, cell.k),
    }


def _run_cells_into_store(
    engine: ExecutionBackend, cells: Sequence[SweepCell], store: "SweepCellStore"
) -> None:
    """Execute the cells missing from ``store``, persisting each on completion.

    Records are appended (and flushed) the moment their cell finishes —
    in cell order on the serial backend, in completion order on the pool
    backends — so a killed sweep loses at most the cells in flight.  On a
    task failure the pending cells are cancelled, but every already
    completed cell has been persisted, which is exactly what ``--resume``
    picks up.
    """
    pending = [cell for cell in cells if cell not in store]
    if isinstance(engine, SerialBackend):
        for cell in pending:
            store.append(cell, run_cell(cell))
        return
    futures = {engine.submit(run_cell, cell): cell for cell in pending}
    try:
        for future in as_completed(futures):
            exc = future.exception()
            if exc is not None:
                raise exc
            store.append(futures[future], future.result())
    except BaseException:
        for future in futures:
            future.cancel()
        raise


def run_sweep(
    settings: ExperimentSettings,
    *,
    datasets: Sequence[str] | None = None,
    mechanisms: Sequence[str] | None = None,
    epsilons: Iterable[float] | None = None,
    ks: Iterable[int] | None = None,
    config_overrides: Mapping[str, object] | None = None,
    dataset_kwargs: Mapping[str, object] | None = None,
    backend: str | ExecutionBackend | None = None,
    max_workers: int | None = None,
    store: "SweepCellStore | None" = None,
) -> SweepResult:
    """Run the full mechanism × dataset × ε × k × repetition grid.

    Every cell appends one record with keys: ``dataset``, ``mechanism``,
    ``epsilon``, ``k``, ``repetition`` plus the metrics of
    :func:`evaluate_run`.  Cells execute on the engine backend selected by
    ``backend`` (default: ``settings.backend``); records come back in grid
    order and are identical across backends for a fixed seed.

    ``store`` plugs in a resumable run store
    (:class:`~repro.experiments.store.SweepCellStore`): cells already in
    the store are *not* recomputed, newly finished cells are persisted as
    they complete, and the returned records — stored and fresh alike — come
    back in grid order, bit-identical to a storeless run for a fixed seed.

    >>> sweep = run_sweep(ExperimentSettings().smoke())
    >>> sorted(sweep.records[0])[:4]
    ['communication_bits', 'dataset', 'epsilon', 'f1']
    """
    cells = list(
        iter_cells(
            settings,
            datasets=datasets,
            mechanisms=mechanisms,
            epsilons=epsilons,
            ks=ks,
            config_overrides=config_overrides,
            dataset_kwargs=dataset_kwargs,
        )
    )
    engine = get_backend(
        settings.backend if backend is None else backend,
        settings.max_workers if max_workers is None else max_workers,
    )
    with engine:
        if store is None:
            records = engine.map_tasks(run_cell, cells)
        else:
            _run_cells_into_store(engine, cells, store)
            records = [store.get(cell) for cell in cells]
    return SweepResult(settings=settings, records=list(records))
