"""Continual heavy-hitter tracking over a sliding window of report batches.

The batch mechanisms answer one top-k query over a frozen population.  Real
deployments see an unbounded stream whose heavy hitters drift; this driver
keeps the last ``window_batches`` arrival batches and, every ``stride``
arrivals, re-runs a full trie discovery over the window **through the
aggregation service** — each level round streams bounded privatized batches
into server shards, so memory stays ``O(window + domain)`` no matter how
long the stream runs.

Privacy note: every discovery pass assigns the window's users to disjoint
level groups, so one pass costs each reporting user ε (parallel
composition).  A user reporting in ``w`` overlapping windows spends ``w·ε``
in total — the continual-observation overhead the snapshots make auditable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.config import DEFAULT_REPORT_BATCH_SIZE, MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.federation.party import Party
from repro.service.server import AggregationServer, ServiceRoundRunner
from repro.utils.rng import RandomState, as_generator, spawn_seeds
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class WindowSnapshot:
    """The state of the stream after one discovery pass."""

    #: Number of batches pushed into the tracker when the pass ran.
    step: int
    #: Users inside the window during the pass.
    n_users: int
    #: Discovered heavy-hitter item ids, ranked by estimated count.
    heavy_hitters: tuple[int, ...]
    #: Item id → estimated count at window scale.
    estimated_counts: dict[int, float] = field(compare=False)
    #: Exact client → server wire bits spent by the pass.
    upload_bits: int = 0
    #: Exact server → client wire bits spent by the pass.
    broadcast_bits: int = 0


class SlidingWindowDiscovery:
    """Re-runs service-mode trie discovery over a sliding batch window.

    Parameters
    ----------
    config:
        Protocol parameters; ``simulation_mode`` is forced to ``per_user``
        (the service streams real reports).
    window_batches:
        Number of most-recent arrival batches a discovery pass covers.
    stride:
        Run a pass every ``stride`` arrivals once the window is full.
    rng:
        Seed or generator; each pass gets its own child seed in arrival
        order, so a stream replayed with the same seed reproduces every
        snapshot exactly.
    top_k:
        Heavy hitters per snapshot (default: ``config.k``).
    """

    def __init__(
        self,
        config: MechanismConfig,
        *,
        window_batches: int,
        stride: int = 1,
        rng: RandomState = None,
        top_k: int | None = None,
    ):
        check_positive("window_batches", window_batches)
        check_positive("stride", stride)
        if top_k is not None:
            check_positive("top_k", top_k)
        self.config = config.with_updates(simulation_mode="per_user")
        self.oracle = self.config.make_oracle()
        self.window_batches = int(window_batches)
        self.stride = int(stride)
        self.top_k = int(top_k) if top_k is not None else self.config.k
        self._rng = as_generator(rng)
        self._window: deque[np.ndarray] = deque(maxlen=self.window_batches)
        self._step = 0
        self.snapshots: list[WindowSnapshot] = []

    # ------------------------------------------------------------------ #
    # Stream interface
    # ------------------------------------------------------------------ #
    def push(self, items: np.ndarray) -> WindowSnapshot | None:
        """Feed one arrival batch; returns a snapshot when a pass runs."""
        items = np.asarray(items, dtype=np.int64)
        if items.ndim != 1 or items.size == 0:
            raise ValueError("arrival batches must be non-empty 1-D item arrays")
        self._window.append(items)
        self._step += 1
        if len(self._window) < self.window_batches:
            return None
        if (self._step - self.window_batches) % self.stride != 0:
            return None
        snapshot = self._discover()
        self.snapshots.append(snapshot)
        return snapshot

    def track(self, arrivals: Iterable) -> Iterator[WindowSnapshot]:
        """Consume an arrival iterator, yielding a snapshot per pass.

        The arrival-iterator seam: ``arrivals`` yields either plain 1-D
        item arrays or anything with an ``items`` attribute — in
        particular a scenario's
        :class:`~repro.scenarios.scenario.ArrivalBatch` stream
        (:meth:`repro.scenarios.scenario.Scenario.iter_batches`).  Lazy:
        snapshots come out as the stream is consumed, so an unbounded
        stream works.
        """
        for batch in arrivals:
            snapshot = self.push(np.asarray(getattr(batch, "items", batch)))
            if snapshot is not None:
                yield snapshot

    @property
    def window_users(self) -> int:
        """Users currently inside the window."""
        return int(sum(batch.size for batch in self._window))

    def latest(self) -> WindowSnapshot | None:
        """The most recent snapshot, if any pass has run."""
        return self.snapshots[-1] if self.snapshots else None

    # ------------------------------------------------------------------ #
    # Discovery pass
    # ------------------------------------------------------------------ #
    def _discover(self) -> WindowSnapshot:
        items = np.concatenate(list(self._window))
        party = Party(name="window", items=items)
        server = AggregationServer(defense=self.config.defense_policy())
        runner = ServiceRoundRunner(
            server=server,
            party="window",
            batch_size=self.config.effective_report_batch_size
            or DEFAULT_REPORT_BATCH_SIZE,
        )
        pass_rng = np.random.default_rng(spawn_seeds(self._rng, 1)[0])
        estimator = PartyEstimator(
            party, self.config, self.oracle, pass_rng, round_runner=runner
        )
        previous: list[str] | None = None
        final = None
        for level in range(1, self.config.granularity + 1):
            domain = estimator.build_domain(level, previous)
            estimate = estimator.estimate_level(level, domain)
            previous = estimate.selected_prefixes
            final = estimate
        ranked = sorted(
            final.estimated_frequencies.items(), key=lambda kv: (-kv[1], kv[0])
        )[: self.top_k]
        n_users = int(items.size)
        counts = {int(prefix, 2): freq * n_users for prefix, freq in ranked}
        return WindowSnapshot(
            step=self._step,
            n_users=n_users,
            heavy_hitters=tuple(int(prefix, 2) for prefix, _ in ranked),
            estimated_counts=counts,
            upload_bits=server.upload_bits(),
            broadcast_bits=server.broadcast_bits(),
        )
