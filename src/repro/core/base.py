"""Common machinery for all federated heavy-hitter mechanisms."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.aggregation import aggregate_local_reports, estimate_party_counts
from repro.core.config import MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.core.results import LevelEstimate, MechanismResult, PartyRunRecord
from repro.datasets.base import FederatedDataset
from repro.engine import ExecutionBackend, SerialBackend
from repro.federation.transcript import FederationTranscript
from repro.ldp.budget import PrivacyAccountant
from repro.service.server import AggregationServer, ServiceRoundRunner
from repro.utils.rng import RandomState, as_generator, spawn_seeds


@dataclass
class PartyTask:
    """A self-contained unit of per-party work shipped to an execution backend.

    The task carries everything the party's computation needs — most
    importantly the :class:`PartyEstimator`, whose generator and accountant
    are exclusively this party's.  Tasks therefore never contend on shared
    state, which is what makes thread execution safe and process execution
    (where the estimator is pickled into the worker) equivalent.
    """

    name: str
    estimator: PartyEstimator
    payload: Any = None


@dataclass
class PartyTaskOutcome:
    """What a party task sends back to the coordinator.

    ``estimator`` is returned explicitly because a process backend operates
    on a *copy*: the coordinator adopts the returned estimator (advanced RNG
    state, task-local privacy records) as the authoritative one.  On the
    serial and thread backends it is simply the same object.
    """

    record: PartyRunRecord | None
    estimator: PartyEstimator
    payload: Any = None


class FederatedMechanism(abc.ABC):
    """Base class: a mechanism turns a federated dataset into a top-k estimate.

    Subclasses implement :meth:`_execute`, which receives fully initialised
    per-party estimators plus the shared transcript and returns the final
    per-party records; the base class handles configuration adaptation,
    RNG fan-out, backend management, server aggregation, privacy accounting
    and timing.

    Per-party work should be routed through :meth:`_run_parties` (or
    :meth:`_submit_party` for inherently sequential protocols): both run the
    task on the backend selected by ``config.backend`` and keep results,
    accounting and RNG state deterministic regardless of the backend.
    """

    #: Stable identifier used in benchmark output ("taps", "fedpem", ...).
    name: str = "mechanism"

    def __init__(self, config: MechanismConfig):
        self.config = config
        self._backend: ExecutionBackend | None = None

    def __getstate__(self):
        # Task functions are bound methods, so process backends pickle the
        # mechanism itself; the live executor must not travel with it (and
        # inside a worker the engine degrades to serial anyway).
        state = self.__dict__.copy()
        state["_backend"] = None
        return state

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self, dataset: FederatedDataset, rng: RandomState = None) -> MechanismResult:
        """Identify the federated top-k heavy hitters of ``dataset``."""
        start = time.perf_counter()
        config = self.config.for_dataset(dataset.n_bits)
        gen = as_generator(rng)
        transcript = FederationTranscript(pair_bits=config.pair_bits)
        oracle = config.make_oracle()

        # Explicit ordered seed contract: one seed per party, drawn in a
        # single batch before anything runs, so party i's randomness is a
        # function of its position alone — never of backend scheduling.
        party_seeds = spawn_seeds(gen, dataset.n_parties)
        service_mode = config.execution_mode in ("service", "network")
        estimators = {
            party.name: PartyEstimator(
                party,
                config,
                oracle,
                np.random.default_rng(seed),
                PrivacyAccountant(epsilon=config.epsilon),
                round_runner=self._make_round_runner(config, party.name),
            )
            for party, seed in zip(dataset.parties, party_seeds)
        }

        backend = config.make_backend()
        self._backend = backend
        try:
            party_records = self._execute(dataset, config, estimators, transcript, gen)
        finally:
            self._backend = None
            backend.shutdown()

        # Merge per-party privacy accounting in deterministic party order.
        accountant = PrivacyAccountant(epsilon=config.epsilon)
        for name in estimators:
            accountant.merge(estimators[name].accountant)

        # Service mode: fold each party's exact wire accounting into the
        # transcript, in deterministic party order.  The runners travel with
        # the estimators, so messages logged inside process-backend workers
        # come back with the adopted estimator copies.
        if service_mode:
            for name in estimators:
                server = estimators[name].round_runner.server
                transcript.extend(server.drain_messages())
                server.shutdown()

        reports = {
            name: record.local_heavy_hitters for name, record in party_records.items()
        }
        heavy_hitters, totals = self._aggregate(reports, config)
        runtime = time.perf_counter() - start
        return MechanismResult(
            mechanism=self.name,
            heavy_hitters=heavy_hitters,
            estimated_counts=totals,
            party_records=party_records,
            transcript=transcript,
            accountant=accountant,
            runtime_seconds=runtime,
            config=config,
            metadata={"dataset": dataset.name},
        )

    @staticmethod
    def _make_round_runner(config: MechanismConfig, party_name: str):
        """The per-party round runner for the configured execution mode.

        ``None`` keeps the estimator's in-memory default; service mode
        gives every party its own aggregation server so party tasks stay
        self-contained on any backend.  Network mode swaps the local
        server for a :class:`~repro.cluster.coordinator.ClusterCoordinator`
        speaking to ``config.gateway`` — one gateway, or a comma-separated
        list of shard gateways; a single gateway is a one-shard cluster
        and nothing downstream can tell the shard count (the cluster's
        bit-identity contract).  One connection per party, opened lazily,
        so party tasks stay self-contained on any backend there too.
        """
        if config.execution_mode == "network":
            # Local import: the core layer must not require the network
            # runtime unless a run actually asks for it.
            from repro.cluster.coordinator import ClusterCoordinator

            return ServiceRoundRunner(
                server=ClusterCoordinator(config.gateway),
                party=party_name,
                batch_size=config.effective_report_batch_size,
            )
        if config.execution_mode != "service":
            return None
        return ServiceRoundRunner(
            server=AggregationServer(),
            party=party_name,
            batch_size=config.effective_report_batch_size,
        )

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _execute(
        self,
        dataset: FederatedDataset,
        config: MechanismConfig,
        estimators: dict[str, PartyEstimator],
        transcript: FederationTranscript,
        rng,
    ) -> dict[str, PartyRunRecord]:
        """Run the protocol and return per-party records with local heavy hitters."""

    def _aggregate(
        self, reports: dict[str, dict[int, float]], config: MechanismConfig
    ) -> tuple[list[int], dict[int, float]]:
        """Server-side aggregation (population-weighted counting by default)."""
        return aggregate_local_reports(reports, config.k)

    # ------------------------------------------------------------------ #
    # Backend-aware party execution
    # ------------------------------------------------------------------ #
    def _run_parties(
        self,
        estimators: dict[str, PartyEstimator],
        task_fn: Callable[[PartyTask], PartyTaskOutcome],
        payloads: Mapping[str, Any] | None = None,
        *,
        names: list[str] | None = None,
    ) -> dict[str, PartyTaskOutcome]:
        """Run one self-contained task per party on the configured backend.

        ``task_fn`` receives a :class:`PartyTask` and must confine its work
        to that task's estimator.  Outcomes are collected in party order;
        each returned estimator replaces the caller's entry in
        ``estimators`` so process-backend copies (advanced RNG, task-local
        accounting) become authoritative.
        """
        names = list(estimators) if names is None else names
        payloads = payloads or {}
        tasks = [
            PartyTask(name=n, estimator=estimators[n], payload=payloads.get(n))
            for n in names
        ]
        results = self._engine().map_tasks(task_fn, tasks)
        outcomes: dict[str, PartyTaskOutcome] = {}
        for name, outcome in zip(names, results):
            estimators[name] = outcome.estimator
            outcomes[name] = outcome
        return outcomes

    def _submit_party(
        self,
        estimators: dict[str, PartyEstimator],
        task_fn: Callable[[PartyTask], PartyTaskOutcome],
        name: str,
        payload: Any = None,
    ) -> PartyTaskOutcome:
        """Run a single party task on the backend and wait for it.

        Used by inherently sequential protocols (TAPS' phase II chains each
        party on its predecessor's pruning candidates) so that even the
        serial portions flow through the one engine abstraction.
        """
        task = PartyTask(name=name, estimator=estimators[name], payload=payload)
        future = self._engine().submit(task_fn, task)
        outcome = ExecutionBackend.gather([future])[0]
        estimators[name] = outcome.estimator
        return outcome

    def _engine(self) -> ExecutionBackend:
        """The backend of the run in progress (serial outside of a run)."""
        return self._backend if self._backend is not None else SerialBackend()

    # ------------------------------------------------------------------ #
    # Shared helpers for subclasses
    # ------------------------------------------------------------------ #
    @staticmethod
    def _local_heavy_hitters(
        final_estimate: LevelEstimate,
        estimator: PartyEstimator,
        k: int,
    ) -> dict[int, float]:
        """Convert a final-level estimate into (item → party-scale count) pairs.

        The final level's prefixes are full ``m``-bit encodings, i.e. items.
        The party reports at least ``k`` of them (more when the adaptive
        extension retained more), each scaled from group frequency to an
        estimated party-level count.
        """
        n_report = max(k, len(final_estimate.selected_prefixes))
        ranked = sorted(
            final_estimate.estimated_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        chosen = [prefix for prefix, _ in ranked[:n_report]]
        prefix_to_item = {prefix: int(prefix, 2) for prefix in chosen}
        return estimate_party_counts(
            final_estimate.estimated_frequencies,
            prefix_to_item,
            estimator.party.n_users,
        )

    @staticmethod
    def _log_final_report(
        transcript: FederationTranscript,
        party: str,
        heavy_hitters: dict[int, float],
        level: int,
    ) -> None:
        """Log the upload of a party's local heavy hitters to the server."""
        transcript.log_upload(
            party,
            "local_heavy_hitters",
            len(heavy_hitters),
            level=level,
            content=dict(heavy_hitters),
        )
