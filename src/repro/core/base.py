"""Common machinery for all federated heavy-hitter mechanisms."""

from __future__ import annotations

import abc
import time

import numpy as np

from repro.core.aggregation import aggregate_local_reports, estimate_party_counts
from repro.core.config import MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.core.results import LevelEstimate, MechanismResult, PartyRunRecord
from repro.datasets.base import FederatedDataset
from repro.federation.transcript import FederationTranscript
from repro.ldp.budget import PrivacyAccountant
from repro.service.server import AggregationServer, ServiceRoundRunner
from repro.utils.rng import RandomState, as_generator, spawn_seeds


class FederatedMechanism(abc.ABC):
    """Base class: a mechanism turns a federated dataset into a top-k estimate.

    Subclasses implement :meth:`_execute`, which receives fully initialised
    per-party estimators plus the shared transcript and returns the final
    per-party records; the base class handles configuration adaptation,
    RNG fan-out, server aggregation, privacy accounting and timing.

    Parties run one after another, in party order.  Each party's work
    touches only its own estimator (its generator, accountant and round
    runner), so the results are a function of the seed alone.
    """

    #: Stable identifier used in benchmark output ("taps", "fedpem", ...).
    name: str = "mechanism"

    def __init__(self, config: MechanismConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self, dataset: FederatedDataset, rng: RandomState = None) -> MechanismResult:
        """Identify the federated top-k heavy hitters of ``dataset``."""
        start = time.perf_counter()
        config = self.config.for_dataset(dataset.n_bits)
        if config.defense is not None and config.execution_mode != "service":
            # Only service mode accumulates wire batches in a local shard
            # the robust merge can act on; a gateway takes no policy.
            raise ValueError(
                f"defense={config.defense!r} needs execution_mode=\"service\": "
                f"{config.execution_mode} mode has no shard to defend"
            )
        gen = as_generator(rng)
        transcript = FederationTranscript(pair_bits=config.pair_bits)
        oracle = config.make_oracle()

        # Explicit ordered seed contract: one seed per party, drawn in a
        # single batch before anything runs, so party i's randomness is a
        # function of its position alone — never of the order parties run in.
        party_seeds = spawn_seeds(gen, dataset.n_parties)
        runners = []
        try:
            for party in dataset.parties:
                runners.append(self._make_round_runner(config, party.name))
            estimators = {
                party.name: PartyEstimator(
                    party,
                    config,
                    oracle,
                    np.random.default_rng(seed),
                    PrivacyAccountant(epsilon=config.epsilon),
                    round_runner=runner,
                )
                for party, seed, runner in zip(dataset.parties, party_seeds, runners)
            }
            party_records = self._execute(dataset, config, estimators, transcript)
            # Service mode: fold each party's exact wire accounting into
            # the transcript, in deterministic party order.
            for runner in runners:
                if runner is not None:
                    transcript.extend(runner.drain_messages())
        finally:
            # Every server that was built is shut down, also when a round
            # fails: a network run must not leave its connections open.
            for runner in runners:
                if runner is not None:
                    runner.server.shutdown()

        # Merge per-party privacy accounting in deterministic party order.
        accountant = PrivacyAccountant(epsilon=config.epsilon)
        for name in estimators:
            accountant.merge(estimators[name].accountant)

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
        gives every party its own aggregation server, carrying the
        configured defense policy, and the runner's
        message log is what :meth:`run` folds into the transcript in party
        order.  Network mode swaps the local server for a
        :class:`~repro.cluster.coordinator.ClusterCoordinator` over a
        connection to ``config.gateway`` — one gateway, or a
        comma-separated list of shard gateways; a single gateway is a
        one-shard cluster and nothing downstream can tell the shard count
        (the cluster's bit-identity contract).  One connection per party,
        opened here.
        """
        if config.execution_mode == "network":
            # Local import: the core layer must not require the network
            # runtime unless a run actually asks for it.
            from repro.cluster.coordinator import ClusterConnection, ClusterCoordinator

            return ServiceRoundRunner(
                server=ClusterCoordinator(ClusterConnection(config.gateway)),
                party=party_name,
                batch_size=config.effective_report_batch_size,
            )
        if config.execution_mode != "service":
            return None
        return ServiceRoundRunner(
            server=AggregationServer(defense=config.defense_policy()),
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
    ) -> dict[str, PartyRunRecord]:
        """Run the protocol and return per-party records with local heavy hitters."""

    def _aggregate(
        self, reports: dict[str, dict[int, float]], config: MechanismConfig
    ) -> tuple[list[int], dict[int, float]]:
        """Server-side aggregation (population-weighted counting by default)."""
        return aggregate_local_reports(reports, config.k)

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
