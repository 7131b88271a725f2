"""The Target-Aligning Prefix tree mechanism (TAP, Algorithm 3).

Phase I builds the shared shallow trie (Algorithm 2) to align all parties on
the globally frequent prefixes at level ``g_s``.  Phase II lets every party
continue independently from that warm start, using the adaptive trie
extension at each level, and finally report its local heavy hitters with
estimated counts.  The server aggregates the population-scaled counts and
returns the federated top-k.
"""

from __future__ import annotations

from repro.core.base import FederatedMechanism
from repro.core.config import MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.core.results import LevelEstimate, PartyRunRecord
from repro.core.shared_trie import construct_shared_trie
from repro.datasets.base import FederatedDataset
from repro.federation.transcript import FederationTranscript


class TAPMechanism(FederatedMechanism):
    """TAP: shared shallow trie + adaptive extension, independent phase II."""

    name = "tap"

    def __init__(self, config: MechanismConfig | None = None, **overrides):
        if config is None:
            config = MechanismConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        super().__init__(config)

    def _phase2(
        self,
        name: str,
        estimator: PartyEstimator,
        shared_levels: list[LevelEstimate],
        previous: list[str],
    ) -> PartyRunRecord:
        """One party's complete, independent phase II (Algorithm 3, 7-11),
        warm-started from its phase-I levels and selected prefixes."""
        config = estimator.config
        g = config.granularity
        g_s = config.effective_shared_level

        record = PartyRunRecord(party=name, n_users=estimator.party.n_users)
        record.levels.extend(shared_levels)
        final_estimate = None
        for level in range(g_s + 1, g + 1):
            domain = estimator.build_domain(level, previous)
            estimate = estimator.estimate_level(level, domain)
            record.levels.append(estimate)
            previous = estimate.selected_prefixes
            final_estimate = estimate
        if final_estimate is None:
            # g == g_s is prevented by config validation, but stay safe.
            final_estimate = record.levels[-1]
        record.local_heavy_hitters = self._local_heavy_hitters(
            final_estimate, estimator, config.k
        )
        return record

    def _execute(
        self,
        dataset: FederatedDataset,
        config: MechanismConfig,
        estimators: dict[str, PartyEstimator],
        transcript: FederationTranscript,
    ) -> dict[str, PartyRunRecord]:
        g = config.granularity

        # ----- Phase I: shared shallow trie construction (steps 1-6). -----
        shared = construct_shared_trie(estimators, transcript)

        # ----- Phase II: independent estimation with a warm start (7-11),
        # one party after another. -----
        records: dict[str, PartyRunRecord] = {}
        for name, estimator in estimators.items():
            record = self._phase2(
                name,
                estimator,
                shared.per_party_levels[name],
                shared.per_party_selected[name],
            )
            self._log_final_report(transcript, name, record.local_heavy_hitters, level=g)
            records[name] = record
        return records
