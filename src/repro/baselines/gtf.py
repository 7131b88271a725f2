"""GTF: hierarchical global trie filtering (Shao et al., FL-ICML 2023) under k-RR.

The most closely related prior work identifies local and global heavy
hitters with a hierarchical approach: at every trie level each party reports
its locally frequent prefixes and the server immediately filters them into a
*global* candidate set that all parties extend at the next level.  The
original GRRX perturbation does not satisfy ε-LDP (its output domain depends
on the user's value), so — exactly as the paper does for a fair comparison —
the oracle is replaced by k-RR here.

Two properties of GTF drive its behaviour in the evaluation:

* the per-level global filter keeps only the top ``k`` prefixes, which
  prunes aggressively and loses similar-but-necessary prefixes early, and
* the server aggregates per-party *frequencies without population weights*,
  so small parties distort the global ranking (the "ignores the impacts of
  different quantities across parties" criticism in Section 7.2).
"""

from __future__ import annotations

from repro.core.base import FederatedMechanism
from repro.core.aggregation import aggregate_local_reports
from repro.core.config import ExtensionStrategy, MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.core.results import PartyRunRecord
from repro.datasets.base import FederatedDataset
from repro.federation.transcript import FederationTranscript


class GTFMechanism(FederatedMechanism):
    """GTF baseline: per-level global filtering, population-agnostic aggregation."""

    name = "gtf"

    def __init__(self, config: MechanismConfig | None = None, **overrides):
        if config is None:
            config = MechanismConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        config = config.with_updates(
            extension=ExtensionStrategy.FIXED,
            phase1_user_fraction=None,
            use_shared_trie=False,
        )
        super().__init__(config)

    @staticmethod
    def _run_level(
        estimator: PartyEstimator, level: int, global_selected: list[str] | None
    ):
        """One party's estimation round at one level.

        Extends the server's globally filtered prefixes; returns the level
        estimate and the party's local top-k prefixes with frequencies.
        """
        domain = estimator.build_domain(level, global_selected)
        estimate = estimator.estimate_level(level, domain)
        # Each party reports its local top-k prefixes and frequencies.
        ranked = sorted(
            estimate.estimated_frequencies.items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        reported = dict(ranked[: estimator.config.k])
        return estimate, reported

    def _execute(
        self,
        dataset: FederatedDataset,
        config: MechanismConfig,
        estimators: dict[str, PartyEstimator],
        transcript: FederationTranscript,
    ) -> dict[str, PartyRunRecord]:
        g = config.granularity
        k = config.k
        records = {
            name: PartyRunRecord(party=name, n_users=est.party.n_users)
            for name, est in estimators.items()
        }
        for name in estimators:
            transcript.log_broadcast(name, "parameters", 1, level=0)

        global_selected: list[str] | None = None
        final_estimates: dict[str, object] = {}
        for level in range(1, g + 1):
            # The global filter is a synchronisation barrier: every party
            # runs the level, then the server merges before the next one.
            level_frequencies: dict[str, dict[str, float]] = {}
            for name, estimator in estimators.items():
                estimate, reported = self._run_level(estimator, level, global_selected)
                records[name].levels.append(estimate)
                final_estimates[name] = estimate
                level_frequencies[name] = reported
                transcript.log_upload(
                    name, "gtf_level_report", len(reported), level=level
                )
            # The server merges the reports WITHOUT population weighting and
            # broadcasts the global top-k prefixes for the next level.
            merged: dict[str, float] = {}
            for reported in level_frequencies.values():
                for prefix, freq in reported.items():
                    merged[prefix] = merged.get(prefix, 0.0) + freq
            ranked_global = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
            global_selected = [prefix for prefix, _ in ranked_global[:k]]
            for name in estimators:
                transcript.log_broadcast(
                    name, "gtf_global_prefixes", len(global_selected), level=level
                )

        # Local reports for the final aggregation are *frequencies* (GTF is
        # population-agnostic end to end).
        for name, estimator in estimators.items():
            estimate = final_estimates[name]
            ranked = sorted(
                estimate.estimated_frequencies.items(), key=lambda kv: (-kv[1], kv[0])
            )
            records[name].local_heavy_hitters = {
                int(prefix, 2): max(0.0, freq) for prefix, freq in ranked[:k]
            }
            self._log_final_report(
                transcript, name, records[name].local_heavy_hitters, level=g
            )
        return records

    def _aggregate(
        self, reports: dict[str, dict[int, float]], config: MechanismConfig
    ) -> tuple[list[int], dict[int, float]]:
        """Population-agnostic counting: every party contributes equally."""
        return aggregate_local_reports(reports, config.k, weights=None)
