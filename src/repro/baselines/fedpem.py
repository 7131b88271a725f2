"""FedPEM (Algorithm 1): PEM per party + server-side counting.

Every party runs single-party PEM on its own users and uploads its local
top-k heavy hitters with their estimated counts; the server aggregates the
counts and returns the overall top-k.  FedPEM ignores the non-IID problem —
locally popular but globally rare items crowd out the true federated heavy
hitters — which is the failure mode the paper's TAP/TAPS address.
"""

from __future__ import annotations

from repro.core.base import FederatedMechanism
from repro.core.config import ExtensionStrategy, MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.core.results import PartyRunRecord
from repro.datasets.base import FederatedDataset
from repro.federation.transcript import FederationTranscript


class FedPEMMechanism(FederatedMechanism):
    """The FedPEM baseline: independent PEM runs aggregated by counting."""

    name = "fedpem"

    def __init__(self, config: MechanismConfig | None = None, **overrides):
        if config is None:
            config = MechanismConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        # PEM semantics: fixed extension t = k, even user split, no warm start.
        config = config.with_updates(
            extension=ExtensionStrategy.FIXED,
            phase1_user_fraction=None,
            use_shared_trie=False,
        )
        super().__init__(config)

    def _run_party(self, name: str, estimator: PartyEstimator) -> PartyRunRecord:
        """One party's full, independent PEM run."""
        config = estimator.config
        g = config.granularity
        k = config.k
        record = PartyRunRecord(party=name, n_users=estimator.party.n_users)
        previous: list[str] | None = None
        final_estimate = None
        for level in range(1, g + 1):
            domain = estimator.build_domain(level, previous)
            estimate = estimator.estimate_level(level, domain)
            record.levels.append(estimate)
            previous = estimate.selected_prefixes
            final_estimate = estimate
        # Each party uploads exactly its local top-k (Algorithm 1 line 2).
        ranked = sorted(
            final_estimate.estimated_counts.items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        top_prefixes = [prefix for prefix, _ in ranked[:k]]
        record.local_heavy_hitters = {
            int(prefix, 2): max(0.0, final_estimate.estimated_frequencies[prefix])
            * estimator.party.n_users
            for prefix in top_prefixes
        }
        return record

    def _execute(
        self,
        dataset: FederatedDataset,
        config: MechanismConfig,
        estimators: dict[str, PartyEstimator],
        transcript: FederationTranscript,
    ) -> dict[str, PartyRunRecord]:
        for name in estimators:
            transcript.log_broadcast(name, "parameters", 1, level=0)
        records: dict[str, PartyRunRecord] = {}
        for name, estimator in estimators.items():
            record = self._run_party(name, estimator)
            self._log_final_report(
                transcript, name, record.local_heavy_hitters,
                level=config.granularity,
            )
            records[name] = record
        return records
