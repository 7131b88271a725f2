"""Single-party PEM (prefix extending method, Wang et al. TDSC 2019).

PEM divides a party's users into ``g`` groups, one per prefix length
``l_h = ceil(h*m/g)``.  Group ``h`` reports the length-``l_h`` prefix of its
item through an FO over the candidate domain obtained by extending the top
``t = k`` prefixes of the previous group; the heavy hitters are the top-k
full-length candidates of the last group.  This is the building block of
the FedPEM baseline (Algorithm 1) and the ancestor of TAP's levelled
estimation — the differences are exactly the paper's contributions: fixed
vs. adaptive extension, no shared shallow trie, no pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ExtensionStrategy, MechanismConfig
from repro.core.estimation import PartyEstimator
from repro.core.results import LevelEstimate
from repro.federation.party import Party
from repro.ldp.budget import PrivacyAccountant
from repro.utils.rng import RandomState, as_generator


@dataclass
class PEMResult:
    """Outcome of a single-party PEM run."""

    party: str
    heavy_hitters: list[int]
    estimated_counts: dict[int, float]
    levels: list[LevelEstimate] = field(default_factory=list)


class SinglePartyPEM:
    """PEM for one party: fixed ``t = k`` extension, no cross-party steps."""

    name = "pem"

    def __init__(self, config: MechanismConfig | None = None, **overrides):
        if config is None:
            config = MechanismConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        # PEM always uses the fixed extension t = k and splits users evenly
        # across all g groups (no phase-I warm-start share).
        self.config = config.with_updates(
            extension=ExtensionStrategy.FIXED,
            phase1_user_fraction=None,
        )

    def run(
        self,
        party: Party,
        rng: RandomState = None,
        accountant: PrivacyAccountant | None = None,
    ) -> PEMResult:
        """Identify the party-local top-k heavy hitters of ``party``."""
        gen = as_generator(rng)
        config = self.config
        oracle = config.make_oracle()
        estimator = PartyEstimator(party, config, oracle, gen, accountant)

        previous: list[str] | None = None
        levels: list[LevelEstimate] = []
        for level in range(1, config.granularity + 1):
            domain = estimator.build_domain(level, previous)
            estimate = estimator.estimate_level(level, domain)
            levels.append(estimate)
            previous = estimate.selected_prefixes

        final = levels[-1]
        ranked = sorted(
            final.estimated_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        top = ranked[: config.k]
        estimated_counts = {
            int(prefix, 2): max(0.0, final.estimated_frequencies[prefix]) * party.n_users
            for prefix, _ in top
        }
        heavy_hitters = [int(prefix, 2) for prefix, _ in top]
        return PEMResult(
            party=party.name,
            heavy_hitters=heavy_hitters,
            estimated_counts=estimated_counts,
            levels=levels,
        )
