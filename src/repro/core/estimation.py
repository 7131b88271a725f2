"""Per-party, per-level estimation machinery shared by every trie mechanism.

The ``Estimate`` procedure of Algorithm 2 is identical across PEM, FedPEM,
GTF, TAP and TAPS: the users of one group report the length-``l_h`` prefix
of their item through the frequency oracle over the current candidate
domain, and the party turns the supports into estimated counts/frequencies.
:class:`PartyEstimator` owns that logic plus the user-group bookkeeping, so
the mechanism classes only differ in *which* prefixes they extend, share or
prune.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.config import ExtensionStrategy, MechanismConfig
from repro.core.extension import adaptive_extension_count
from repro.core.results import LevelEstimate
from repro.encoding.prefix import level_lengths
from repro.federation.grouping import split_into_groups
from repro.federation.party import Party
from repro.ldp.base import EstimationResult, FrequencyOracle
from repro.ldp.budget import PrivacyAccountant
from repro.trie.candidate_domain import CandidateDomain
from repro.utils.rng import as_generator


@dataclass
class LevelOutcome:
    """Raw outcome of one frequency-oracle round at one level."""

    counts: dict[str, float]
    frequencies: dict[str, float]
    sigma: float
    n_users: int
    domain_size: int


class RoundRunner(abc.ABC):
    """Strategy executing one frequency-oracle round for an estimator.

    This is the seam between the trie mechanisms and the execution
    substrate: :class:`PartyEstimator` prepares the round (user group,
    candidate domain, encoded values) and hands it to a runner.  The
    in-memory runner calls the oracle directly; the service runner
    (:class:`repro.service.server.ServiceRoundRunner`) streams privatized
    report batches through an :class:`~repro.service.server.AggregationServer`
    instead.  Runners must consume the provided generator exactly like the
    oracle's own per-batch perturbation would, which is what keeps the two
    paths bit-identical for a fixed seed.
    """

    @abc.abstractmethod
    def run_round(
        self,
        oracle: FrequencyOracle,
        values: np.ndarray,
        domain: CandidateDomain,
        rng,
        *,
        mode: str,
    ) -> EstimationResult:
        """Run one FO round of ``values`` over ``domain`` and estimate counts."""


@dataclass
class DirectRoundRunner(RoundRunner):
    """The in-memory path: one ``oracle.run`` call per round."""

    batch_size: int | None = None

    def run_round(
        self,
        oracle: FrequencyOracle,
        values: np.ndarray,
        domain: CandidateDomain,
        rng,
        *,
        mode: str,
    ) -> EstimationResult:
        return oracle.run(
            values, domain.size, rng, mode=mode, batch_size=self.batch_size
        )


class PartyEstimator:
    """Runs the levelled LDP estimation for a single party.

    Parameters
    ----------
    party:
        The party whose users report.
    config:
        Protocol parameters.
    oracle:
        The ε-LDP frequency oracle every user reports through.
    rng:
        Generator driving grouping and perturbation for this party.
    accountant:
        Optional privacy accountant; every report is recorded into it.
    round_runner:
        Strategy executing the raw FO rounds (default: the in-memory
        :class:`DirectRoundRunner` honouring ``config.report_batch_size``).
        Service-mode mechanisms inject a
        :class:`repro.service.server.ServiceRoundRunner` here.
    """

    def __init__(
        self,
        party: Party,
        config: MechanismConfig,
        oracle: FrequencyOracle,
        rng,
        accountant: PrivacyAccountant | None = None,
        round_runner: RoundRunner | None = None,
    ):
        self.party = party
        self.config = config
        self.oracle = oracle
        self.rng = as_generator(rng)
        self.accountant = accountant
        if round_runner is None:
            round_runner = DirectRoundRunner(config.effective_report_batch_size)
        self.round_runner = round_runner
        self.level_prefix_lengths = level_lengths(config.n_bits, config.granularity)
        self.groups = self._allocate_groups()

    # ------------------------------------------------------------------ #
    # User allocation
    # ------------------------------------------------------------------ #
    def _allocate_groups(self) -> dict[int, np.ndarray]:
        """Assign users to levels 1..g, honouring ``phase1_user_fraction``.

        Each user belongs to exactly one level group, which is what makes a
        single ε per user sufficient (parallel composition across disjoint
        groups, Theorem 5.1).
        """
        g = self.config.granularity
        gs = self.config.effective_shared_level
        n = self.party.n_users
        fraction = self.config.phase1_user_fraction
        if fraction is None or gs >= g:
            groups = split_into_groups(n, g, self.rng)
            return {h: groups[h - 1] for h in range(1, g + 1)}

        # ``fraction`` is the per-level share of users for each phase-I level
        # (the paper's 10% warm-start heuristic), so phase I receives
        # ``g_s * fraction`` of the population overall, capped at half.
        n_phase1 = int(round(n * min(0.5, fraction * gs)))
        n_phase1 = min(n_phase1, n - (g - gs))  # keep phase II non-empty
        n_phase1 = max(n_phase1, gs)
        permutation = self.rng.permutation(n)
        phase1_users = permutation[:n_phase1]
        phase2_users = permutation[n_phase1:]
        phase1_groups = split_into_groups(phase1_users.size, gs, self.rng)
        phase2_groups = split_into_groups(phase2_users.size, g - gs, self.rng)
        allocation: dict[int, np.ndarray] = {}
        for h in range(1, gs + 1):
            allocation[h] = np.sort(phase1_users[phase1_groups[h - 1]])
        for h in range(gs + 1, g + 1):
            allocation[h] = np.sort(phase2_users[phase2_groups[h - gs - 1]])
        return allocation

    def users_at_level(self, level: int) -> np.ndarray:
        """Indices of the users assigned to report at ``level``."""
        return self.groups[level]

    def prefix_length(self, level: int) -> int:
        """``l_h`` for this configuration."""
        return self.level_prefix_lengths[level - 1]

    # ------------------------------------------------------------------ #
    # Domain construction
    # ------------------------------------------------------------------ #
    def build_domain(
        self, level: int, previous_selected: list[str] | None
    ) -> CandidateDomain:
        """Construct ``Λ_h`` by extending the previous level's selection.

        At level 1 (``previous_selected is None`` or empty) the full domain
        of all length-``l_1`` prefixes is used, as in Algorithm 2.
        """
        length = self.prefix_length(level)
        prev_length = self.prefix_length(level - 1) if level > 1 else 0
        if not previous_selected:
            return CandidateDomain.full_domain(length, include_dummy=True)
        base = CandidateDomain(previous_selected, include_dummy=False)
        return base.extended(previous_selected, length - prev_length, include_dummy=True)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_on_users(
        self, user_indices: np.ndarray, domain: CandidateDomain
    ) -> LevelOutcome:
        """Run the FO for the given users over ``domain`` and estimate counts."""
        items = self.party.items[np.asarray(user_indices, dtype=np.int64)]
        values = domain.encode_items(items, self.config.n_bits)
        result = self.round_runner.run_round(
            self.oracle,
            values,
            domain,
            self.rng,
            mode=self.config.simulation_mode,
        )
        if self.accountant is not None:
            self.accountant.record(
                user_indices,
                party=self.party.name,
                level=domain.prefix_length,
                epsilon=self.oracle.epsilon,
                oracle=self.oracle.name,
                domain_size=domain.size,
            )
        counts = {
            prefix: float(count)
            for prefix, count in zip(domain.prefixes, result.estimated_counts)
        }
        freqs = {
            prefix: float(freq)
            for prefix, freq in zip(domain.prefixes, result.estimated_frequencies)
        }
        sigma = self.oracle.std(max(int(user_indices.size), 1), domain.size)
        return LevelOutcome(
            counts=counts,
            frequencies=freqs,
            sigma=sigma,
            n_users=int(user_indices.size),
            domain_size=domain.size,
        )

    def select_extension(
        self, outcome: LevelOutcome, *, k: int | None = None
    ) -> tuple[list[str], int, dict]:
        """Choose which prefixes to extend from a level outcome.

        Returns ``(selected_prefixes, t, info)`` where ``info`` carries the
        anchor/drift diagnostics for adaptive extension.
        """
        k = k if k is not None else self.config.k
        ranked = sorted(outcome.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        freqs_sorted = np.array([kv[1] for kv in ranked], dtype=np.float64)
        freqs_sorted = freqs_sorted / max(outcome.n_users, 1)
        if self.config.extension is ExtensionStrategy.ADAPTIVE:
            t, k_star, eta = adaptive_extension_count(freqs_sorted, k, outcome.sigma)
            info = {"k_star": k_star, "eta": eta, "strategy": "adaptive"}
        else:
            t = min(self.config.effective_fixed_extension, len(ranked))
            info = {"strategy": "fixed"}
        t = max(1, min(t, len(ranked)))
        selected = [prefix for prefix, _ in ranked[:t]]
        return selected, t, info

    def estimate_level(
        self,
        level: int,
        domain: CandidateDomain,
        user_indices: np.ndarray | None = None,
        *,
        k: int | None = None,
        pruned: list[str] | None = None,
    ) -> LevelEstimate:
        """Full ``Estimate`` step: FO round + extension selection at ``level``."""
        if user_indices is None:
            user_indices = self.users_at_level(level)
        outcome = self.estimate_on_users(user_indices, domain)
        selected, t, info = self.select_extension(outcome, k=k)
        return LevelEstimate(
            level=level,
            prefix_length=domain.prefix_length,
            candidate_prefixes=domain.prefixes,
            estimated_counts=outcome.counts,
            estimated_frequencies=outcome.frequencies,
            selected_prefixes=selected,
            extension_count=t,
            n_users=outcome.n_users,
            domain_size=outcome.domain_size,
            pruned_prefixes=list(pruned or []),
        )
