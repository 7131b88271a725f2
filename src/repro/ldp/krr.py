"""k-ary randomised response (k-RR / GRR).

Given privacy budget ε and a candidate domain of size ``d``, a user holding
value ``x`` reports ``x`` with probability ``p = e^ε / (d - 1 + e^ε)`` and
each other value with probability ``q = 1 / (d - 1 + e^ε)``.  k-RR is the
paper's default FO (Section 7.1) because candidate domains stay small after
prefix pruning.
"""

from __future__ import annotations

import numpy as np

from repro.ldp.base import FrequencyOracle
from repro.utils.rng import RandomState, as_generator


class KRandomizedResponse(FrequencyOracle):
    """The k-RR mechanism (generalised randomised response)."""

    name = "krr"

    def support_probabilities(self, domain_size: int) -> tuple[float, float]:
        if domain_size < 2:
            # Degenerate single-candidate domain: the report is always the
            # candidate, which conveys nothing and costs no privacy in effect.
            return 1.0, 0.0
        e_eps = np.exp(self.epsilon)
        denom = domain_size - 1 + e_eps
        return float(e_eps / denom), float(1.0 / denom)

    def perturb(
        self, values: np.ndarray, domain_size: int, rng: RandomState = None
    ) -> np.ndarray:
        """Return one reported candidate index per user."""
        gen = as_generator(rng)
        values = np.asarray(values, dtype=np.int64)
        n = values.size
        if domain_size < 2 or n == 0:
            return values.copy()
        p, _ = self.support_probabilities(domain_size)
        keep = gen.random(n) < p
        # Sample a uniformly random *other* value by drawing from the
        # (d-1)-sized domain excluding the true value, then shifting.
        others = gen.integers(0, domain_size - 1, size=n)
        others = others + (others >= values)
        return np.where(keep, values, others)

    def support_counts(self, reports: np.ndarray, domain_size: int) -> np.ndarray:
        """A k-RR report supports exactly the value it names."""
        reports = np.asarray(reports)
        if not np.issubdtype(reports.dtype, np.integer):
            # Only copy on dtype mismatch: wire decodes arrive as the
            # smallest unsigned dtype and bincount takes them as-is.
            reports = reports.astype(np.int64)
        return np.bincount(reports, minlength=domain_size).astype(np.int64, copy=False)

    def sample_support_counts(
        self, true_counts: np.ndarray, rng: RandomState = None
    ) -> np.ndarray:
        """Exact aggregate sampling for k-RR.

        Reports form a partition of the users (each report supports exactly
        one candidate), so supports follow a sum of multinomials rather than
        independent binomials.
        """
        gen = as_generator(rng)
        true_counts = np.asarray(true_counts, dtype=np.int64)
        d = true_counts.size
        if d < 2:
            return true_counts.copy()
        p, q = self.support_probabilities(d)
        supports = np.zeros(d, dtype=np.int64)
        for idx in np.flatnonzero(true_counts):
            probs = np.full(d, q)
            probs[idx] = p
            supports += gen.multinomial(int(true_counts[idx]), probs)
        return supports

    def variance(self, n_users: int, domain_size: int) -> float:
        """Var[f_hat] = (d - 2 + e^ε) / ((e^ε - 1)^2 n)  (Wang et al. 2017)."""
        if n_users <= 0:
            return float("inf")
        e_eps = np.exp(self.epsilon)
        return float((domain_size - 2 + e_eps) / ((e_eps - 1.0) ** 2 * n_users))
