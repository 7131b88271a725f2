"""Optimised unary encoding (OUE).

The user's value is one-hot encoded into a length-``d`` bit vector; the
``1`` bit is kept with probability ``p = 1/2`` and every ``0`` bit is
flipped to ``1`` with probability ``q = 1/(e^ε + 1)``.  OUE has the lowest
estimation variance among unary encodings but each report costs ``d`` bits
of communication, which is exactly the cost trade-off Table 1 and Table 4 of
the paper quantify.

Report mechanics (sparse sampling into packed reports, packed-domain
accumulation) are shared with SUE via
:class:`~repro.ldp.unary.UnaryEncodingOracle`.
"""

from __future__ import annotations

import numpy as np

from repro.ldp.unary import UnaryEncodingOracle


class OptimizedUnaryEncoding(UnaryEncodingOracle):
    """The OUE mechanism (one-hot encoding with asymmetric flipping)."""

    name = "oue"

    def support_probabilities(self, domain_size: int) -> tuple[float, float]:
        p = 0.5
        q = 1.0 / (np.exp(self.epsilon) + 1.0)
        return float(p), float(q)

    def variance(self, n_users: int, domain_size: int) -> float:
        """Var[f_hat] = 4 e^ε / ((e^ε - 1)^2 n)  (Wang et al. 2017)."""
        if n_users <= 0:
            return float("inf")
        e_eps = np.exp(self.epsilon)
        return float(4.0 * e_eps / ((e_eps - 1.0) ** 2 * n_users))

    def report_bits(self, domain_size: int) -> int:
        """Each OUE report is the full perturbed bit vector."""
        return int(domain_size)
