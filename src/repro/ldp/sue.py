"""Symmetric unary encoding (SUE, a.k.a. basic one-time RAPPOR).

SUE one-hot encodes the value like OUE but flips every bit symmetrically:
the true bit is kept with probability ``p = e^{ε/2} / (e^{ε/2} + 1)`` and a
zero bit is flipped with probability ``q = 1 - p``.  Its estimation variance
is strictly worse than OUE's (that is exactly the optimisation OUE makes),
so it is not used by the paper's experiments; it is included as an extension
to (a) demonstrate the FO interface is genuinely pluggable and (b) serve as
a worked example for adding new oracles.

Report mechanics (sparse sampling into packed reports, packed-domain
accumulation) are shared with OUE via
:class:`~repro.ldp.unary.UnaryEncodingOracle`.
"""

from __future__ import annotations

import numpy as np

from repro.ldp.unary import UnaryEncodingOracle


class SymmetricUnaryEncoding(UnaryEncodingOracle):
    """The SUE / basic RAPPOR mechanism (symmetric bit flipping)."""

    name = "sue"

    def support_probabilities(self, domain_size: int) -> tuple[float, float]:
        half = np.exp(self.epsilon / 2.0)
        p = half / (half + 1.0)
        return float(p), float(1.0 - p)

    def variance(self, n_users: int, domain_size: int) -> float:
        """Var[f_hat] = q(1-q) / (n (p-q)^2) with the symmetric p, q."""
        if n_users <= 0:
            return float("inf")
        p, q = self.support_probabilities(domain_size)
        return float(q * (1.0 - q) / (n_users * (p - q) ** 2))

    def report_bits(self, domain_size: int) -> int:
        """Like OUE, a SUE report is the full perturbed bit vector."""
        return int(domain_size)
