"""Shared implementation of the unary-encoding oracles (OUE, SUE).

Both unary oracles one-hot encode the user's value into a length-``d``
bit vector and flip bits independently; they differ only in the keep/flip
probabilities ``(p, q)``.  Everything mechanical about unary reports —
sparse perturbation into the packed report form and the packed-domain
accumulation kernel — lives here so the concrete oracles stay what they
are on paper: a pair of probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.ldp.base import FrequencyOracle
from repro.ldp.packed import PackedUnaryReports, sample_unary_reports
from repro.utils.rng import RandomState


class UnaryEncodingOracle(FrequencyOracle):
    """Base class for unary (bit-vector) frequency oracles.

    A report batch has one form, in memory and on the wire alike:
    :class:`~repro.ldp.packed.PackedUnaryReports`, ``ceil(d/8)`` packed
    bytes per user.  A caller holding an ``(n, d)`` boolean matrix packs
    it with :meth:`PackedUnaryReports.from_matrix`; one that wants the
    matrix calls :meth:`PackedUnaryReports.unpack`.
    """

    def perturb(
        self, values: np.ndarray, domain_size: int, rng: RandomState = None
    ) -> PackedUnaryReports:
        """Return one packed perturbed bit vector per user."""
        p, q = self.support_probabilities(domain_size)
        return sample_unary_reports(values, domain_size, rng, p, q)

    def support_counts(self, reports, domain_size: int) -> np.ndarray:
        if not isinstance(reports, PackedUnaryReports):
            raise ValueError(
                f"{self.name} reports must be PackedUnaryReports, got "
                f"{type(reports).__name__}"
            )
        if reports.domain_size != int(domain_size):
            raise ValueError(
                f"packed reports cover domain size {reports.domain_size}, "
                f"expected {domain_size}"
            )
        return reports.column_counts()

    # Aliases that exist only so the traced benchmark's wraps of these two
    # names (perfbench/spans.py) still resolve; they go with ROADMAP item 6,
    # which drops those wraps.
    perturb_packed = perturb
    accumulate_packed = FrequencyOracle.accumulate
