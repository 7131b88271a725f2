"""Theoretical utility results (Theorem 5.2 and FO variance curves).

Theorem 5.2 bounds the probability that the adaptive extension strategy is
useless — i.e. that it picks the *same* constant extension number at every
one of the ``g`` iterations.  The bound is

``Pr[A] <= (P_x)^g`` with ``P_x = Pr[Φ(−δ_f / (2σ)) > 2√π / (3k + 1)]``,

where ``δ_f`` is the largest gap between neighbouring frequencies among the
tail of the top ``2k`` prefixes and ``σ`` the FO's standard deviation.  With
the observed frequency gaps treated as fixed, ``P_x`` is the indicator of
that inequality, so the bound decays geometrically in ``g`` whenever the
inequality fails and is vacuous (1.0) otherwise — the module exposes both
the indicator form and the raw Gaussian tail value so callers can study the
regime boundary.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_positive


def constant_extension_probability(delta_f: float, sigma: float, k: int) -> float:
    """The per-iteration quantity ``P_x`` of Theorem 5.2.

    Returns 1.0 when ``Φ(−δ_f / (2σ)) > 2√π / (3k + 1)`` and 0.0 otherwise
    (the frequencies/σ are observed constants, so the inner event is
    deterministic).  A ``σ <= 0`` (noise-free) FO gives 0.0 whenever
    ``δ_f > 0``.
    """
    check_positive("k", k)
    if delta_f < 0:
        raise ValueError(f"delta_f must be >= 0, got {delta_f}")
    threshold = 2.0 * math.sqrt(math.pi) / (3.0 * k + 1.0)
    return 1.0 if gaussian_tail(delta_f, sigma) > threshold else 0.0


def gaussian_tail(delta_f: float, sigma: float) -> float:
    """``Φ(−δ_f / (2σ))`` — the raw Gaussian tail used inside Theorem 5.2."""
    if sigma <= 0:
        return 0.5 if delta_f == 0 else 0.0
    # Imported here, not at module load: see repro.core.extension.
    from scipy.special import ndtr

    return float(ndtr(-delta_f / (2.0 * sigma)))


def adaptive_extension_failure_bound(
    delta_f: float, sigma: float, k: int, granularity: int
) -> float:
    """Theorem 5.2: ``Pr[A] <= (P_x)^g`` over ``g`` iterations."""
    check_positive("granularity", granularity)
    p_x = constant_extension_probability(delta_f, sigma, k)
    return float(p_x**granularity)


def oracle_variance_curve(
    oracle_name: str,
    epsilon_values: np.ndarray,
    n_users: int,
    domain_size: int,
) -> np.ndarray:
    """Frequency-estimate variance of an FO across privacy budgets.

    Used to visualise the premise of Theorem 5.2 (smaller σ ⇒ smaller
    failure probability) and by the Figure 6 discussion of FO choice.
    """
    from repro.ldp.registry import make_oracle

    check_positive("n_users", n_users)
    check_positive("domain_size", domain_size)
    epsilon_values = np.asarray(epsilon_values, dtype=np.float64)
    if epsilon_values.size == 0:
        return np.zeros(0)
    variances = []
    for eps in epsilon_values:
        oracle = make_oracle(oracle_name, float(eps))
        variances.append(oracle.variance(n_users, domain_size))
    return np.asarray(variances, dtype=np.float64)
