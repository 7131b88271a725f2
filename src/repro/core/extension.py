"""Adaptive trie extension (Section 5.4, Equations 2 and 3).

Prior prefix-tree mechanisms extend a fixed number ``t = k`` of prefixes per
level.  The paper's adaptive rule instead chooses

* an **anchor** ``k*`` — the boundary after which noisy frequencies drop off,
  found by maximising the gap between the average of the top ``k*``
  frequencies (excluding the largest) and the average of the remaining
  frequencies up to position ``k + 1`` (Equation 2), and
* a **drift allowance** ``η = min(k, E[x])`` — the expected number of
  positions the anchor prefix can drift downwards under the FO's Gaussian
  noise (Equation 3),

and extends ``t = k* + η`` prefixes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_positive


def select_anchor(sorted_frequencies: np.ndarray, k: int) -> int:
    """Choose the anchor ``k*`` by maximising Equation 2.

    Parameters
    ----------
    sorted_frequencies:
        Noisy frequencies sorted in descending order.
    k:
        The query size.

    Returns
    -------
    int
        The anchor ``k*`` with ``2 <= k* <= min(k, len(freqs))`` (degenerate
        inputs fall back to the largest feasible value).
    """
    check_positive("k", k)
    freqs = np.asarray(sorted_frequencies, dtype=np.float64)
    n = freqs.size
    if n <= 2:
        return min(max(1, n), max(1, k))
    upper = min(k, n - 1)
    if upper < 2:
        return upper if upper >= 1 else 1

    best_k_star = 2
    best_score = -np.inf
    # The tail average always includes positions up to k+1 (clipped to n),
    # which is the "(k+1)-th frequent prefix as an upper bound" of the paper.
    tail_end = min(k + 1, n)
    for k_star in range(2, upper + 1):
        head = freqs[1:k_star]  # exclude the largest (it is always preserved)
        tail = freqs[k_star:tail_end]
        if tail.size == 0:
            tail = freqs[k_star : k_star + 1]
        head_avg = head.sum() / k_star if k_star else 0.0
        tail_avg = tail.mean() if tail.size else 0.0
        score = head_avg - tail_avg
        if score > best_score:
            best_score = score
            best_k_star = k_star
    return best_k_star


def drift_allowance(
    sorted_frequencies: np.ndarray,
    k: int,
    k_star: int,
    sigma: float,
    max_position: int | None = None,
) -> float:
    """Expected drift ``η`` of the anchor prefix under LDP noise (Equation 3).

    The noisy frequency of the prefix at rank ``r`` is modelled as
    ``N(f̂_r, σ²)``; the probability that the anchor (rank ``k*``) is in
    truth below the prefix observed at rank ``k* + x`` is
    ``Φ(−(f̂_{k*} − f̂_{k*+x}) / (σ·√2))``.  ``E[x]`` sums ``x`` weighted by
    these probabilities over the feasible drift range and ``η`` is capped at
    ``k``.

    Parameters
    ----------
    sorted_frequencies:
        Noisy frequencies sorted in descending order.
    k:
        Query size (upper bound for the drift).
    k_star:
        The anchor chosen by :func:`select_anchor`.
    sigma:
        Standard deviation of the FO frequency estimate.
    max_position:
        Largest rank available for drifting (defaults to ``len(freqs)``);
        the paper uses ``π_p^i − k`` (domain size minus k).
    """
    freqs = np.asarray(sorted_frequencies, dtype=np.float64)
    n = freqs.size
    if n == 0 or k_star >= n:
        return 0.0
    if sigma <= 1e-12:
        # Effectively noise-free estimation: the observed order is the truth
        # and no drift allowance is needed (also avoids division overflow).
        return 0.0
    limit = n if max_position is None else min(max_position, n)

    lo = max(1, k_star - k + 1)
    hi = min(k, limit - k_star)
    if hi < lo:
        return 0.0
    # hi <= limit - k_star keeps every drifted rank inside freqs.
    drifts = np.arange(lo, hi + 1)
    deltas = freqs[k_star - 1] - freqs[k_star + drifts - 1]
    # Imported here: scipy.special costs a gateway or CLI process ~0.3 s
    # of start-up, and only a discovery ever reaches this line.
    from scipy.special import ndtr

    probs = ndtr(-deltas / (sigma * math.sqrt(2.0)))
    expectation = 0.0
    for x, prob in zip(drifts.tolist(), probs.tolist()):
        expectation += x * prob
    return min(float(k), expectation)


def adaptive_extension_count(
    sorted_frequencies: np.ndarray, k: int, sigma: float
) -> tuple[int, int, float]:
    """Full adaptive rule: return ``(t, k*, η)`` with ``t = k* + round(η)``.

    The extension count is clipped to ``[1, len(freqs)]`` so the mechanism
    always extends at least one prefix and never more than it has.
    """
    freqs = np.asarray(sorted_frequencies, dtype=np.float64)
    n = freqs.size
    if n == 0:
        return 0, 0, 0.0
    k_star = select_anchor(freqs, k)
    eta = drift_allowance(freqs, k, k_star, sigma)
    t = k_star + int(round(eta))
    t = max(1, min(t, n))
    return t, k_star, eta
