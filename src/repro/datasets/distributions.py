"""Item-frequency laws used by the dataset generators.

The paper's synthetic SYN dataset draws per-party frequency distributions
from Zipf and Poisson families; the real-world corpora are word/item
frequency distributions which are themselves heavy-tailed.  These helpers
turn a distribution family + parameters into a normalised frequency vector
over ``n_items`` ranks, and sample user items from such a vector.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive


def zipf_frequencies(n_items: int, exponent: float, shift: float = 0.0) -> np.ndarray:
    """Normalised (shifted) Zipf frequencies ``f_r ∝ 1 / (r + shift)^exponent``.

    The ``shift`` flattens the head of the distribution: real large
    vocabularies (the paper's corpora have 30k–160k distinct items) have
    top-ranked items whose frequencies are close to each other rather than a
    single dominant item, and the shifted law reproduces that shape at the
    smaller vocabulary sizes used in laptop-scale runs.
    """
    check_positive("n_items", n_items)
    check_positive("exponent", exponent)
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = (ranks + float(shift)) ** (-float(exponent))
    return weights / weights.sum()


def poisson_frequencies(n_items: int, lam: float) -> np.ndarray:
    """Normalised Poisson-pmf frequencies over ranks 0..n-1.

    ``f_r ∝ Poisson(lam).pmf(r)``; the mode sits near ``lam`` which produces
    a "bump"-shaped popularity profile (the paper uses λ ∈ {4, 6, 8, 10}).
    Ranks far in the tail receive a tiny positive floor so every item of the
    domain remains observable.
    """
    check_positive("n_items", n_items)
    check_positive("lam", lam)
    # Imported here: scipy.stats is slow to import and nothing else needs it.
    from scipy import stats

    ranks = np.arange(n_items, dtype=np.float64)
    weights = stats.poisson.pmf(ranks, mu=float(lam))
    weights = weights + 1e-12
    return weights / weights.sum()


def sample_from_frequencies(
    frequencies: np.ndarray,
    item_ids: np.ndarray,
    n_samples: int,
    rng: RandomState = None,
) -> np.ndarray:
    """Draw ``n_samples`` items (with replacement) according to ``frequencies``.

    Parameters
    ----------
    frequencies:
        Probability vector over the entries of ``item_ids``.
    item_ids:
        The item ids that the probability vector indexes.
    n_samples:
        Number of users to draw.
    """
    frequencies = np.asarray(frequencies, dtype=np.float64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    if frequencies.shape != item_ids.shape:
        raise ValueError(
            f"frequencies and item_ids must align, got {frequencies.shape} vs {item_ids.shape}"
        )
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    if frequencies.size == 0:
        raise ValueError("cannot sample from an empty frequency vector")
    total = frequencies.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("frequencies must sum to a positive finite value")
    gen = as_generator(rng)
    probs = frequencies / total
    idx = gen.choice(item_ids.size, size=n_samples, replace=True, p=probs)
    return item_ids[idx]


def scatter_item_ids(
    n_items: int, n_bits: int, rng: RandomState = None
) -> np.ndarray:
    """Assign ``n_items`` distinct random ids within the ``2**n_bits`` code space.

    Real vocabularies occupy an arbitrary, sparse subset of the encodable
    domain (the paper encodes 30k–160k items into a 2^48 space).  Scattering
    ids uniformly keeps trie prefixes informative instead of concentrating
    every item under the all-zero shallow branch that dense ids would create.
    """
    check_positive("n_items", n_items)
    check_positive("n_bits", n_bits)
    capacity = 1 << n_bits
    if n_items > capacity:
        raise ValueError(
            f"cannot place {n_items} items into a {n_bits}-bit domain of size {capacity}"
        )
    gen = as_generator(rng)
    if n_items == capacity:
        return gen.permutation(capacity).astype(np.int64)
    # Rejection-free sampling of distinct ids: oversample, deduplicate, top up.
    ids: np.ndarray = np.unique(gen.integers(0, capacity, size=2 * n_items))
    while ids.size < n_items:
        extra = gen.integers(0, capacity, size=2 * n_items)
        ids = np.unique(np.concatenate([ids, extra]))
    chosen = gen.choice(ids, size=n_items, replace=False)
    return chosen.astype(np.int64)


def perturbed_ranking(
    n_items: int, noise_scale: float, rng: RandomState = None
) -> np.ndarray:
    """A permutation of ``range(n_items)`` that is a noisy version of identity.

    Used to give each party its own popularity ordering that correlates with
    the global ordering: item at global rank ``r`` lands near rank
    ``r + Normal(0, noise_scale * n_items)``.  ``noise_scale = 0`` returns the
    identity; large values approach a uniform permutation.
    """
    check_positive("n_items", n_items)
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    gen = as_generator(rng)
    base = np.arange(n_items, dtype=np.float64)
    jitter = gen.normal(0.0, noise_scale * n_items, size=n_items)
    return np.argsort(base + jitter, kind="stable").astype(np.int64)
