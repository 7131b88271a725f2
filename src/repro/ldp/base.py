"""Abstract frequency-oracle interface and estimation result container.

The heavy-hitter mechanisms only rely on this interface, which makes the FO
pluggable (Figure 6 of the paper swaps k-RR for OUE and OLH without touching
the trie logic).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive

SimulationMode = Literal["per_user", "aggregate"]


@dataclass(frozen=True)
class EstimationResult:
    """Output of a frequency-oracle round over a candidate domain.

    Attributes
    ----------
    support_counts:
        Raw number of reports supporting each candidate (length = domain size).
    estimated_counts:
        Unbiased estimates of the true counts, may be negative due to noise.
    estimated_frequencies:
        ``estimated_counts / n_users`` (zeros when no users participated).
    n_users:
        Number of users that reported in this round.
    domain_size:
        Size of the candidate domain the oracle operated on.
    oracle_name:
        Name of the FO that produced the estimates.
    epsilon:
        Privacy budget used by each report.
    """

    support_counts: np.ndarray
    estimated_counts: np.ndarray
    estimated_frequencies: np.ndarray
    n_users: int
    domain_size: int
    oracle_name: str
    epsilon: float
    metadata: dict = field(default_factory=dict)

    def top_indices(self, k: int) -> np.ndarray:
        """Indices of the ``k`` largest estimated counts, sorted descending."""
        if k <= 0:
            return np.array([], dtype=np.int64)
        k = min(k, self.estimated_counts.size)
        order = np.argsort(self.estimated_counts, kind="stable")[::-1]
        return order[:k]


class FrequencyOracle(abc.ABC):
    """Base class for ε-LDP frequency oracles over a finite candidate domain.

    Subclasses define how a report is produced (:meth:`perturb`), how reports
    are tallied into per-candidate support counts (:meth:`support_counts`),
    and the support probabilities ``(p, q)`` with which a report supports the
    user's true candidate vs. any other candidate.  Everything else (unbiased
    estimation, variance, the fast aggregate sampling path) is shared.
    """

    #: Short, stable identifier used by the registry and in benchmark output.
    name: str = "fo"

    def __init__(self, epsilon: float):
        check_positive("epsilon", epsilon)
        self.epsilon = float(epsilon)

    # ------------------------------------------------------------------ #
    # Core probabilities
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def support_probabilities(self, domain_size: int) -> tuple[float, float]:
        """Return ``(p, q)``: probability a report supports the true value / another value."""

    # ------------------------------------------------------------------ #
    # Per-user simulation path
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def perturb(
        self, values: np.ndarray, domain_size: int, rng: RandomState = None
    ) -> object:
        """Produce one sanitised report per user.

        ``values`` are candidate indices in ``[0, domain_size)``.  The report
        representation is oracle-specific (indices for k-RR, packed bit
        vectors for OUE/SUE, (seed, hashed report) pairs for OLH).
        """

    @abc.abstractmethod
    def support_counts(self, reports: object, domain_size: int) -> np.ndarray:
        """Tally reports into per-candidate support counts."""

    # ------------------------------------------------------------------ #
    # Chunked accumulation (the online-aggregation path)
    # ------------------------------------------------------------------ #
    def n_reports(self, reports: object) -> int:
        """Number of user reports contained in a report batch.

        Array-shaped reports (k-RR indices) count their leading axis;
        oracles with structured reports (OLH's ``(seeds, buckets)`` pair)
        override.  Report containers that carry an ``n_users`` attribute
        (packed unary batches) answer from it directly, without
        materialising anything.
        """
        n_users = getattr(reports, "n_users", None)
        if n_users is not None:
            return int(n_users)
        return int(np.asarray(reports).shape[0])

    def report_value_domain(self, domain_size: int) -> int:
        """Size of the per-report value domain as shipped on the wire.

        Equals the candidate domain for most oracles; OLH overrides with the
        hashed domain ``d'`` its bucket reports live in.
        """
        return int(domain_size)

    def accumulate(
        self, counts: np.ndarray, reports: object, domain_size: int
    ) -> np.ndarray:
        """Add a report batch's support counts into an accumulator.

        The batched in-memory path (:meth:`run` with ``batch_size``):
        folding a stream batch by batch never materialises more than one
        batch of reports, and the accumulator stays ``O(domain_size)``.
        A service shard adds the same :meth:`support_counts` vector
        (:meth:`repro.service.shards.LevelShard.ingest`).
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (int(domain_size),):
            raise ValueError(
                f"accumulator has shape {counts.shape}, expected ({domain_size},)"
            )
        return counts + self.support_counts(reports, domain_size)

    def merge_counts(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Combine two support-count accumulators over the same domain.

        Integer addition — associative and commutative, so shards built from
        any partition of a report stream merge to the same totals in any
        order.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError(
                f"cannot merge accumulators of shapes {left.shape} and {right.shape}"
            )
        return left + right

    # ------------------------------------------------------------------ #
    # Aggregate (sampled) simulation path
    # ------------------------------------------------------------------ #
    def sample_support_counts(
        self, true_counts: np.ndarray, rng: RandomState = None
    ) -> np.ndarray:
        """Sample support counts directly from their exact distribution.

        For candidate ``j`` with ``n_j`` true holders out of ``n`` users, the
        number of supporting reports is ``Binomial(n_j, p) + Binomial(n - n_j, q)``
        with ``(p, q)`` the support probabilities.  Subclasses may override
        when supports are not independent across candidates (k-RR overrides
        to use a multinomial).
        """
        gen = as_generator(rng)
        true_counts = np.asarray(true_counts, dtype=np.int64)
        n = int(true_counts.sum())
        p, q = self.support_probabilities(true_counts.size)
        hits = gen.binomial(true_counts, p)
        misses = gen.binomial(n - true_counts, q)
        return (hits + misses).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_counts(
        self, support_counts: np.ndarray, n_users: int, domain_size: int
    ) -> np.ndarray:
        """Unbiased count estimates ``(c - n*q) / (p - q)``."""
        support_counts = np.asarray(support_counts, dtype=np.float64)
        if n_users == 0:
            return np.zeros_like(support_counts)
        p, q = self.support_probabilities(domain_size)
        return (support_counts - n_users * q) / (p - q)

    def variance(self, n_users: int, domain_size: int) -> float:
        """Variance of a single frequency estimate (``Var[f_hat_x]``)."""
        if n_users <= 0:
            return float("inf")
        p, q = self.support_probabilities(domain_size)
        return q * (1.0 - q) / (n_users * (p - q) ** 2)

    def std(self, n_users: int, domain_size: int) -> float:
        """Standard deviation of a single frequency estimate."""
        return float(np.sqrt(self.variance(n_users, domain_size)))

    # ------------------------------------------------------------------ #
    # Cost accounting
    # ------------------------------------------------------------------ #
    def report_bits(self, domain_size: int) -> int:
        """Number of bits a single user report occupies on the wire.

        Defaults to the bits needed to index the domain; OUE overrides with
        the full bit-vector length.
        """
        return max(1, int(np.ceil(np.log2(max(domain_size, 2)))))

    def decode_cost(self, n_users: int, domain_size: int) -> int:
        """Number of elementary operations the server spends decoding reports."""
        return int(n_users) * int(domain_size)

    # ------------------------------------------------------------------ #
    # Convenience end-to-end run
    # ------------------------------------------------------------------ #
    def run(
        self,
        values: np.ndarray,
        domain_size: int,
        rng: RandomState = None,
        *,
        mode: SimulationMode = "per_user",
        batch_size: int | None = None,
    ) -> EstimationResult:
        """Perturb ``values``, tally supports and estimate counts/frequencies.

        Parameters
        ----------
        values:
            Candidate indices in ``[0, domain_size)``, one per user.
        domain_size:
            Size of the candidate domain.
        rng:
            Seed or generator.
        mode:
            ``"per_user"`` materialises every report, ``"aggregate"`` samples
            the support counts from their exact distribution.
        batch_size:
            In ``"per_user"`` mode, perturb and accumulate at most this many
            reports at a time, bounding the report buffer at
            ``O(batch_size × domain_size)`` instead of
            ``O(n_users × domain_size)``.  Batching changes how the RNG
            stream is split across draws (the estimates stay identically
            distributed); for a fixed seed, results are bit-identical to the
            online aggregation service streaming the same batch size.
        """
        check_positive("domain_size", domain_size)
        if batch_size is not None:
            check_positive("batch_size", batch_size)
        gen = as_generator(rng)
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= domain_size):
            raise ValueError("values must be candidate indices within the domain")
        n = int(values.size)
        if mode == "aggregate":
            true_counts = np.bincount(values, minlength=domain_size)
            supports = self.sample_support_counts(true_counts, gen)
        elif mode == "per_user":
            if batch_size is None or batch_size >= n:
                reports = self.perturb(values, domain_size, gen)
                supports = self.support_counts(reports, domain_size)
            else:
                supports = np.zeros(domain_size, dtype=np.int64)
                for start in range(0, n, batch_size):
                    chunk = self.perturb(
                        values[start : start + batch_size], domain_size, gen
                    )
                    supports = self.accumulate(supports, chunk, domain_size)
        else:  # pragma: no cover - guarded by Literal typing in practice
            raise ValueError(f"unknown simulation mode {mode!r}")
        est_counts = self.estimate_counts(supports, n, domain_size)
        est_freqs = est_counts / n if n else np.zeros_like(est_counts)
        return EstimationResult(
            support_counts=np.asarray(supports, dtype=np.int64),
            estimated_counts=est_counts,
            estimated_frequencies=est_freqs,
            n_users=n,
            domain_size=int(domain_size),
            oracle_name=self.name,
            epsilon=self.epsilon,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(epsilon={self.epsilon})"
