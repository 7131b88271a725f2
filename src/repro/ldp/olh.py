"""Optimised local hashing (OLH).

Each user hashes her value into a small domain ``[d']`` with a universal
hash function chosen uniformly at random (here: a seeded mixing hash), then
reports the hashed value through randomised response over ``[d']`` with
``d' = ceil(e^ε + 1)``.  A report ``(seed, y)`` *supports* candidate ``x``
iff ``H_seed(x) == y``; decoding therefore costs a full scan of the
candidate domain per report, which is why the paper flags OLH as the
computation-heavy option (Table 1, Table 4).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ldp.base import FrequencyOracle
from repro.utils.rng import RandomState, as_generator

# 64-bit mixing constants (splitmix64-style) for the seeded universal hash.
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

#: Cap on the number of (candidate, report) hash evaluations per decode
#: block.  A call allocates its scratch once, sized to its first block: two
#: uint64 buffers (the hash state and the shift/quotient temporary, 256 KiB
#: each) and one bool buffer (32 KiB), about 544 KiB in all, inside a
#: per-core L2, however large the candidate domain or the report batch
#: grows.  Chosen by measurement on a 2-core Xeon VM: replaying the 26
#: decode calls of one TAPS discovery (5–133 candidates × 453–11,466
#: reports, 7.1M evaluations), the median of 31 interleaved runs is 42 ms
#: at ``1 << 15`` against 51 ms at ``1 << 14`` and 46 ms at ``1 << 16``.
_DECODE_BLOCK_ELEMENTS = 1 << 15

#: Reports per inner decode block; the candidate chunk is derived from it
#: so the block never exceeds :data:`_DECODE_BLOCK_ELEMENTS` elements.
_DECODE_REPORT_BLOCK = 1 << 14


def _mix_reduce(x: np.ndarray, tmp: np.ndarray, n_buckets: np.uint64) -> np.ndarray:
    """Finish the seeded hash in place: mix ``x``, then reduce it into ``[0, n_buckets)``.

    ``x`` holds ``(seed + GOLDEN) ^ (value * GOLDEN)`` as uint64 and ``tmp``
    is uint64 scratch of the same shape; both are overwritten and ``x`` is
    returned.  The mix is the splitmix64 avalanche.  The reduction is
    ``x - (x // n) * n``, which equals ``x % n`` exactly: NumPy divides a
    uint64 array by a scalar through libdivide (about 0.5 ns per element),
    while its scalar ``%`` runs a hardware division per element (about
    4 ns), half of the whole decode.  Both :func:`_universal_hash` (the
    client side) and the decode scan call this one function, so the two
    sides cannot drift apart.
    """
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _MIX_1
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _MIX_2
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    np.floor_divide(x, n_buckets, out=tmp)
    tmp *= n_buckets
    x -= tmp
    return x


def _universal_hash(seeds: np.ndarray, values: np.ndarray, n_buckets: int) -> np.ndarray:
    """Hash ``values`` with per-user ``seeds`` into ``[0, n_buckets)``.

    The function mimics drawing a hash function uniformly from a universal
    family: two users with different seeds hash the same value to
    (approximately) independent buckets.
    """
    x = np.asarray(
        (np.asarray(seeds, dtype=np.uint64) + _GOLDEN)
        ^ (np.asarray(values, dtype=np.uint64) * _GOLDEN)
    )
    return _mix_reduce(x, np.empty_like(x), np.uint64(n_buckets)).astype(np.int64)


class OptimizedLocalHashing(FrequencyOracle):
    """The OLH mechanism (hash + randomised response)."""

    name = "olh"

    def hash_domain_size(self) -> int:
        """The optimal hashed-domain size ``d' = ceil(e^ε + 1)`` (>= 2)."""
        return max(2, int(math.ceil(math.exp(self.epsilon) + 1.0)))

    def support_probabilities(self, domain_size: int) -> tuple[float, float]:
        d_prime = self.hash_domain_size()
        e_eps = math.exp(self.epsilon)
        p = e_eps / (d_prime - 1 + e_eps)
        q = 1.0 / d_prime
        return float(p), float(q)

    def perturb(
        self, values: np.ndarray, domain_size: int, rng: RandomState = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(seeds, reports)``: per-user hash seeds and perturbed buckets."""
        gen = as_generator(rng)
        values = np.asarray(values, dtype=np.int64)
        n = values.size
        d_prime = self.hash_domain_size()
        seeds = gen.integers(0, 2**63 - 1, size=n, dtype=np.int64)
        hashed = _universal_hash(seeds, values, d_prime)
        e_eps = math.exp(self.epsilon)
        p_report = e_eps / (d_prime - 1 + e_eps)
        keep = gen.random(n) < p_report
        others = gen.integers(0, d_prime - 1, size=n)
        others = others + (others >= hashed)
        reports = np.where(keep, hashed, others)
        return seeds, reports

    def support_counts(
        self, reports: tuple[np.ndarray, np.ndarray], domain_size: int
    ) -> np.ndarray:
        """Count, for every candidate, the reports whose hash matches the report.

        Decoding is still an exact full scan — O(n · d) hash evaluations, as
        in the paper's complexity analysis — but vectorised over candidate
        chunks: a ``(chunk, n)`` block is hashed in one NumPy call instead
        of one Python-level pass per candidate.
        """
        return self.support_counts_range(reports, 0, int(domain_size))

    def support_counts_range(
        self, reports: tuple[np.ndarray, np.ndarray], start: int, stop: int
    ) -> np.ndarray:
        """Exact support counts for the candidate range ``[start, stop)``.

        :meth:`support_counts` is this scan over the whole domain; ranges
        partitioning the domain concatenate to exactly its result.

        The scan is blocked over (candidate-chunk × report-chunk).  Each
        block runs a fixed sequence of ufuncs with ``out=`` into scratch
        allocated once per call, sized to the first block (ragged edge
        blocks use a contiguous prefix of it), so the working set stays
        cache-resident for any batch size and no block allocates.  The
        scratch belongs to the call, never to the module or the oracle, so
        one oracle may decode on several threads at once.
        The bucket reduction is ``x - (x // d') * d'``, not ``x % d'``: the
        same remainder, but NumPy's scalar ``%`` on uint64 was half the
        cost of a block (see :func:`_mix_reduce`).  Integer partial sums
        make the blocking bit-identical to a flat scan; a block row holds
        at most ``r_block`` matches, so it is summed in the smallest
        unsigned dtype that holds ``r_block``.  Wire-decoded report views
        (int64 seed view, small-uint bucket view) are consumed without
        copies.
        """
        seeds, ys = reports
        seeds = np.asarray(seeds)
        ys = np.asarray(ys)
        if not 0 <= start <= stop:
            raise ValueError(f"invalid candidate range [{start}, {stop})")
        d_prime = np.uint64(self.hash_domain_size())
        counts = np.zeros(stop - start, dtype=np.int64)
        n = int(seeds.size)
        if n == 0:
            return counts
        # Hoist the per-report and per-candidate halves of the hash out of
        # both loops.
        seeds_mixed = seeds.astype(np.uint64, copy=False) + _GOLDEN
        ys_u64 = ys.astype(np.uint64, copy=False)
        cand_mixed = np.arange(start, stop, dtype=np.uint64) * _GOLDEN
        r_block = min(n, _DECODE_REPORT_BLOCK)
        c_chunk = max(1, _DECODE_BLOCK_ELEMENTS // r_block)
        row_dtype = np.min_scalar_type(r_block)
        size = min(c_chunk, stop - start) * r_block
        x_buf = np.empty(size, dtype=np.uint64)
        tmp_buf = np.empty(size, dtype=np.uint64)
        eq_buf = np.empty(size, dtype=np.bool_)
        for lo in range(0, stop - start, c_chunk):
            hi = min(lo + c_chunk, stop - start)
            cand_column = cand_mixed[lo:hi, np.newaxis]
            for rlo in range(0, n, r_block):
                rhi = min(rlo + r_block, n)
                shape = (hi - lo, rhi - rlo)
                m = shape[0] * shape[1]
                x = x_buf[:m].reshape(shape)
                eq = eq_buf[:m].reshape(shape)
                np.bitwise_xor(seeds_mixed[rlo:rhi], cand_column, out=x)
                _mix_reduce(x, tmp_buf[:m].reshape(shape), d_prime)
                np.equal(x, ys_u64[rlo:rhi], out=eq)
                counts[lo:hi] += eq.view(np.uint8).sum(axis=1, dtype=row_dtype)
        return counts

    def n_reports(self, reports: tuple[np.ndarray, np.ndarray]) -> int:
        """An OLH batch holds one (seed, bucket) pair per user."""
        seeds, _ = reports
        return int(np.asarray(seeds).shape[0])

    def report_value_domain(self, domain_size: int) -> int:
        """OLH bucket reports live in the hashed domain ``[0, d')``."""
        return self.hash_domain_size()

    def variance(self, n_users: int, domain_size: int) -> float:
        """Var[f_hat] = 4 e^ε / ((e^ε - 1)^2 n), same as OUE (Wang et al. 2017)."""
        if n_users <= 0:
            return float("inf")
        e_eps = math.exp(self.epsilon)
        return float(4.0 * e_eps / ((e_eps - 1.0) ** 2 * n_users))

    def report_bits(self, domain_size: int) -> int:
        """An OLH report is a hash seed plus a bucket index (≈ 64 + log2 d' bits)."""
        d_prime = self.hash_domain_size()
        return 64 + max(1, int(math.ceil(math.log2(d_prime))))
