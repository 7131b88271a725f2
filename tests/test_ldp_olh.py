"""Tests for the OLH frequency oracle."""

import math
import sys
import threading

import numpy as np
import pytest

from repro.ldp import olh as olh_module
from repro.ldp.olh import OptimizedLocalHashing, _universal_hash

_U64 = 2**64 - 1


def _python_hash(seed: int, value: int, n_buckets: int) -> int:
    """The seeded OLH hash in pure Python ints: splitmix64, then ``%``.

    Written out independently of :mod:`repro.ldp.olh` (constants, 64-bit
    wrap-around by masking, the plain remainder), so a drift in the NumPy
    kernel on either the client or the server side shows against it.
    """
    golden = 0x9E3779B97F4A7C15
    x = ((seed + golden) & _U64) ^ ((value * golden) & _U64)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    x ^= x >> 31
    return x % n_buckets


def _python_support_counts(seeds, ys, n_buckets: int, start: int, stop: int) -> list[int]:
    """Per-candidate support counts over ``[start, stop)`` in pure Python ints."""
    pairs = [(int(seed), int(y)) for seed, y in zip(seeds, ys)]
    return [
        sum(_python_hash(seed, x, n_buckets) == y for seed, y in pairs)
        for x in range(start, stop)
    ]


#: ε → d' = ceil(e^ε + 1) for the hash-pin cases (d' = 2 needs ε <= 0).
HASH_PIN_EPSILONS = {0.5: 3, 1.0: 4, 1.9: 8, 4.0: 56, 8.0: 2982}


class TestHashDomain:
    def test_hash_domain_size_formula(self):
        assert OptimizedLocalHashing(1.0).hash_domain_size() == math.ceil(math.e + 1)
        assert OptimizedLocalHashing(2.0).hash_domain_size() == math.ceil(
            math.exp(2.0) + 1
        )

    def test_hash_domain_at_least_two(self):
        assert OptimizedLocalHashing(0.01).hash_domain_size() >= 2


class TestUniversalHash:
    def test_outputs_within_buckets(self):
        seeds = np.arange(100, dtype=np.int64)
        values = np.full(100, 7, dtype=np.int64)
        hashed = _universal_hash(seeds, values, 8)
        assert hashed.min() >= 0 and hashed.max() < 8

    def test_deterministic_per_seed(self):
        seeds = np.array([5, 5], dtype=np.int64)
        values = np.array([3, 3], dtype=np.int64)
        hashed = _universal_hash(seeds, values, 16)
        assert hashed[0] == hashed[1]

    def test_roughly_uniform_over_buckets(self):
        seeds = np.arange(20_000, dtype=np.int64)
        values = np.full(20_000, 42, dtype=np.int64)
        hashed = _universal_hash(seeds, values, 4)
        counts = np.bincount(hashed, minlength=4) / 20_000
        np.testing.assert_allclose(counts, 0.25, atol=0.02)


class TestSupportProbabilities:
    def test_q_is_inverse_hash_domain(self):
        oracle = OptimizedLocalHashing(2.0)
        _, q = oracle.support_probabilities(100)
        assert q == pytest.approx(1.0 / oracle.hash_domain_size())

    def test_p_exceeds_q(self):
        oracle = OptimizedLocalHashing(1.0)
        p, q = oracle.support_probabilities(100)
        assert p > q


class TestEstimation:
    def test_estimates_are_nearly_unbiased(self):
        oracle = OptimizedLocalHashing(epsilon=3.0)
        rng = np.random.default_rng(2)
        true_freqs = np.array([0.5, 0.3, 0.2])
        values = rng.choice(3, size=15_000, p=true_freqs)
        result = oracle.run(values, 3, rng=8, mode="per_user")
        np.testing.assert_allclose(result.estimated_frequencies, true_freqs, atol=0.04)

    def test_aggregate_mode_agrees_with_per_user(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        values = np.random.default_rng(4).integers(0, 4, size=6000)
        a = oracle.run(values, 4, rng=5, mode="aggregate")
        b = oracle.run(values, 4, rng=6, mode="per_user")
        np.testing.assert_allclose(
            a.estimated_frequencies, b.estimated_frequencies, atol=0.06
        )

    def test_variance_matches_oue(self):
        from repro.ldp.oue import OptimizedUnaryEncoding

        eps, n, d = 2.5, 700, 50
        assert OptimizedLocalHashing(eps).variance(n, d) == pytest.approx(
            OptimizedUnaryEncoding(eps).variance(n, d)
        )


class TestVectorizedDecode:
    """The chunked NumPy decode must reproduce the per-candidate scan exactly."""

    @staticmethod
    def _reference_support_counts(oracle, reports, domain_size):
        """The pre-vectorisation decode: one Python pass per candidate.

        It shares :func:`_universal_hash` with the kernel, so it checks the
        blocking, not the hash; :class:`TestHashPin` pins the hash itself.
        """
        seeds, ys = reports
        d_prime = oracle.hash_domain_size()
        counts = np.zeros(domain_size, dtype=np.int64)
        for candidate in range(domain_size):
            hashed = _universal_hash(seeds, np.full(seeds.shape, candidate), d_prime)
            counts[candidate] = int(np.count_nonzero(hashed == ys))
        return counts

    def test_matches_per_candidate_reference(self):
        oracle = OptimizedLocalHashing(epsilon=3.0)
        domain_size = 211
        values = np.random.default_rng(0).integers(0, domain_size, size=4_000)
        reports = oracle.perturb(values, domain_size, np.random.default_rng(1))
        fast = oracle.support_counts(reports, domain_size)
        assert np.array_equal(
            fast, self._reference_support_counts(oracle, reports, domain_size)
        )

    # 301: tiny candidate chunks; 1 << 15: the shipped block; 1 << 18: a
    # block past a per-core L2.  The block is a cache knob: counts never change.
    @pytest.mark.parametrize("block", [301, 1 << 15, 1 << 18])
    def test_chunking_boundaries_are_exact(self, monkeypatch, block):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        values = np.random.default_rng(2).integers(0, 50, size=300)
        reports = oracle.perturb(values, 50, np.random.default_rng(3))
        reference = self._reference_support_counts(oracle, reports, 50)
        monkeypatch.setattr(olh_module, "_DECODE_BLOCK_ELEMENTS", block)
        assert np.array_equal(oracle.support_counts(reports, 50), reference)

    @pytest.mark.parametrize("block", [301, 1 << 15, 1 << 18])
    def test_range_decode_concatenates_to_full(self, monkeypatch, block):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        values = np.random.default_rng(4).integers(0, 64, size=500)
        reports = oracle.perturb(values, 64, np.random.default_rng(5))
        reference = self._reference_support_counts(oracle, reports, 64)
        monkeypatch.setattr(olh_module, "_DECODE_BLOCK_ELEMENTS", block)
        parts = [
            oracle.support_counts_range(reports, start, stop)
            for start, stop in [(0, 10), (10, 41), (41, 64)]
        ]
        assert np.array_equal(np.concatenate(parts), reference)

    def test_empty_batch(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert not oracle.support_counts(empty, 16).any()
        assert oracle.n_reports(empty) == 0

    def test_invalid_range(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        reports = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="range"):
            oracle.support_counts_range(reports, 5, 2)


class TestHashPin:
    """Client hash and server decode ≡ a pure-Python-int splitmix64 and ``%``."""

    SEEDS = np.array(
        [0, 1, 2**31, 2**62 + 12345, 2**63 - 3, 2**63 - 2, 987654321987], dtype=np.int64
    )

    @pytest.mark.parametrize("epsilon", sorted(HASH_PIN_EPSILONS))
    def test_hash_domain_cases(self, epsilon):
        assert OptimizedLocalHashing(epsilon).hash_domain_size() == HASH_PIN_EPSILONS[epsilon]

    @pytest.mark.parametrize("epsilon", sorted(HASH_PIN_EPSILONS))
    def test_universal_hash_matches_python(self, epsilon):
        d_prime = HASH_PIN_EPSILONS[epsilon]
        rng = np.random.default_rng(11)
        seeds = np.concatenate(
            [self.SEEDS, rng.integers(0, 2**63 - 1, size=200, dtype=np.int64)]
        )
        values = np.concatenate(
            [np.array([0, 1, 2**20, 2**40 + 7, 2**62, 99, 5]), rng.integers(0, 2**32, 200)]
        ).astype(np.int64)
        hashed = _universal_hash(seeds, values, d_prime)
        assert hashed.dtype == np.int64
        assert hashed.tolist() == [
            _python_hash(int(s), int(v), d_prime) for s, v in zip(seeds, values)
        ]

    @pytest.mark.parametrize("epsilon", sorted(HASH_PIN_EPSILONS))
    def test_perturb_matches_python(self, epsilon):
        """``perturb`` reports the hashed bucket where its coin keeps it and
        a uniformly drawn other bucket elsewhere; replaying its draws
        against the Python hash reproduces the reports exactly."""
        oracle = OptimizedLocalHashing(epsilon)
        d_prime = HASH_PIN_EPSILONS[epsilon]
        values = np.random.default_rng(12).integers(0, 1000, size=500)
        seeds, reports = oracle.perturb(values, 1000, np.random.default_rng(13))
        gen = np.random.default_rng(13)
        assert seeds.tolist() == gen.integers(0, 2**63 - 1, size=500, dtype=np.int64).tolist()
        p_keep, _ = oracle.support_probabilities(1000)
        keep = gen.random(500) < p_keep
        others = gen.integers(0, d_prime - 1, size=500)
        expected = []
        for seed, value, kept, other in zip(seeds, values, keep, others):
            hashed = _python_hash(int(seed), int(value), d_prime)
            expected.append(hashed if kept else int(other) + (int(other) >= hashed))
        assert reports.tolist() == expected

    @staticmethod
    def _reports(epsilon: float, n: int, dtype, seed: int):
        """A batch with the pinned seeds and perturbed buckets in ``dtype``;
        where ``dtype`` can hold one, two reports in seven carry a bucket
        ``>= d'`` (``d'`` itself and the dtype's maximum), which must never
        match."""
        oracle = OptimizedLocalHashing(epsilon)
        d_prime = oracle.hash_domain_size()
        rng = np.random.default_rng(seed)
        seeds, ys = oracle.perturb(rng.integers(0, 40, size=n), 40, rng)
        seeds[: len(TestHashPin.SEEDS)] = TestHashPin.SEEDS
        top = np.iinfo(dtype).max
        if d_prime <= top:
            ys[::7] = d_prime
            ys[3::7] = top
        # Where d' > 255, a uint8 view wraps the honest buckets, as a
        # truncated wire view would; the reference sees the same values.
        return oracle, (seeds, ys.astype(dtype))

    @pytest.mark.parametrize("block", [301, 1 << 15, 1 << 18])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("epsilon", sorted(HASH_PIN_EPSILONS))
    def test_support_counts_range_matches_python(self, monkeypatch, epsilon, dtype, block):
        oracle, (seeds, ys) = self._reports(epsilon, 150, dtype, seed=int(epsilon * 10))
        d_prime = oracle.hash_domain_size()
        monkeypatch.setattr(olh_module, "_DECODE_BLOCK_ELEMENTS", block)
        # A small report block puts several ragged report blocks in one call.
        monkeypatch.setattr(olh_module, "_DECODE_REPORT_BLOCK", 64)
        for start, stop in [(0, 41), (7, 13), (29, 30), (12, 12)]:
            counts = oracle.support_counts_range((seeds, ys), start, stop)
            assert counts.dtype == np.int64
            assert counts.tolist() == _python_support_counts(seeds, ys, d_prime, start, stop)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_batch_larger_than_report_block_matches_python(self, dtype):
        n = olh_module._DECODE_REPORT_BLOCK + 37
        oracle, (seeds, ys) = self._reports(4.0, n, dtype, seed=17)
        counts = oracle.support_counts_range((seeds, ys), 5, 9)
        assert counts.tolist() == _python_support_counts(
            seeds, ys, oracle.hash_domain_size(), 5, 9
        )


class TestConcurrentDecode:
    def test_shared_oracle_decodes_concurrently(self):
        """Threads decoding different batches with one oracle get their
        serial results: a call's scratch is its own, never shared."""
        oracle = OptimizedLocalHashing(epsilon=3.0)
        rng = np.random.default_rng(21)
        batches = [
            oracle.perturb(rng.integers(0, 300, size=size), 300, rng)
            for size in (6_000, 9_000, 4_000)
        ]
        serial = [oracle.support_counts(reports, 300) for reports in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                barrier = threading.Barrier(len(batches))
                results = [None] * len(batches)

                def decode(i):
                    barrier.wait(timeout=30)
                    results[i] = oracle.support_counts(batches[i], 300)

                threads = [
                    threading.Thread(target=decode, args=(i,)) for i in range(len(batches))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for got, want in zip(results, serial):
                    assert got.tolist() == want.tolist()
        finally:
            sys.setswitchinterval(interval)


class TestCosts:
    def test_report_bits_independent_of_domain(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        assert oracle.report_bits(10) == oracle.report_bits(1_000_000)

    def test_decode_cost_scales_with_domain(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        assert oracle.decode_cost(10, 100) == 1000
