"""Tests for the OLH frequency oracle."""

import math

import numpy as np
import pytest

from repro.ldp.olh import OptimizedLocalHashing, _universal_hash


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
        """The pre-vectorisation decode: one Python pass per candidate."""
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
        from repro.ldp import olh as olh_module

        oracle = OptimizedLocalHashing(epsilon=2.0)
        values = np.random.default_rng(2).integers(0, 50, size=300)
        reports = oracle.perturb(values, 50, np.random.default_rng(3))
        reference = self._reference_support_counts(oracle, reports, 50)
        monkeypatch.setattr(olh_module, "_DECODE_BLOCK_ELEMENTS", block)
        assert np.array_equal(oracle.support_counts(reports, 50), reference)

    @pytest.mark.parametrize("block", [301, 1 << 15, 1 << 18])
    def test_range_decode_concatenates_to_full(self, monkeypatch, block):
        from repro.ldp import olh as olh_module

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


class TestCosts:
    def test_report_bits_independent_of_domain(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        assert oracle.report_bits(10) == oracle.report_bits(1_000_000)

    def test_decode_cost_scales_with_domain(self):
        oracle = OptimizedLocalHashing(epsilon=2.0)
        assert oracle.decode_cost(10, 100) == 1000
