"""Tests for the SUE extension oracle and the parameter-selection helpers."""

import numpy as np
import pytest

from repro.core.tuning import (
    GranularityRecommendation,
    recommend_granularity,
    recommend_oracle,
)
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.ldp.registry import available_oracles, make_oracle
from repro.ldp.sue import SymmetricUnaryEncoding


class TestSymmetricUnaryEncoding:
    def test_registered(self):
        assert "sue" in available_oracles()
        assert isinstance(make_oracle("sue", 1.0), SymmetricUnaryEncoding)

    def test_probabilities_symmetric(self):
        oracle = SymmetricUnaryEncoding(epsilon=2.0)
        p, q = oracle.support_probabilities(64)
        assert p + q == pytest.approx(1.0)
        assert p == pytest.approx(np.exp(1.0) / (np.exp(1.0) + 1.0))

    def test_ldp_ratio_bounded(self):
        eps = 3.0
        p, q = SymmetricUnaryEncoding(eps).support_probabilities(10)
        # Both bit positions flip symmetrically; the squared ratio is the
        # privacy cost, bounded by e^eps.
        assert (p / q) ** 2 <= np.exp(eps) * (1 + 1e-9)

    def test_estimation_nearly_unbiased(self):
        oracle = SymmetricUnaryEncoding(epsilon=3.0)
        rng = np.random.default_rng(0)
        true_freqs = np.array([0.5, 0.3, 0.2])
        values = rng.choice(3, size=15_000, p=true_freqs)
        result = oracle.run(values, 3, rng=1, mode="per_user")
        np.testing.assert_allclose(result.estimated_frequencies, true_freqs, atol=0.04)

    def test_variance_worse_than_oue(self):
        eps, n, d = 2.0, 1000, 50
        assert SymmetricUnaryEncoding(eps).variance(n, d) > OptimizedUnaryEncoding(
            eps
        ).variance(n, d)

    def test_report_bits(self):
        assert SymmetricUnaryEncoding(1.0).report_bits(77) == 77

    def test_bad_report_shape(self):
        with pytest.raises(ValueError, match="PackedUnaryReports"):
            SymmetricUnaryEncoding(1.0).support_counts(np.zeros((2, 3), dtype=bool), 4)


class TestRecommendOracle:
    def test_small_domain_prefers_krr(self):
        assert recommend_oracle(epsilon=4.0, domain_size=20) == "krr"

    def test_large_domain_prefers_oue(self):
        assert recommend_oracle(epsilon=1.0, domain_size=1000) == "oue"

    def test_communication_bound_switches_to_olh(self):
        assert (
            recommend_oracle(
                epsilon=1.0, domain_size=100_000, communication_bound_bits=1024
            )
            == "olh"
        )

    def test_threshold_matches_wang_et_al(self):
        eps = 2.0
        threshold = 3 * np.exp(eps) + 2
        assert recommend_oracle(eps, int(threshold) - 1) == "krr"
        assert recommend_oracle(eps, int(threshold) + 2) == "oue"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            recommend_oracle(0.0, 10)
        with pytest.raises(ValueError):
            recommend_oracle(1.0, 0)


class TestRecommendGranularity:
    def test_large_population_supports_finer_granularity(self):
        small = recommend_granularity(
            5_000, 48, epsilon=4.0, k=10, expected_top_frequency=0.02
        )
        large = recommend_granularity(
            5_000_000, 48, epsilon=4.0, k=10, expected_top_frequency=0.02
        )
        assert isinstance(small, GranularityRecommendation)
        assert large.granularity >= small.granularity

    def test_granularity_never_exceeds_bits(self):
        rec = recommend_granularity(100_000, 8, epsilon=4.0, k=10)
        assert rec.granularity <= 8

    def test_rationale_is_informative(self):
        rec = recommend_granularity(10_000, 16, epsilon=4.0, k=10)
        assert "sigma" in rec.rationale

    def test_tiny_population_falls_back_to_coarsest(self):
        rec = recommend_granularity(
            50, 48, epsilon=0.5, k=20, expected_top_frequency=0.001
        )
        assert rec.granularity == min(48, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            recommend_granularity(0, 16, epsilon=1.0, k=5)
        with pytest.raises(ValueError):
            recommend_granularity(100, 16, epsilon=1.0, k=0)
