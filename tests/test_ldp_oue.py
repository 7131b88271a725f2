"""Tests for the OUE frequency oracle."""

import numpy as np
import pytest

from repro.ldp.oue import OptimizedUnaryEncoding


class TestSupportProbabilities:
    def test_p_is_half_and_q_matches_formula(self):
        oracle = OptimizedUnaryEncoding(epsilon=2.0)
        p, q = oracle.support_probabilities(100)
        assert p == pytest.approx(0.5)
        assert q == pytest.approx(1.0 / (np.exp(2.0) + 1.0))

    def test_probabilities_independent_of_domain_size(self):
        oracle = OptimizedUnaryEncoding(epsilon=1.0)
        assert oracle.support_probabilities(10) == oracle.support_probabilities(10_000)

    def test_ldp_guarantee_on_bit_flip_ratio(self):
        # The OUE privacy ratio is (p/q) * ((1-q)/(1-p)) <= e^eps.
        eps = 3.0
        p, q = OptimizedUnaryEncoding(eps).support_probabilities(50)
        ratio = (p / q) * ((1 - q) / (1 - p))
        assert ratio <= np.exp(eps) + 1e-9


class TestPerturb:
    def test_report_shape(self):
        oracle = OptimizedUnaryEncoding(epsilon=1.0)
        values = np.array([0, 1, 2, 3])
        reports = oracle.perturb(values, 5, rng=0).unpack()
        assert reports.shape == (4, 5)
        assert reports.dtype == bool

    def test_true_bit_kept_about_half_the_time(self):
        oracle = OptimizedUnaryEncoding(epsilon=4.0)
        values = np.full(4000, 2)
        reports = oracle.perturb(values, 8, rng=1).unpack()
        keep_rate = reports[:, 2].mean()
        assert 0.45 < keep_rate < 0.55

    def test_false_bits_flip_at_rate_q(self):
        eps = 2.0
        oracle = OptimizedUnaryEncoding(epsilon=eps)
        values = np.full(4000, 0)
        reports = oracle.perturb(values, 6, rng=2).unpack()
        q = 1.0 / (np.exp(eps) + 1.0)
        flip_rate = reports[:, 1:].mean()
        assert abs(flip_rate - q) < 0.02


class TestEstimation:
    def test_estimates_are_nearly_unbiased(self):
        oracle = OptimizedUnaryEncoding(epsilon=3.0)
        rng = np.random.default_rng(3)
        true_freqs = np.array([0.5, 0.25, 0.15, 0.1])
        values = rng.choice(4, size=20_000, p=true_freqs)
        result = oracle.run(values, 4, rng=4, mode="per_user")
        np.testing.assert_allclose(result.estimated_frequencies, true_freqs, atol=0.03)

    def test_aggregate_mode_agrees_with_per_user(self):
        oracle = OptimizedUnaryEncoding(epsilon=2.0)
        values = np.random.default_rng(1).integers(0, 5, size=8000)
        a = oracle.run(values, 5, rng=2, mode="aggregate")
        b = oracle.run(values, 5, rng=3, mode="per_user")
        np.testing.assert_allclose(
            a.estimated_frequencies, b.estimated_frequencies, atol=0.05
        )

    def test_variance_formula(self):
        eps, n = 2.0, 500
        oracle = OptimizedUnaryEncoding(epsilon=eps)
        expected = 4 * np.exp(eps) / ((np.exp(eps) - 1) ** 2 * n)
        assert oracle.variance(n, 100) == pytest.approx(expected)

    def test_variance_smaller_than_krr_for_large_domains(self):
        from repro.ldp.krr import KRandomizedResponse

        eps, n, d = 2.0, 1000, 500
        assert OptimizedUnaryEncoding(eps).variance(n, d) < KRandomizedResponse(
            eps
        ).variance(n, d)


class TestCosts:
    def test_report_bits_equal_domain_size(self):
        oracle = OptimizedUnaryEncoding(epsilon=1.0)
        assert oracle.report_bits(1234) == 1234

    def test_bad_report_matrix_shape_raises(self):
        oracle = OptimizedUnaryEncoding(epsilon=1.0)
        with pytest.raises(ValueError, match="PackedUnaryReports"):
            oracle.support_counts(np.zeros((3, 4), dtype=bool), 5)
