"""The stdlib special functions against ``scipy`` as the oracle.

``scipy`` is a test-only dependency: the package computes its one
Student-t quantile and one Poisson tail in :mod:`repro.stats.special`.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.interest_model import expected_interested, zipf_probabilities
from repro.stats import mean_confidence_interval
from repro.stats.special import poisson_tail, student_t_quantile

scipy_stats = pytest.importorskip("scipy.stats")

CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)
DEGREES = tuple(range(1, 60)) + (100, 500, 1000, 5000)


class TestStudentTQuantile:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_matches_scipy_on_the_experiment_grid(self, confidence):
        p = (1 + confidence) / 2
        for df in DEGREES:
            expected = float(scipy_stats.t.ppf(p, df))
            assert student_t_quantile(p, df) == pytest.approx(
                expected, rel=1e-10, abs=0
            ), (confidence, df)

    @given(st.floats(0.5, 0.9999, exclude_min=True), st.integers(1, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_anywhere(self, confidence, df):
        p = (1 + confidence) / 2
        expected = float(scipy_stats.t.ppf(p, df))
        assert student_t_quantile(p, df) == pytest.approx(
            expected, rel=1e-10, abs=0
        )

    @given(st.floats(0.5, 1.0, exclude_max=True), st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_about_zero(self, p, df):
        # 1 - p is exact for p in [0.5, 1), so the reflection is too.
        assert student_t_quantile(p, df) == -student_t_quantile(1 - p, df)
        assert student_t_quantile(0.5, df) == 0.0

    @pytest.mark.parametrize("df", (1, 2, 3, 9, 100, 5000))
    def test_increases_with_p(self, df):
        grid = [0.01, 0.2, 0.5, 0.500001, 0.7, 0.9, 0.975, 0.9995, 0.99995]
        values = [student_t_quantile(p, df) for p in grid]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_decreases_with_df(self, confidence):
        p = (1 + confidence) / 2
        values = [student_t_quantile(p, df) for df in DEGREES]
        assert values == sorted(values, reverse=True)
        assert values[-1] > -scipy_stats.norm.ppf(1 - p)  # the df -> oo limit

    @given(st.floats(0.5, 0.99999, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_closed_forms_for_one_and_two_degrees(self, p):
        tail = 1 - p
        cauchy = math.tan(math.pi * (p - 0.5))
        if tail <= 0.25:  # tan loses the tail; the cotangent does not
            cauchy = 1 / math.tan(math.pi * tail)
        assert abs(student_t_quantile(p, 1) - cauchy) <= math.ulp(cauchy)
        two = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        assert abs(student_t_quantile(p, 2) - two) <= math.ulp(two)
        for df, value in ((1, cauchy), (2, two)):
            assert value == pytest.approx(float(scipy_stats.t.ppf(p, df)), rel=1e-12)

    def test_far_lower_tail_is_solved_directly(self):
        # 1 - 1e-20 rounds to 1.0, so reflecting through it would fail.
        for df in (1, 2, 3, 30, 1000):
            expected = float(scipy_stats.t.ppf(1e-20, df))
            assert student_t_quantile(1e-20, df) == pytest.approx(
                expected, rel=1e-12
            )

    def test_invalid_arguments_raise_value_error(self):
        for p in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                student_t_quantile(p, 5)
        for df in (0, 0.5, -3, math.nan):
            with pytest.raises(ValueError):
                student_t_quantile(0.975, df)

    def test_interval_matches_scipy_end_to_end(self):
        samples = [0.2, 0.25, 0.31, 0.18, 0.27, 0.22]
        ci = mean_confidence_interval(samples, confidence=0.99)
        sem = float(scipy_stats.sem(samples))
        expected = float(scipy_stats.t.ppf(0.995, 5)) * sem
        assert ci.half_width == pytest.approx(expected, rel=1e-10)


def poisson_means(threshold):
    means = [1e-12, 1e-6, 0.1, threshold, threshold + 1, 10 * threshold, 36_000]
    return [mean for mean in means + [threshold - 1] if mean >= 0]


class TestPoissonTail:
    @pytest.mark.parametrize("threshold", range(41))
    def test_matches_scipy_survival_function(self, threshold):
        for mean in poisson_means(threshold):
            expected = float(scipy_stats.poisson.sf(threshold, mean))
            # scipy flushes subnormal tails to 0; hence the 1e-300.
            assert poisson_tail(threshold, mean) == pytest.approx(
                expected, rel=1e-9, abs=1e-300
            ), mean
            assert abs(poisson_tail(threshold, mean) - expected) <= 1e-12

    @given(st.integers(0, 60), st.floats(0, 5_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_anywhere(self, threshold, mean):
        expected = float(scipy_stats.poisson.sf(threshold, mean))
        assert poisson_tail(threshold, mean) == pytest.approx(
            expected, rel=1e-9, abs=1e-300
        )

    def test_tiny_mean_does_not_cancel_to_zero(self):
        assert poisson_tail(0, 1e-12) == pytest.approx(1e-12, rel=1e-11)
        assert poisson_tail(3, 1e-12) == pytest.approx(1e-48 / 24, rel=1e-9)
        assert poisson_tail(6, 0.0) == 0.0

    def test_huge_mean_does_not_overflow(self):
        assert poisson_tail(40, 36_000) == 1.0
        assert poisson_tail(0, 1e6) == 1.0

    @given(st.floats(1e-300, 1e4))
    @settings(max_examples=200, deadline=None)
    def test_zero_threshold_is_one_minus_exp(self, mean):
        # The first term goes through log(mean): |log| * epsilon relative.
        assert poisson_tail(0, mean) == pytest.approx(
            -math.expm1(-mean), rel=1e-12, abs=0
        )

    def test_real_threshold_counts_strictly_more(self):
        assert poisson_tail(6.5, 4.0) == poisson_tail(6, 4.0)
        assert poisson_tail(6.0, 4.0) == poisson_tail(6, 4.0)

    def test_invalid_arguments_raise_value_error(self):
        for threshold, mean in ((-1, 1.0), (3, -0.5), (3, math.nan), (math.nan, 1)):
            with pytest.raises(ValueError):
                poisson_tail(threshold, mean)

    def test_expected_interested_matches_per_rank_scipy_sum(self):
        n, theta, rate, ttl, threshold = 4096, 0.95, 1.0, 3600.0, 6
        means = [rate * p * ttl for p in zipf_probabilities(n, theta)]
        expected = float(scipy_stats.poisson.sf(threshold, means).sum())
        assert expected_interested(n, theta, rate, ttl, threshold) == (
            pytest.approx(expected, rel=1e-12)
        )
