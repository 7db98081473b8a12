import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scrbar import (
    BernsteinBaselineSet,
    QuadratureRule,
    WeibullBaselineSet,
    bernstein_basis,
    bernstein_log_hazard,
    cumulative_hazard,
    weibull_hazard,
    weibull_inverse_cumhaz,
)
from scrbar.baselines import _row_logsumexp, _row_shift, _row_softmax


def flat_bernstein(value=0.0, degrees=(2, 2, 3), u=10.0):
    return BernsteinBaselineSet(
        degrees, [np.full(m + 1, value) for m in degrees],
        [(0.0, u)] * 3)


class TestBernsteinBasis:
    def test_degree_zero_is_constant_one(self):
        for t in (0.0, 0.3, 1.0):
            assert bernstein_basis(t, 0, 0, 0.0, 1.0) == 1.0

    def test_endpoint_degeneracy_exact(self):
        assert bernstein_basis(0.0, 0, 3, 0.0, 1.0) == 1.0
        for k in (1, 2, 3):
            assert bernstein_basis(0.0, k, 3, 0.0, 1.0) == 0.0
        assert bernstein_basis(1.0, 3, 3, 0.0, 1.0) == 1.0

    def test_direct_binomial_value(self):
        # C(2,1) * 0.5 * 0.5
        assert bernstein_basis(0.5, 1, 2, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernstein_basis(1.5, 0, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            bernstein_basis(0.5, 3, 2, 0.0, 1.0)

    def test_clamps_float_noise_above_support(self):
        u = 3.0
        v = bernstein_basis(u * (1 + 1e-10), 2, 2, 0.0, u)
        assert v == pytest.approx(1.0)

    @given(st.integers(0, 10), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60)
    def test_partition_of_unity(self, m, s):
        c, u = 1.0, 4.0
        t = c + s * (u - c)
        total = sum(bernstein_basis(t, k, m, c, u) for k in range(m + 1))
        assert abs(total - 1.0) < 1e-12

    def test_partition_of_unity_dense(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, 10.0, 1000)
        for m in (1, 3, 7, 10):
            total = sum(bernstein_basis(t, k, m, 0.0, 10.0) for k in range(m + 1))
            assert np.max(np.abs(total - 1.0)) < 1e-12


class TestBernsteinHazard:
    def test_zero_coefficients_give_unit_hazard(self):
        b = flat_bernstein(0.0)
        for t in (0.0, 2.5, 10.0):
            assert bernstein_log_hazard(t, b, 1) == pytest.approx(0.0, abs=1e-14)

    def test_constant_shift(self):
        b = flat_bernstein(-1.7)
        assert bernstein_log_hazard(4.2, b, 3) == pytest.approx(-1.7, abs=1e-12)

    def test_midpoint_single_bump(self):
        b = BernsteinBaselineSet((2, 2, 2),
                                 [np.array([0.0, 1.0, 0.0])] * 3,
                                 [(0.0, 1.0)] * 3)
        assert bernstein_log_hazard(0.5, b, 2) == pytest.approx(0.5, abs=1e-14)


class TestWeibull:
    def test_exponential_special_case(self):
        assert weibull_hazard(1.0, 1.0, 2.0) == 2.0

    def test_scenario_one_parameters(self):
        alpha, tau = np.exp(0.18), np.exp(-4.0)
        assert weibull_hazard(1.0, alpha, tau) == pytest.approx(alpha * tau)

    def test_direct_formula(self):
        assert weibull_hazard(4.0, 2.0, 1.0) == pytest.approx(8.0)

    def test_singularity_and_domain(self):
        with pytest.raises(ValueError):
            weibull_hazard(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            weibull_hazard(-1.0, 2.0, 1.0)
        assert weibull_hazard(0.0, 2.0, 1.0) == 0.0

    def test_inverse_values(self):
        assert weibull_inverse_cumhaz(0.0, 2.0, 3.0) == 0.0
        assert weibull_inverse_cumhaz(12.0, 2.0, 3.0) == pytest.approx(2.0)
        for alpha in (0.5, 1.0, 3.7):
            assert weibull_inverse_cumhaz(3.0, alpha, 3.0) == pytest.approx(1.0)

    @given(st.floats(1e-6, 100.0), st.floats(0.3, 4.0), st.floats(0.01, 10.0))
    @settings(max_examples=80)
    def test_round_trip(self, t, alpha, tau):
        spec = WeibullBaselineSet(np.log([alpha] * 3), np.log([tau] * 3))
        x = cumulative_hazard(t, spec, 2)
        back = weibull_inverse_cumhaz(x, alpha, tau)
        assert back == pytest.approx(t, rel=1e-10)


class TestCumulativeHazard:
    def test_zero_at_origin_both_branches(self):
        w = WeibullBaselineSet(np.zeros(3), np.zeros(3))
        assert cumulative_hazard(0.0, w, 1) == 0.0
        assert cumulative_hazard(0.0, flat_bernstein(), 1) == 0.0

    def test_weibull_closed_form(self):
        spec = WeibullBaselineSet(np.log([2.0] * 3), np.log([3.0] * 3))
        assert cumulative_hazard(2.0, spec, 1) == pytest.approx(12.0)

    def test_unit_bernstein_integrates_to_t(self):
        assert cumulative_hazard(7.0, flat_bernstein(0.0), 1) == pytest.approx(7.0, rel=1e-12)

    def test_monotone_in_t(self):
        rng = np.random.default_rng(3)
        b = BernsteinBaselineSet((3, 3, 3),
                                 [rng.normal(0, 1, 4) for _ in range(3)],
                                 [(0.0, 5.0)] * 3)
        w = WeibullBaselineSet(rng.normal(0, 0.5, 3), rng.normal(0, 0.5, 3))
        ts = np.sort(rng.uniform(0, 5, 40))
        for spec in (b, w):
            vals = cumulative_hazard(ts, spec, 2)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_quadrature_convergence_on_doubling(self):
        rng = np.random.default_rng(9)
        b = BernsteinBaselineSet((4, 4, 4),
                                 [rng.normal(0, 1.5, 5) for _ in range(3)],
                                 [(0.0, 8.0)] * 3)
        t = np.array([0.3, 1.7, 5.5, 8.0])
        v32 = cumulative_hazard(t, b, 1, QuadratureRule(32))
        v64 = cumulative_hazard(t, b, 1, QuadratureRule(64))
        assert np.max(np.abs(v64 - v32) / v32) < 1e-8

    def test_bernstein_domain_error(self):
        with pytest.raises(ValueError):
            cumulative_hazard(11.0, flat_bernstein(u=10.0), 1)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(nodes=1)


# a few repeated values make ties for the row maximum, -inf makes rows with
# zero-weight entries (and rows with nothing but them)
_SCORE = st.one_of(st.sampled_from([-np.inf, -np.inf, 0.0, 1.5, -3.25]),
                   st.floats(-700.0, 700.0))
# (n, 3) like the frailty closed form's terms, (n, 32) like a quadrature table
_ROWS = st.sampled_from([3, 32]).flatmap(
    lambda q: arrays(float, st.tuples(st.integers(1, 30), st.just(q)), elements=_SCORE))


class TestRowKernels:
    @settings(max_examples=150, deadline=None)
    @given(a=_ROWS)
    def test_logsumexp_matches_scipy_bitwise(self, a):
        with np.errstate(invalid="ignore", divide="ignore"):
            want = scipy.special.logsumexp(a, axis=1)
        assert np.array_equal(_row_logsumexp(a), want)
        assert np.array_equal(_row_logsumexp(a, _row_shift(a)), want)

    @settings(max_examples=150, deadline=None)
    @given(a=_ROWS)
    def test_softmax_matches_scipy_bitwise(self, a):
        with np.errstate(invalid="ignore"):
            want = scipy.special.softmax(a, axis=1)
        # rows of nothing but -inf are nan in both
        assert np.array_equal(_row_softmax(_row_shift(a)[1]), want, equal_nan=True)
