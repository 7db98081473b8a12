import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scrbar import (
    BernsteinBaselineSet,
    WeibullBaselineSet,
    bernstein_basis,
    bernstein_log_hazard,
    cumulative_hazard,
    weibull_hazard,
    weibull_inverse_cumhaz,
)
from scrbar.baselines import (
    _BernsteinTable,
    _col_logsumexp,
    _col_shift,
    _col_softmax,
    _col_sum,
    _gauss_legendre,
    bernstein_basis_matrix,
)
from _helpers import adaptive_cumhaz


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

    def test_quadrature_matches_adaptive_integration(self):
        rng = np.random.default_rng(9)
        b = BernsteinBaselineSet((4, 4, 4),
                                 [rng.normal(0, 1.5, 5) for _ in range(3)],
                                 [(0.0, 8.0)] * 3)
        t = np.array([0.3, 1.7, 5.5, 8.0])
        v32 = cumulative_hazard(t, b, 1)
        ref = adaptive_cumhaz(t, b, 1)
        assert np.max(np.abs(ref - v32) / v32) < 1e-8

    def test_one_32_point_rule(self):
        # the rule is fixed, not a setting
        import scrbar
        assert not hasattr(scrbar, "QuadratureRule")
        table = _BernsteinTable(np.array([0.5, 2.0]), 3, (0.0, 4.0))
        # node-major: row q * n + i is node q of time i
        assert table.B.shape == (32 * 2, 4) and table.BT.shape == (4, 32, 2)
        np.testing.assert_array_equal(table.log_w,
                                      np.log(np.polynomial.legendre.leggauss(32)[1]))

    def test_bernstein_domain_error(self):
        with pytest.raises(ValueError):
            cumulative_hazard(11.0, flat_bernstein(u=10.0), 1)


def _random_spec(kind, rng, u):
    """Random Weibull parameters, or Bernstein coefficients of degrees 0-6 on
    [0, u] for every transition."""
    if kind == "weibull":
        return WeibullBaselineSet(rng.uniform(-1.0, 1.0, 3), rng.uniform(-3.0, 3.0, 3))
    degrees = rng.integers(0, 7, 3)
    return BernsteinBaselineSet(degrees, [rng.normal(0.0, 1.5, m + 1) for m in degrees],
                                [(0.0, u)] * 3)


class TestHazardAgreement:
    """Each set's log hazard is the log of its cumulative hazard's slope."""

    @pytest.mark.parametrize("kind", ["weibull", "bernstein"])
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(1, 3))
    def test_hazard_is_the_slope_of_the_cumulative_hazard(self, kind, seed, j):
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.5, 20.0)
        spec = _random_spec(kind, rng, u)
        t = u * rng.uniform(1e-3, 0.999, 20)     # t > 0 and t + h inside [0, u]
        h = 1e-5 * t
        slope = (cumulative_hazard(t + h, spec, j) - cumulative_hazard(t - h, spec, j)) / (2 * h)
        np.testing.assert_allclose(slope, np.exp(spec.log_hazard(t, j)), rtol=1e-6, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(1, 3))
    def test_weibull_cumulative_hazard_is_the_power_law(self, seed, j):
        # an independent check on Lambda = tau t^alpha, which is computed
        # as exp(log tau + alpha log t)
        rng = np.random.default_rng(seed)
        spec = _random_spec("weibull", rng, 1.0)
        t = rng.uniform(1e-3, 100.0, 20)
        np.testing.assert_allclose(cumulative_hazard(t, spec, j),
                                   spec.tau[j - 1] * t ** spec.alpha[j - 1],
                                   rtol=1e-13, atol=0)


# a few repeated values make ties for the column maximum, -inf makes columns
# with zero-weight entries (and columns with nothing but them)
_SCORE = st.one_of(st.sampled_from([-np.inf, -np.inf, 0.0, 1.5, -3.25]),
                   st.floats(-700.0, 700.0))
# (3, n) like the frailty closed form's terms, (32, n) like a quadrature table
_COLS = st.sampled_from([3, 32]).flatmap(
    lambda q: arrays(float, st.tuples(st.just(q), st.integers(1, 30)), elements=_SCORE))


class TestRowKernels:
    """The column kernels on a (k, n) array against scipy.special on its
    transpose stored in C order, one row of k per column, bit for bit (on
    the strided view ``a.T`` NumPy would add in another order)."""

    @settings(max_examples=150, deadline=None)
    @given(a=_COLS)
    def test_logsumexp_matches_scipy_bitwise(self, a):
        with np.errstate(invalid="ignore", divide="ignore"):
            want = scipy.special.logsumexp(np.ascontiguousarray(a.T), axis=1)
        assert np.array_equal(_col_logsumexp(a), want)
        assert np.array_equal(_col_logsumexp(a, _col_shift(a)), want)

    @settings(max_examples=150, deadline=None)
    @given(a=arrays(float, st.tuples(st.just(3), st.integers(0, 30)), elements=_SCORE))
    def test_three_column_logsumexp_matches_row_kernel_bitwise(self, a):
        # columns with a three-way tie, a tie at -inf and nothing but -inf always
        a = np.hstack([a, [[1.5, -np.inf, -np.inf], [1.5, -np.inf, -np.inf],
                           [1.5, 0.0, -np.inf]]])
        with np.errstate(invalid="ignore", divide="ignore"):
            want = scipy.special.logsumexp(np.ascontiguousarray(a.T), axis=1)
        got = _col_logsumexp(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(a=_COLS)
    def test_softmax_matches_scipy_bitwise(self, a):
        with np.errstate(invalid="ignore"):
            want = scipy.special.softmax(np.ascontiguousarray(a.T), axis=1).T
        # columns of nothing but -inf are nan in both
        assert np.array_equal(_col_softmax(_col_shift(a)[1]), want, equal_nan=True)


class TestNumpyOrder:
    """The library behaviours the node-major table's bit-for-bit answers rest
    on.  A NumPy or BLAS upgrade that changes one fails here by name, instead
    of moving fitted answers."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 128), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_pairwise_column_sum_matches_row_sum_bitwise(self, k, n, seed):
        # NumPy sums a contiguous row of k terms pairwise; _col_sum repeats
        # its additions over whole rows of the transpose
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(n, k)) * np.exp(rng.uniform(-30.0, 30.0, (n, k)))
        y[rng.random((n, k)) < 0.2] = 0.0
        assert np.array_equal(_col_sum(np.ascontiguousarray(y.T)), y.sum(axis=1))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 6), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_row_permuted_gemv_matches_time_major_bitwise(self, m, n, seed):
        # each row of B @ phi is one dot product, whatever the row order
        rng = np.random.default_rng(seed)
        B = rng.random((n, 32, m + 1))
        phi = rng.normal(0.0, 3.0, m + 1)
        node_major = np.ascontiguousarray(B.transpose(1, 0, 2)).reshape(32 * n, m + 1)
        assert np.array_equal((node_major @ phi).reshape(32, n).T, B @ phi)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 6), n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    def test_node_major_einsum_matches_time_major_bitwise(self, m, n, seed):
        # both contractions add over the 32 nodes in order (NumPy takes
        # another path for m = 0 or n = 1, which the table avoids)
        rng = np.random.default_rng(seed)
        B, P = rng.random((n, 32, m + 1)), rng.random((n, 32))
        got = np.einsum("qi,rqi->ri", np.ascontiguousarray(P.T),
                        np.ascontiguousarray(B.transpose(2, 1, 0)))
        assert np.array_equal(got.T, np.einsum("iq,iqr->ir", P, B))


class _TimeMajorTable:
    """The time-major table the node-major one replaced: B as (n, 32, m+1),
    one row of 32 quadrature terms per time, reduced by scipy.special (whose
    arithmetic its row kernels followed bit for bit)."""

    def __init__(self, t, m, support):
        c, u = support
        x, self.log_w = _gauss_legendre()
        nodes = np.minimum(0.5 * t[:, None] * (x[None, :] + 1.0), u)
        self.B = bernstein_basis_matrix(nodes.ravel(), m, c, u).reshape(len(t), x.size, m + 1)
        with np.errstate(divide="ignore"):
            self.log_half_t = np.log(0.5 * t)

    def log_cumhaz(self, phi):
        return self.log_half_t + scipy.special.logsumexp(self.B @ phi + self.log_w, axis=1)

    def dlog_cumhaz(self, phi):
        P = scipy.special.softmax(self.B @ phi + self.log_w, axis=1)
        return np.einsum("iq,iqr->ir", P, self.B)


class TestNodeMajorTable:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(0, 6), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_time_major_table_bitwise(self, m, n, seed):
        # every degree and every n, degree 0 and n = 1 included: there the
        # table falls back to the time-major contraction for the derivative
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.5, 20.0)
        t = u * rng.random(n)
        t[rng.random(n) < 0.1] = 0.0            # zero times: log Lambda = -inf
        phi = rng.normal(0.0, 3.0, m + 1)
        table, ref = _BernsteinTable(t, m, (0.0, u)), _TimeMajorTable(t, m, (0.0, u))
        scores = table.scores(phi)
        assert np.array_equal(table.log_cumhaz(scores), ref.log_cumhaz(phi))
        d, want = table.dlog_cumhaz(scores), ref.dlog_cumhaz(phi)
        # the same bits in the same C layout, so products with it round alike
        assert d.flags.c_contiguous and np.array_equal(d, want)
