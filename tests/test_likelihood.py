import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrbar import (
    Dataset,
    ModelParameters,
    ObservationScenario,
    RegressionCoefficients,
    SubjectRecord,
    classify_scenario,
    frailty_integral_oracle,
    gradient_beta,
    hessian_beta,
    log_likelihood,
    pseudo_data,
    risk_terms,
)
from scrbar.cli import read_dataset_csv, write_dataset_csv
from scrbar.likelihood import BetaLikelihood, DegenerateRecordError, _Core
from _helpers import CALENDAR, random_params, small_dataset, unit_weibull


def zero_beta(dims):
    return RegressionCoefficients.zeros(dims)


class TestRiskTerms:
    def test_unit_hazard_arithmetic(self):
        rec = SubjectRecord(0.0, 1.0, 1, 3.0, 1, [0.0], [0.0], [0.0])
        params = ModelParameters(zero_beta((1, 1, 1)), unit_weibull())
        rt = risk_terms(rec, params)
        assert rt.g1 == pytest.approx(2.0)   # Lambda3(y2-y1) = 2
        assert rt.g2 == pytest.approx(2.0)   # Lambda1(1) + Lambda2(1)

    def test_no_nonterminal_event_means_no_sojourn_risk(self):
        rec = SubjectRecord(0.0, 3.0, 0, 3.0, 0, [1.0], [1.0], [1.0])
        beta = RegressionCoefficients([0.0], [0.0], [5.0])
        params = ModelParameters(beta, unit_weibull())
        assert risk_terms(rec, params).g1 == 0.0

    def test_zero_length_window(self):
        # l = y2 is structurally invalid but exercises the empty interval
        rec = SubjectRecord(2.0, 2.0, 0, 2.0, 0, [1.0], [1.0], [1.0])
        assert risk_terms(rec, ModelParameters(zero_beta((1, 1, 1)),
                                               unit_weibull())).g2 == 0.0

    def test_covariates_scale_exponentially(self):
        rec = SubjectRecord(0.0, 1.0, 1, 3.0, 1, [1.0], [0.0], [0.0])
        beta = RegressionCoefficients([np.log(2.0)], [0.0], [0.0])
        rt = risk_terms(rec, ModelParameters(beta, unit_weibull()))
        assert rt.g2 == pytest.approx(1.0 * 2.0 + 1.0)


class TestLogLikelihood:
    def test_none_observed_closed_form(self):
        rec = SubjectRecord(0.0, 2.0, 0, 2.0, 0, [0.3], [-0.2], [0.0])
        gamma = 0.7
        params = ModelParameters(
            RegressionCoefficients([0.5], [0.2], [0.1]), unit_weibull(gamma))
        data = Dataset([rec])
        g2 = risk_terms(rec, params).g2
        expected = -(1.0 / gamma) * np.log1p(gamma * g2)
        assert log_likelihood(params, data) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_frailty_recovers_frailty_free_model(self):
        data = small_dataset(n=15, seed=2)
        rng = np.random.default_rng(5)
        params = random_params(data, rng, gamma=1e-8)
        ll = log_likelihood(params, data)
        # frailty-free reference: sum of event log-hazards minus total risk
        ref = 0.0
        for rec in data.records:
            rt = risk_terms(rec, params)
            scen = classify_scenario(rec)
            spec = params.nuisance.baseline
            b = params.beta
            if rec.delta1 == 1:
                lam1 = spec.alpha[0] * spec.tau[0] * rec.y1 ** (spec.alpha[0] - 1)
                ref += np.log(lam1) + b.beta1 @ rec.z1
            if scen is ObservationScenario.TERMINAL_ONLY:
                lam2 = spec.alpha[1] * spec.tau[1] * rec.y2 ** (spec.alpha[1] - 1)
                ref += np.log(lam2) + b.beta2 @ rec.z2
            if scen is ObservationScenario.BOTH_OBSERVED:
                soj = rec.y2 - rec.y1
                lam3 = spec.alpha[2] * spec.tau[2] * soj ** (spec.alpha[2] - 1)
                ref += np.log(lam3) + b.beta3 @ rec.z3
            ref -= rt.g1 + rt.g2
        assert ll == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @pytest.mark.parametrize("window", ["first"])
    def test_matches_frailty_quadrature_oracle(self, baseline, window):
        data = small_dataset(n=20, seed=8)
        rng = np.random.default_rng(11)
        params = random_params(data, rng, baseline=baseline)
        ll = log_likelihood(params, data)
        oracle = sum(np.log(frailty_integral_oracle(params, r))
                     for r in data.records)
        assert abs(ll - oracle) / abs(ll) < 1e-8

    def test_scenario_additivity(self):
        data = small_dataset(n=40, seed=3)
        params = random_params(data, np.random.default_rng(4))
        total = log_likelihood(params, data)
        parts = 0.0
        for scen in ObservationScenario:
            recs = [r for r in data.records if classify_scenario(r) is scen]
            if recs:
                parts += log_likelihood(params, Dataset(recs))
        assert total == pytest.approx(parts, rel=1e-12)

    def test_degenerate_record_rejected_with_index(self):
        ok = SubjectRecord(0.0, 1.0, 1, 3.0, 1, [0.0], [0.0], [0.0])
        bad = SubjectRecord(0.0, 2.0, 1, 2.0, 1, [0.0], [0.0], [0.0])
        params = ModelParameters(zero_beta((1, 1, 1)), unit_weibull())
        with pytest.raises(DegenerateRecordError, match="index 1"):
            log_likelihood(params, Dataset([ok, bad]))

    def test_nonfinite_beta_rejected(self):
        data = small_dataset(n=5)
        params = random_params(data, np.random.default_rng(0))
        bad = RegressionCoefficients([np.inf, 0, 0], np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            log_likelihood(ModelParameters(bad, params.nuisance), data)


class TestOracle:
    def test_survivor_of_nothing(self):
        rec = SubjectRecord(2.0, 2.0, 0, 2.0, 0, [0.0], [0.0], [0.0])
        params = ModelParameters(zero_beta((1, 1, 1)), unit_weibull(0.8))
        assert frailty_integral_oracle(params, rec) == pytest.approx(1.0, rel=1e-9)

    def test_halving_at_unit_risk(self):
        # gamma = 1, g2 = 1: (1 + g2)^(-1) = 1/2
        rec = SubjectRecord(0.0, 0.5, 0, 0.5, 0, [0.0], [0.0], [0.0])
        params = ModelParameters(zero_beta((1, 1, 1)), unit_weibull(1.0))
        assert risk_terms(rec, params).g2 == pytest.approx(1.0)
        assert frailty_integral_oracle(params, rec) == pytest.approx(0.5, rel=1e-9)

    def test_both_observed_self_consistency(self):
        rec = SubjectRecord(0.1, 1.0, 1, 2.5, 1, [0.4], [-0.3], [0.2])
        rng = np.random.default_rng(21)
        params = random_params(Dataset([rec]), rng, gamma=0.5)
        contrib = log_likelihood(params, Dataset([rec]))
        oracle = frailty_integral_oracle(params, rec)
        assert np.exp(contrib) == pytest.approx(oracle, rel=1e-8)


class TestDerivatives:
    def test_zero_covariates_zero_gradient(self):
        recs = [SubjectRecord(0.0, 1.0, 1, 2.0, 1, np.zeros(3), np.zeros(3), np.zeros(3)),
                SubjectRecord(0.0, 2.0, 0, 2.0, 0, np.zeros(3), np.zeros(3), np.zeros(3))]
        data = Dataset(recs)
        params = random_params(data, np.random.default_rng(1))
        np.testing.assert_array_equal(gradient_beta(params, data), np.zeros(9))
        np.testing.assert_array_equal(hessian_beta(params, data), np.zeros((9, 9)))

    def test_duplicated_dataset_doubles_gradient(self):
        data = small_dataset(n=10, seed=6)
        params = random_params(data, np.random.default_rng(7))
        g1 = gradient_beta(params, data)
        doubled = Dataset(list(data.records) * 2)
        np.testing.assert_allclose(gradient_beta(params, doubled), 2.0 * g1,
                                   rtol=1e-12)

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    def test_gradient_matches_central_differences(self, baseline):
        data = small_dataset(n=25, seed=9)
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = random_params(data, rng, baseline=baseline)
            ev = BetaLikelihood(data, params.nuisance)
            b0 = params.beta.stacked
            g = ev.gradient(b0)
            h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(b0))
            fd = np.empty_like(b0)
            for j in range(b0.size):
                e = np.zeros_like(b0)
                e[j] = h[j]
                fd[j] = (ev.loglik(b0 + e) - ev.loglik(b0 - e)) / (2 * h[j])
            denom = np.maximum(1.0, np.abs(fd))
            assert np.max(np.abs(g - fd) / denom) < 1e-5

    def test_hessian_matches_gradient_differences(self):
        data = small_dataset(n=25, seed=10)
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = random_params(data, rng)
            ev = BetaLikelihood(data, params.nuisance)
            b0 = params.beta.stacked
            H = ev.hessian(b0)
            h = 1e-6
            fd = np.empty_like(H)
            for j in range(b0.size):
                e = np.zeros_like(b0)
                e[j] = h
                fd[:, j] = (ev.gradient(b0 + e) - ev.gradient(b0 - e)) / (2 * h)
            denom = np.maximum(1.0, np.abs(fd))
            assert np.max(np.abs(H - fd) / denom) < 1e-4

    def test_hessian_exactly_symmetric(self):
        data = small_dataset(n=15, seed=12)
        params = random_params(data, np.random.default_rng(19))
        H = hessian_beta(params, data)
        assert np.max(np.abs(H - H.T)) == 0.0


class TestPseudoData:
    def test_zero_gradient_keeps_beta(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4))
        J = A @ A.T + 4 * np.eye(4)
        beta = rng.normal(size=4)
        pd = pseudo_data(beta, np.zeros(4), -J)
        minimizer = np.linalg.solve(pd.X.T @ pd.X, pd.X.T @ pd.W)
        np.testing.assert_allclose(minimizer, beta, atol=1e-12)

    def test_scalar_newton_step(self):
        pd = pseudo_data(np.array([1.0]), np.array([4.0]), np.array([[-2.0]]))
        minimizer = float(pd.W[0] / pd.X[0, 0])
        assert minimizer == pytest.approx(3.0)   # beta + u / (-H) = 1 + 2

    def test_surrogate_gradient_at_beta_is_minus_u(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(5, 5))
        J = A @ A.T + 5 * np.eye(5)
        beta, u = rng.normal(size=5), rng.normal(size=5)
        pd = pseudo_data(beta, u, -J)
        grad = pd.X.T @ (pd.X @ beta - pd.W)
        np.testing.assert_allclose(grad, -u, atol=1e-10)

    def test_factorization_and_newton_step_on_random_matrices(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            p = rng.integers(2, 12)
            A = rng.normal(size=(p, p))
            J = A @ A.T + p * np.eye(p)
            beta, u = rng.normal(size=p), rng.normal(size=p)
            pd = pseudo_data(beta, u, -J)
            assert np.max(np.abs(pd.X.T @ pd.X - J)) < 1e-10 * np.max(np.abs(J))
            assert np.allclose(np.tril(pd.X, -1), 0.0)
            newton = beta + np.linalg.solve(J, u)
            minimizer = np.linalg.solve(pd.X.T @ pd.X, pd.X.T @ pd.W)
            np.testing.assert_allclose(minimizer, newton, atol=1e-10)

    def test_jitter_reported_on_semidefinite_input(self):
        H = np.zeros((3, 3))
        pd = pseudo_data(np.zeros(3), np.zeros(3), H)
        assert pd.jitter > 0.0

    def test_conditioning_error_after_max_jitter(self):
        H = np.array([[1.0]])   # -H negative definite beyond any jitter
        with pytest.raises(np.linalg.LinAlgError):
            pseudo_data(np.zeros(1), np.zeros(1), H)

    def test_matches_scipy_wrappers_bitwise(self):
        # pseudo_data calls LAPACK directly; the reference is the same
        # factorization through scipy.linalg's validating wrappers
        import scipy.linalg

        def reference(beta, u, H):
            J, p = -H, len(beta)
            for jit in (0.0,) + tuple(1e-10 * 2.0**k for k in range(21)):
                A = J + jit * np.eye(p) if jit else J
                try:
                    X = scipy.linalg.cholesky(A, lower=False)
                except scipy.linalg.LinAlgError:
                    continue
                W = scipy.linalg.solve_triangular(X, A @ beta + u, trans="T", lower=False)
                return X, W, jit
            raise AssertionError("no jitter made -H positive definite")

        rng = np.random.default_rng(16)
        jittered = 0
        for trial in range(300):
            p = int(rng.integers(1, 46))
            # every third matrix is rank deficient, so it needs jitter
            G = rng.normal(size=(p + 3 if trial % 3 else p // 2, p))
            H = -(G.T @ G)
            beta, u = rng.normal(size=p), rng.normal(size=p)
            pd = pseudo_data(beta, u, H)
            X, W, jit = reference(beta, u, H)
            assert np.array_equal(pd.X, X) and pd.X.flags.f_contiguous == X.flags.f_contiguous
            assert np.array_equal(pd.W, W) and pd.jitter == jit
            jittered += jit > 0.0
        assert jittered >= 50

    @pytest.mark.parametrize("bad", ["H", "beta", "u"])
    def test_non_finite_input_raises(self, bad):
        H, beta, u = -np.eye(3), np.ones(3), np.ones(3)
        {"H": H, "beta": beta, "u": u}[bad][1] = np.nan if bad != "u" else np.inf
        with pytest.raises(ValueError, match="non-finite"):
            pseudo_data(beta, u, H)

    def test_empty_block(self, capfd):
        # BAR's block once every coefficient is 0: no LAPACK call, which
        # would reject it and print to stderr
        pd = pseudo_data(np.empty(0), np.empty(0), np.empty((0, 0)))
        assert pd.X.shape == (0, 0) and pd.W.shape == (0,) and pd.jitter == 0.0
        assert capfd.readouterr() == ("", "")


class TestTruncationConvention:
    def test_calendar_switch_changes_risk(self):
        rec = SubjectRecord(1.0, 2.0, 1, 3.0, 1, [0.0], [0.0], [0.0])
        from scrbar import WeibullBaselineSet
        from scrbar import NuisanceParameters
        quad_spec = ModelParameters(
            zero_beta((1, 1, 1)),
            NuisanceParameters(1.0, WeibullBaselineSet(
                np.log([2.0] * 3), np.zeros(3))))
        # quadratic hazard, Lambda(t) = t^2: the window [l, y1] counts, not y1 - l
        rt = risk_terms(rec, quad_spec)
        assert rt.g2 == pytest.approx(2.0 * (4.0 - 1.0))      # 2 * (y1^2 - l^2)

    def test_other_conventions_refused(self):
        data = small_dataset(n=10, seed=30)
        params = random_params(data, np.random.default_rng(31))
        with pytest.raises(ValueError, match="unknown truncation convention 'gap'"):
            log_likelihood(params, data, truncation="gap")

    def test_other_quadrature_refused(self):
        # the keyword is kept only to accept None; the rule is fixed
        data = small_dataset(n=10, seed=30)
        params = random_params(data, np.random.default_rng(31), baseline="bernstein")
        assert log_likelihood(params, data, quad=None) == log_likelihood(params, data)
        with pytest.raises(ValueError, match="32 points"):
            log_likelihood(params, data, quad=64)

    def test_oracle_agrees_under_calendar_convention(self):
        data = small_dataset(n=10, seed=30, trunc_upper=0.8)
        params = random_params(data, np.random.default_rng(31))
        ll = log_likelihood(params, data)
        oracle = sum(np.log(frailty_integral_oracle(params, r))
                     for r in data.records)
        assert abs(ll - oracle) / abs(ll) < 1e-8


class TestRowOrder:
    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @CALENDAR
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), perm=st.permutations(range(25)))
    def test_permuting_rows_leaves_derivatives_unchanged(self, baseline, truncation,
                                                        seed, perm):
        data = small_dataset(n=25, seed=seed)
        params = random_params(data, np.random.default_rng(seed), baseline=baseline)
        arr = data.arrays()
        shuffled = Dataset.from_arrays(*(arr[k][list(perm)] for k in (
            "l", "y1", "delta1", "y2", "delta2", "Z1", "Z2", "Z3")))
        assert log_likelihood(params, shuffled) == pytest.approx(
            log_likelihood(params, data), rel=1e-12)
        for f in (gradient_beta, hessian_beta):
            want = f(params, data)
            np.testing.assert_allclose(f(params, shuffled), want,
                                       rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestPointMemo:
    """BetaLikelihood keeps the closed form at the last beta; its answers must
    be those of a fresh instance whatever the order of calls."""

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_in_place_mutation_never_returns_stale_point(self, baseline, seed):
        data = small_dataset(n=25, seed=seed)
        rng = np.random.default_rng(seed)
        nuisance = random_params(data, rng, baseline=baseline).nuisance
        ev = BetaLikelihood(data, nuisance)
        b = rng.normal(0.0, 0.3, data.p)
        ev.gradient(b)
        b[rng.integers(data.p)] += 0.25
        fresh = BetaLikelihood(data, nuisance)
        assert np.array_equal(ev.hessian(b), fresh.hessian(b.copy()))
        b *= -1.0
        assert ev.loglik(b) == BetaLikelihood(data, nuisance).loglik(b.copy())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.lists(st.sampled_from(
        [(0, "gradient"), (0, "hessian"), (0, "loglik"),
         (1, "gradient"), (1, "hessian"), (1, "loglik")]), min_size=1, max_size=10))
    def test_alternating_betas_match_fresh_instances(self, seed, order):
        data = small_dataset(n=25, seed=seed)
        rng = np.random.default_rng(seed)
        nuisance = random_params(data, rng).nuisance
        betas = [rng.normal(0.0, 0.3, data.p) for _ in range(2)]
        ev = BetaLikelihood(data, nuisance)
        for i, name in order:
            got = getattr(ev, name)(betas[i])
            want = getattr(BetaLikelihood(data, nuisance), name)(betas[i])
            assert np.array_equal(got, want)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_writing_into_a_hessian_leaves_the_next_unchanged(self, seed):
        data = small_dataset(n=25, seed=seed)
        rng = np.random.default_rng(seed)
        nuisance = random_params(data, rng).nuisance
        b = rng.normal(0.0, 0.3, data.p)
        ev = BetaLikelihood(data, nuisance)
        H = ev.hessian(b)
        want = H.copy()
        H += 1.0
        H[0, -1] = np.nan
        again = ev.hessian(b)
        assert again is not H
        assert np.array_equal(again, want)
        assert np.array_equal(again, BetaLikelihood(data, nuisance).hessian(b.copy()))


def _reference_hessian(ev, beta):
    """The beta Hessian as the per-transition-block loop built it, with the
    lower triangle of each diagonal block mirrored: the reference that the
    fused routes (Gram on these shared covariates, V'V - M o U'U otherwise)
    must reproduce."""
    pt = ev._at(beta)
    core, w = pt.core, pt.shrink_weights()
    offs, Z = core.offs, core.Z
    H = np.zeros((core.p, core.p))
    for k in range(3):
        for kp in range(k, 3):
            a = w[:, k] * w[:, kp] / pt.c
            if kp == k:
                a = a - w[:, k]
            blk = Z[k].T @ (a[:, None] * Z[kp])
            if kp == k:
                blk = np.tril(blk) + np.tril(blk, -1).T
            H[offs[k]:offs[k + 1], offs[kp]:offs[kp + 1]] = blk
            H[offs[kp]:offs[kp + 1], offs[k]:offs[k + 1]] = blk.T
    return H


class TestHessianBlocks:
    """One routine builds the full beta Hessian and any principal block."""

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fused_matches_block_loop(self, baseline, seed):
        data = small_dataset(n=40, seed=seed)
        rng = np.random.default_rng(seed)
        params = random_params(data, rng, baseline=baseline)
        ev = BetaLikelihood(data, params.nuisance)
        b = params.beta.stacked
        H, want = ev.hessian(b), _reference_hessian(ev, b)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_block_is_the_full_matrix_block(self, seed, data):
        ds = small_dataset(n=40, seed=seed)
        rng = np.random.default_rng(seed)
        params = random_params(ds, rng)
        b = params.beta.stacked
        idx = np.array(data.draw(st.lists(st.integers(0, ds.p - 1), unique=True)),
                       dtype=np.intp)
        idx.sort()
        ev = BetaLikelihood(ds, params.nuisance)
        block = ev.hessian(b, idx)
        full = BetaLikelihood(ds, params.nuisance).hessian(b)
        assert block.shape == (idx.size, idx.size)
        assert np.array_equal(block, block.T)
        assert np.max(np.abs(block - full[np.ix_(idx, idx)]), initial=0.0) <= \
            1e-13 * np.max(np.abs(full))
        # a block is never the memoized full matrix, and never changes it
        block += 1.0
        assert np.array_equal(ev.hessian(b), full)


def _vu_route(data, nuisance):
    """A BetaLikelihood that builds its Hessian by the V/U route even on
    shared covariates: its core reports no Gram table."""
    ev = BetaLikelihood(data, nuisance)
    ev.core.gram = None
    return ev


class TestHessianRoutes:
    """On shared covariates the Hessian is one Gram product gathered through
    an index map; on per-transition covariates it is V'V - M o U'U.  Both
    give the same matrix and both are exactly symmetric."""

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @pytest.mark.parametrize("trunc_upper", [0.0, 0.4])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_gram_matches_vu(self, baseline, trunc_upper, seed, data):
        ds = small_dataset(n=60, d=4, seed=seed, trunc_upper=trunc_upper)
        rng = np.random.default_rng(seed)
        params = random_params(ds, rng, baseline=baseline)
        b = params.beta.stacked
        gram = BetaLikelihood(ds, params.nuisance)
        vu = _vu_route(ds, params.nuisance)
        assert gram.core.gram is not None
        full = vu.hessian(b)
        scale = np.max(np.abs(full))
        blocks = [None] + [np.sort(rng.choice(ds.p, size, replace=False))
                           for size in data.draw(st.lists(st.integers(1, ds.p),
                                                          min_size=1, max_size=4))]
        for idx in blocks:
            got, want = gram.hessian(b, idx), vu.hessian(b, idx)
            assert got.shape == want.shape
            assert np.array_equal(got, got.T) and np.array_equal(want, want.T)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_per_transition_hessian_matches_gradient_differences(self):
        data = small_dataset(n=40, d=4, seed=10).restrict_covariates(
            [0, 2], [1, 3], [0, 1, 3])
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = random_params(data, rng)
            ev = BetaLikelihood(data, params.nuisance)
            assert ev.core.gram is None
            b0 = params.beta.stacked
            H = ev.hessian(b0)
            block = ev.hessian(b0, np.sort(rng.choice(data.p, 4, replace=False)))
            assert np.array_equal(H, H.T) and np.array_equal(block, block.T)
            h = 1e-6
            fd = np.empty_like(H)
            for j in range(b0.size):
                e = np.zeros_like(b0)
                e[j] = h
                fd[:, j] = (ev.gradient(b0 + e) - ev.gradient(b0 - e)) / (2 * h)
            denom = np.maximum(1.0, np.abs(fd))
            assert np.max(np.abs(H - fd) / denom) < 1e-4

    def test_route_follows_the_covariates(self, tmp_path):
        # a refactor that stops detecting shared covariates fails here
        # instead of silently taking the slower route
        data = small_dataset(n=30, d=3, seed=4)
        assert _Core(data).gram is not None
        path = tmp_path / "shared.csv"
        write_dataset_csv(path, data)
        assert "z_1" in path.read_text().splitlines()[0].split(",")
        assert _Core(read_dataset_csv(path)[0]).gram is not None
        kept = data.restrict_covariates([0, 1], [0, 2], [0, 1, 2])
        assert _Core(kept).gram is None
        assert _Core(data.restrict_covariates([0], [1], [2])).gram is None
        write_dataset_csv(path, kept)
        assert "z1_1" in path.read_text().splitlines()[0].split(",")
        assert _Core(read_dataset_csv(path)[0]).gram is None


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestCoreInvariants:
    """Properties of the beta-likelihood on random designs and parameters."""

    @CALENDAR
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 60), d=st.integers(1, 4),
           trunc_upper=st.sampled_from([0.0, 0.4]))
    def test_exponential_weibull_is_constant_bernstein(self, truncation, seed, n, d,
                                                       trunc_upper):
        # alpha = 1 gives the constant hazard tau; a degree-0 Bernstein
        # log-hazard phi is the constant hazard exp(phi)
        from scrbar import BernsteinBaselineSet, NuisanceParameters, WeibullBaselineSet
        from scrbar.estimation import bernstein_supports
        data = small_dataset(n=n, d=d, seed=seed, trunc_upper=trunc_upper)
        rng = np.random.default_rng(seed)
        params = random_params(data, rng)
        log_tau = rng.normal(-1.0, 0.7, 3)
        weibull = WeibullBaselineSet(log_alpha=np.zeros(3), log_tau=log_tau)
        flat = BernsteinBaselineSet((0, 0, 0), [[lt] for lt in log_tau],
                                    bernstein_supports(data))
        evs = [BetaLikelihood(data, NuisanceParameters(params.nuisance.gamma, spec))
               for spec in (weibull, flat)]
        b = params.beta.stacked
        assert evs[1].loglik(b) == pytest.approx(evs[0].loglik(b), rel=1e-12, abs=0.0)
        assert _max_rel(evs[1].gradient(b), evs[0].gradient(b)) <= 1e-12

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @CALENDAR
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 60), d=st.integers(1, 4),
           data=st.data())
    def test_additive_over_a_partition_of_the_records(self, baseline, truncation, seed,
                                                      n, d, data):
        ds = small_dataset(n=n, d=d, seed=seed)
        params = random_params(ds, np.random.default_rng(seed), baseline=baseline)
        part = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        part[0], part[-1] = True, False          # both parts nonempty
        arr = ds.arrays()
        parts = [Dataset.from_arrays(*(arr[k][mask] for k in (
            "l", "y1", "delta1", "y2", "delta2", "Z1", "Z2", "Z3")))
            for mask in (part, ~part)]
        evs = [BetaLikelihood(x, params.nuisance) for x in [ds] + parts]
        b = params.beta.stacked
        ll = [ev.loglik(b) for ev in evs]
        assert ll[1] + ll[2] == pytest.approx(ll[0], rel=1e-12, abs=0.0)
        g = [ev.gradient(b) for ev in evs]
        assert np.max(np.abs(g[1] + g[2] - g[0])) <= 1e-12 * (
            np.max(np.abs(g[1])) + np.max(np.abs(g[2])))

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @CALENDAR
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 60), d=st.integers(1, 4),
           trunc_upper=st.sampled_from([0.0, 0.4]), log_c=st.floats(-2.0, 2.0))
    def test_rescaling_time(self, baseline, truncation, seed, n, d, trunc_upper, log_c):
        # t -> c t with tau_j -> tau_j c^(-alpha_j) (Weibull), or supports
        # -> c supports and phi_j -> phi_j - log c (Bernstein), keeps every
        # cumulative hazard and divides every hazard by c: the log-likelihood
        # moves by the Jacobian -log c per event, and its derivatives in beta
        # do not move.  The supports are scaled explicitly, because
        # bernstein_supports' fallback for transition 3 is a fixed 1.0.
        from scrbar import BernsteinBaselineSet, NuisanceParameters, WeibullBaselineSet
        from scrbar.estimation import bernstein_supports
        data = small_dataset(n=n, d=d, seed=seed, trunc_upper=trunc_upper)
        rng = np.random.default_rng(seed)
        params = random_params(data, rng)
        c = np.exp(log_c)
        arr = data.arrays()
        scaled = Dataset.from_arrays(c * arr["l"], c * arr["y1"], arr["delta1"],
                                     c * arr["y2"], arr["delta2"],
                                     arr["Z1"], arr["Z2"], arr["Z3"])
        if baseline == "weibull":
            spec = params.nuisance.baseline
            moved = WeibullBaselineSet(spec.log_alpha, spec.log_tau - spec.alpha * log_c)
        else:
            degrees = (2, 2, 3)
            coeffs = [rng.normal(-1.0, 0.5, m + 1) for m in degrees]
            supports = bernstein_supports(data)
            spec = BernsteinBaselineSet(degrees, coeffs, supports)
            moved = BernsteinBaselineSet(degrees, [phi - log_c for phi in coeffs],
                                         [(c * lo, c * hi) for lo, hi in supports])
        gamma = params.nuisance.gamma
        ev, ev_c = (BetaLikelihood(x, NuisanceParameters(gamma, s))
                    for x, s in ((data, spec), (scaled, moved)))
        b = params.beta.stacked
        events = arr["delta1"].sum() + arr["delta2"].sum()
        assert ev_c.loglik(b) + events * log_c == pytest.approx(ev.loglik(b), rel=1e-12,
                                                                abs=0.0)
        assert _max_rel(ev_c.gradient(b), ev.gradient(b)) <= 1e-12
        assert _max_rel(ev_c.hessian(b), ev.hessian(b)) <= 1e-12
