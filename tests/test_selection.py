import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scrbar import (
    Dataset,
    PenalizedEstimate,
    PenaltyConfig,
    SubjectRecord,
    alasso_weights,
    bar_step,
    default_lambda_grid,
    effective_params,
    fit_unpenalized,
    gcv_select,
    penalized_solve,
)
from scrbar.estimation import FitConfig
from scrbar.likelihood import BetaLikelihood, PseudoData, pseudo_data
import scrbar.selection as selection_mod
from scrbar.selection import _coordinate_descent, _l1_step, l1_kkt_residual
from _helpers import small_dataset, small_scenario
from scrbar.datagen import simulate_dataset


def random_pseudo(rng, p):
    A = rng.normal(size=(p + 3, p))
    X = np.linalg.qr(A)[0][:p] * rng.uniform(0.5, 2.0)
    X = np.triu(rng.normal(size=(p, p))) + 3 * np.eye(p)
    W = rng.normal(size=p)
    return PseudoData(X=X, W=W)


@pytest.fixture(scope="module")
def fitted():
    data = small_dataset(n=60, d=4, seed=21)
    nu = fit_unpenalized(data, FitConfig(baseline="weibull"))
    return data, nu


class TestBarStep:
    def test_lambda_zero_is_newton_step(self):
        rng = np.random.default_rng(0)
        pd = random_pseudo(rng, 5)
        beta_prev = rng.normal(size=5) + 2.0
        step = bar_step(beta_prev, pd, 0.0)
        expected = np.linalg.solve(pd.X.T @ pd.X, pd.X.T @ pd.W)
        np.testing.assert_allclose(step, expected, atol=1e-12)

    def test_huge_lambda_crushes_everything(self):
        rng = np.random.default_rng(1)
        pd = random_pseudo(rng, 6)
        step = bar_step(np.ones(6), pd, 1e12)
        assert np.linalg.norm(step) < 1e-6

    def test_orthonormal_scalar_update(self):
        # X'X = 1: update is w / (1 + lam / beta_prev^2)
        pd = PseudoData(X=np.array([[1.0]]), W=np.array([0.8]))
        for lam, bp in [(0.5, 1.0), (2.0, 0.3), (0.0, 2.0)]:
            got = bar_step(np.array([bp]), pd, lam)[0]
            assert got == pytest.approx(0.8 / (1.0 + lam / bp**2), rel=1e-12)

    def test_frozen_coordinates_stay_zero(self):
        rng = np.random.default_rng(2)
        pd = random_pseudo(rng, 4)
        beta_prev = np.array([1.0, 0.0, -2.0, 1e-9])
        step = bar_step(beta_prev, pd, 0.1)
        assert step[1] == 0.0 and step[3] == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_matches_the_copying_ridge(self, lam):
        # the step solves the normal equations (G, c) that pseudo_data formed;
        # the reference multiplies the factor back, Xa'Xa plus a diagonal
        # matrix against Xa'W, and solves by LU: the same system, rounded
        # differently
        rng = np.random.default_rng(4)
        for _ in range(60):
            p = int(rng.integers(1, 12))
            G = rng.normal(size=(p + 5, p))
            pd = pseudo_data(rng.normal(size=p), rng.normal(size=p), -(G.T @ G))
            beta_prev = np.where(rng.random(p) < 0.2, 0.0, rng.normal(size=p))
            active = np.abs(beta_prev) >= PenaltyConfig.zero_threshold
            want = np.zeros(p)
            if active.any():
                Xa = pd.X[:, active]
                A = Xa.T @ Xa
                if lam != 0.0:
                    A = A + lam * np.diag(1.0 / beta_prev[active] ** 2)
                want[active] = np.linalg.solve(A, Xa.T @ pd.W)
            got = bar_step(beta_prev, pd, lam)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= \
                1e-12 * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_indefinite_system_takes_the_lu_solve(self, frozen):
        # a ridge system that is not positive definite makes dposv report
        # info > 0; the step then solves it by LU instead of failing
        G = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        c = np.array([1.0, -1.0, 2.0])
        pd = PseudoData(X=np.eye(3), W=np.zeros(3), G=G, c=c)
        beta_prev = np.array([1.0, 2.0, 0.0 if frozen else 1.0])
        active = beta_prev != 0.0
        A = G[np.ix_(active, active)] + 0.1 * np.diag(1.0 / beta_prev[active] ** 2)
        assert np.linalg.eigvalsh(A)[0] < 0.0
        want = np.zeros(3)
        want[active] = np.linalg.solve(A, c[active])
        assert np.array_equal(bar_step(beta_prev, pd, 0.1), want)

    def test_freeze_monotone_over_random_runs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = int(rng.integers(3, 10))
            pd = random_pseudo(rng, p)
            lam = float(rng.uniform(0.1, 20.0))
            beta = rng.normal(size=p)
            zeros = set(np.flatnonzero(np.abs(beta) < 1e-6))
            for _ in range(30):
                beta = bar_step(beta, pd, lam)
                now = set(np.flatnonzero(np.abs(beta) < 1e-6))
                assert zeros <= now
                zeros = now


class TestPenaltyDomain:
    """Settings outside their domain are refused before any solve: a
    negative or infinite lambda, no iterations, a tolerance that is not
    positive and finite, and a grid that is not a 1-d array of positive
    finite values.  lambda = 0 stays valid (the unpenalized fixed point)."""

    @pytest.mark.parametrize("kw, lam", [
        ({}, -1.0),
        ({}, np.inf),
        ({"max_iter": 0}, 1.0),
        ({"tol": np.nan}, 1.0),
        ({"tol": np.inf}, 1.0),
        ({"lambda_grid": [np.inf]}, 1.0),
        ({"lambda_grid": [1.0, np.nan]}, 1.0),
        ({"lambda_grid": [[0.5, 1.0]]}, 1.0),
    ], ids=["lam=-1", "lam=inf", "max_iter=0", "tol=nan", "tol=inf",
            "grid=inf", "grid=nan", "grid-2d"])
    def test_refused(self, fitted, kw, lam):
        data, nu = fitted
        with pytest.raises(ValueError):
            penalized_solve(data, nu, lam, PenaltyConfig(**kw))


class TestBarSolve:
    def test_lambda_zero_fixed_point_is_unpenalized_max(self, fitted):
        data, nu = fitted
        est = penalized_solve(data, nu, 0.0, PenaltyConfig(tol=1e-12, max_iter=200))
        ev = BetaLikelihood(data, nu.params.nuisance)
        # at the fixed point the refreshed surrogate's minimizer is itself
        pd = pseudo_data(est.beta_hat, ev.gradient(est.beta_hat),
                         ev.hessian(est.beta_hat))
        newton = np.linalg.solve(pd.X.T @ pd.X, pd.X.T @ pd.W)
        np.testing.assert_allclose(est.beta_hat, newton, atol=1e-8)

    def test_initial_exact_zero_remains_zero(self, fitted):
        data, nu = fitted
        beta0 = nu.params.beta.stacked.copy()
        beta0[2] = 0.0
        est = penalized_solve(data, nu, 0.5, PenaltyConfig(), beta_init=beta0)
        assert est.beta_hat[2] == 0.0

    def test_support_matches_threshold(self, fitted):
        data, nu = fitted
        est = penalized_solve(data, nu, 2.0, PenaltyConfig())
        np.testing.assert_array_equal(
            est.support, np.flatnonzero(np.abs(est.beta_hat) >= 1e-6))
        off = np.setdiff1d(np.arange(data.p), est.support)
        assert np.all(est.beta_hat[off] == 0.0)

    def test_scalar_fixed_point_matches_grid_search(self):
        # iterate beta <- argmin (w - b)^2 + lam b^2 / beta_prev^2 on a fine
        # grid (the objective whose exact minimizer is the ridge update);
        # the limit must agree with the closed-form iteration
        w, lam = 1.4, 0.25
        grid = np.linspace(1e-3, 2.0, 2_000_001)   # ~1e-6 resolution
        b_grid, b_closed = w, w
        for _ in range(500):
            obj = (w - grid) ** 2 + lam * grid**2 / b_grid**2
            b_new = grid[np.argmin(obj)]
            done = abs(b_new - b_grid) < 1e-9
            b_grid = b_new
            if done:
                break
        for _ in range(500):
            b_closed = w / (1.0 + lam / b_closed**2)
        assert b_closed == pytest.approx(b_grid, abs=1e-6)

    def test_duplicated_columns_get_identical_estimates(self):
        base = small_dataset(n=80, d=3, seed=33)
        recs = [SubjectRecord(r.l, r.y1, r.delta1, r.y2, r.delta2,
                              np.r_[r.z1, r.z1[0]], r.z2, r.z3)
                for r in base.records]
        data = Dataset(recs)
        nu = fit_unpenalized(data, FitConfig(baseline="weibull"))
        init = nu.params.beta.stacked.copy()
        init[0] = init[3] = 0.5 * (init[0] + init[3])   # symmetric start
        est = penalized_solve(data, nu, 1.0, PenaltyConfig(tol=1e-10, max_iter=300),
                              beta_init=init)
        assert abs(est.beta_hat[0] - est.beta_hat[3]) < 1e-8

    def test_null_duplicates_selected_or_dropped_jointly(self):
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            rng = np.random.default_rng(1000 + seed)
            scen = small_scenario(n=300, d=5, seed=seed, censor_upper=30.0)
            b1 = np.array([1.0, 0.8, 0.0, 0.0, 0.0])
            from scrbar import RegressionCoefficients
            from dataclasses import replace
            scen = replace(scen, beta=RegressionCoefficients(b1, b1, b1))
            data = simulate_dataset(scen, rng=rng)
            # make columns 3-5 (all null) exact copies of column 3
            recs = []
            for r in data.records:
                z = r.z1.copy()
                z[3] = z[4] = z[2]
                recs.append(SubjectRecord(r.l, r.y1, r.delta1, r.y2, r.delta2,
                                          z, z, z))
            data = Dataset(recs)
            nu = fit_unpenalized(data, FitConfig(baseline="weibull"))
            est = penalized_solve(data, nu, 2.0, PenaltyConfig())
            for k0 in (0, 5, 10):
                sel = np.abs(est.beta_hat[[k0 + 2, k0 + 3, k0 + 4]]) >= 1e-6
                hits += int(sel.all() or not sel.any())
        assert hits >= 0.9 * 3 * n_seeds


class TestL1:
    def test_lambda_zero_gives_surrogate_minimizer(self, fitted):
        data, nu = fitted
        est = penalized_solve(data, nu, 1e-12, PenaltyConfig(kind="lasso", tol=1e-10))
        assert est.support.size == data.p

    def test_everything_zero_above_gradient_bound(self, fitted):
        data, nu = fitted
        ev = BetaLikelihood(data, nu.params.nuisance)
        u0 = ev.gradient(np.zeros(data.p))
        lam = np.max(np.abs(u0)) * 1.05
        est = penalized_solve(data, nu, lam, PenaltyConfig(kind="lasso"))
        assert est.support.size == 0
        np.testing.assert_array_equal(est.beta_hat, np.zeros(data.p))

    def test_orthonormal_scalar_soft_threshold(self):
        G = np.array([[1.0]])
        for w, lam in [(0.9, 0.3), (-0.7, 0.2), (0.2, 0.5)]:
            b = _coordinate_descent(G, np.array([w]), np.array([0.0]), lam,
                                    np.array([1.0]))
            expected = np.sign(w) * max(abs(w) - lam, 0.0)
            assert b[0] == pytest.approx(expected, abs=1e-12)

    def test_kkt_residual_at_convergence(self, fitted):
        data, nu = fitted
        ev = BetaLikelihood(data, nu.params.nuisance)
        for lam in (0.3, 2.0, 8.0):
            est = penalized_solve(data, nu, lam, PenaltyConfig(kind="lasso", tol=1e-9,
                                                               max_iter=200))
            pd = pseudo_data(est.beta_hat, ev.gradient(est.beta_hat),
                             ev.hessian(est.beta_hat))
            G, c = pd.X.T @ pd.X, pd.X.T @ pd.W
            assert l1_kkt_residual(G, c, est.beta_hat, lam,
                                   np.ones(data.p)) < 1e-6

    def test_alasso_weights_capped(self):
        w = alasso_weights(np.array([0.5, 1e-200, 2.0]))
        assert w[0] == pytest.approx(2.0)
        assert w[1] == 1e12

    @pytest.mark.filterwarnings("error")
    def test_alasso_weights_cap_exact_zero_silently(self):
        w = alasso_weights(np.array([0.0, -0.0, 5e-324, 1.0]))
        np.testing.assert_array_equal(w, [1e12, 1e12, 1e12, 1.0])


def _reference_coordinate_descent(G, c, b0, lam, weights, sweeps=2000, tol=1e-10):
    """The coordinate-descent loop on numpy scalars, as first written: the
    reference that the float-scalar loop must reproduce exactly."""
    def soft(x, thr):
        return np.sign(x) * max(abs(x) - thr, 0.0)

    b = np.asarray(b0, dtype=float).copy()
    r = c - G @ b
    diag = np.diag(G)
    for _ in range(sweeps):
        delta = 0.0
        for j in range(len(b)):
            old = b[j]
            bj = soft(r[j] + diag[j] * old, lam * weights[j]) / diag[j]
            if bj != old:
                r -= G[:, j] * (bj - old)
                b[j] = bj
                delta = max(delta, abs(bj - old))
        if delta < tol:
            break
    return b


def _reference_kkt_residual(G, c, b, lam, weights):
    grad = G @ b - c
    res = 0.0
    for j in range(len(b)):
        if b[j] != 0.0:
            res = max(res, abs(grad[j] + lam * weights[j] * np.sign(b[j])))
        else:
            res = max(res, max(abs(grad[j]) - lam * weights[j], 0.0))
    return float(res)


class TestCoordinateDescentReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 12),
           t=st.floats(0.0, 1.0), capped=st.booleans(),
           sweeps=st.sampled_from([1, 3, 2000]))
    def test_matches_numpy_scalar_loop_exactly(self, seed, p, t, capped, sweeps):
        rng = np.random.default_rng(seed)
        X = np.triu(rng.normal(size=(p, p))) + rng.uniform(0.2, 3.0) * np.eye(p)
        W = rng.normal(size=p)
        G, c = X.T @ X, X.T @ W
        b0 = np.where(rng.random(p) < 0.3, 0.0, rng.normal(size=p))
        # adaptive weights up to the cap, or LASSO's ones; lambda log-uniform
        # from 1e-8 to twice the largest |c|, beyond which every coordinate is 0
        weights = (alasso_weights(np.where(rng.random(p) < 0.2, 1e-300,
                                           rng.normal(size=p)))
                   if capped else np.ones(p))
        lam_max = 2.0 * max(float(np.max(np.abs(c), initial=0.0)), 1e-8)
        lam = float(np.exp(np.log(1e-8) + t * np.log(lam_max / 1e-8)))
        got = _coordinate_descent(G, c, b0, lam, weights, sweeps=sweeps)
        want = _reference_coordinate_descent(G, c, b0, lam, weights, sweeps=sweeps)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert l1_kkt_residual(G, c, got, lam, weights) == _reference_kkt_residual(
            G, c, got, lam, weights)


def _well_conditioned_l1_problem(seed, p, t, capped):
    """A random L1 surrogate problem with G = X'X well conditioned, from
    X = 0.3 triu(N(0, 1)) + U(1, 3) I, and lambda log-uniform from 1e-8 to
    twice the largest |c|."""
    rng = np.random.default_rng(seed)
    X = 0.3 * np.triu(rng.normal(size=(p, p))) + rng.uniform(1.0, 3.0) * np.eye(p)
    W = rng.normal(size=p)
    G, c = X.T @ X, X.T @ W
    b0 = np.where(rng.random(p) < 0.3, 0.0, rng.normal(size=p))
    weights = (alasso_weights(np.where(rng.random(p) < 0.2, 1e-300, rng.normal(size=p)))
               if capped else np.ones(p))
    lam_max = 2.0 * max(float(np.max(np.abs(c), initial=0.0)), 1e-8)
    lam = float(np.exp(np.log(1e-8) + t * np.log(lam_max / 1e-8)))
    return G, c, b0, lam, weights


class TestExactFinish:
    """``_l1_step`` is coordinate descent finished by one solve on its signed
    support, kept only where the KKT conditions confirm it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(0, 30),
           t=st.floats(0.0, 1.0), capped=st.booleans())
    def test_same_signed_support_at_the_exact_minimizer(self, seed, p, t, capped):
        G, c, b0, lam, weights = _well_conditioned_l1_problem(seed, p, t, capped)
        got, _ = _l1_step(G, c, b0, lam, weights)
        want = _coordinate_descent(G, c, b0, lam, weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(np.sign(got), np.sign(want))
        scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
        assert l1_kkt_residual(G, c, got, lam, weights) <= 1e-12 * scale

    def test_unverified_finish_returns_coordinate_descent(self, monkeypatch):
        # two identical columns: the block on both is singular, so the solve
        # on their common sign cannot verify; the smaller adaptive weight
        # draws the mass over by only 1e-6 per sweep, so coordinate descent
        # keeps that sign until its sweeps run out
        G = np.ones((2, 2))
        c = np.array([2.0, 2.0])
        weights = np.array([1.001, 1.0])
        b0 = np.array([1.0, 1.0])
        real, tries = selection_mod._signed_support_solution, []

        def recording(*args):
            tries.append(real(*args))
            return tries[-1]

        monkeypatch.setattr(selection_mod, "_signed_support_solution", recording)
        got, _ = _l1_step(G, c, b0, 1e-3, weights)
        want = _coordinate_descent(G, c, b0, 1e-3, weights)
        assert tries == [None]
        assert np.all(got > 0.0) and got.tobytes() == want.tobytes()


class TestEffectiveParams:
    def test_lambda_zero_counts_nonzeros(self):
        beta = np.array([1.0, 0.0, -0.5, 2.0])
        H = -np.eye(4) * 3.0
        s = effective_params(beta, H, 0.0, PenaltyConfig(kind="bar"))
        assert s == pytest.approx(3.0)

    def test_infinite_lambda_kills_everything(self):
        beta = np.array([1.0, -0.5])
        H = -np.eye(2)
        s = effective_params(beta, H, 1e14, PenaltyConfig(kind="bar"))
        assert s < 1e-10

    def test_scalar_trace_formula(self):
        # J = 2, r = 1 (lasso with |beta| = 1): s = 2 / (2 + lam)
        beta = np.array([1.0])
        H = np.array([[-2.0]])
        for lam in (0.0, 1.0, 5.0):
            s = effective_params(beta, H, lam, PenaltyConfig(kind="lasso"))
            assert s == pytest.approx(2.0 / (2.0 + lam))

    def test_bar_uses_doubled_curvature(self):
        beta = np.array([2.0])
        H = np.array([[-2.0]])
        s = effective_params(beta, H, 3.0, PenaltyConfig(kind="bar"))
        assert s == pytest.approx(2.0 / (2.0 + 3.0 * 2.0 / 2.0))

    def test_alasso_requires_weights(self):
        with pytest.raises(ValueError):
            effective_params(np.array([1.0]), np.array([[-1.0]]), 1.0,
                             PenaltyConfig(kind="alasso"))


class TestGcv:
    def test_single_lambda_grid(self, fitted):
        data, nu = fitted
        cfg = PenaltyConfig(kind="bar", lambda_grid=np.array([1.5]))
        res = gcv_select(data, nu, cfg)
        assert res.best_lambda == 1.5
        assert len(res.table) == 1

    def test_ties_prefer_larger_lambda(self, fitted):
        data, nu = fitted
        lam = 2.0
        cfg = PenaltyConfig(kind="bar", lambda_grid=np.array([lam, lam]))
        res = gcv_select(data, nu, cfg)
        assert res.best_lambda == lam

    def test_saturated_model_excluded(self):
        # p = n: the unpenalized end of the grid has s = n and is invalid
        data = small_dataset(n=6, d=2, seed=40)
        nu_data = small_dataset(n=60, d=2, seed=40)
        nu = fit_unpenalized(nu_data, FitConfig(baseline="weibull"))
        cfg = PenaltyConfig(kind="bar", lambda_grid=np.array([1e-9, 5.0]))
        res = gcv_select(data, nu, cfg)
        assert any("excluded" in row["note"] for row in res.table) or \
            all(row["ok"] for row in res.table)
        assert res.best_lambda in (1e-9, 5.0)

    def test_path_is_warm_started_and_grid_sorted(self, fitted):
        data, nu = fitted
        cfg = PenaltyConfig(kind="lasso",
                            lambda_grid=np.array([5.0, 0.1, 1.0]))
        res = gcv_select(data, nu, cfg)
        lams = [row["lambda"] for row in res.table]
        assert lams == sorted(lams)
        assert len(res.path) == 3

    def test_default_grid_scales_with_n(self):
        g100 = default_lambda_grid(100)
        g300 = default_lambda_grid(300)
        assert g100.size == 30
        np.testing.assert_allclose(g300, 3.0 * g100)

    @pytest.mark.parametrize("kw", [{"count": 0}, {"lo": 0.0}, {"hi": -1.0},
                                    {"lo": np.nan}, {"hi": np.inf}])
    def test_default_grid_rejects_bad_inputs(self, kw):
        with pytest.raises(ValueError):
            default_lambda_grid(100, **kw)

    def test_gcv_choice_beats_grid_endpoints(self):
        # the tuned BAR model should misclassify strictly less than both
        # the near-unpenalized and the all-zero ends of the path
        from dataclasses import replace
        from scrbar import RegressionCoefficients, confusion_counts
        wins = 0
        n_seeds = 30
        for seed in range(n_seeds):
            scen = small_scenario(n=250, d=5, seed=seed, censor_upper=28.0)
            b = np.array([1.0, 0.8, 0.0, 0.0, 0.0])
            scen = replace(scen, beta=RegressionCoefficients(b, b, b))
            data = simulate_dataset(scen, rng=np.random.default_rng(3000 + seed))
            truth = scen.beta.stacked
            nu = fit_unpenalized(data, FitConfig(baseline="weibull"))
            cfg = PenaltyConfig(kind="bar")
            res = gcv_select(data, nu, cfg)
            grid = default_lambda_grid(len(data))
            mcvs = []
            for lam in (grid.min(), grid.max()):
                est = penalized_solve(data, nu, lam, cfg)
                mcvs.append(confusion_counts(est.beta_hat, truth)[2])
            chosen_mcv = confusion_counts(res.best.beta_hat, truth)[2]
            wins += int(chosen_mcv < min(mcvs))
        assert wins >= 0.8 * n_seeds


def _reference_bar_iterate(ev, beta_init, lam, cfg):
    """BAR's solve loop as it was before the three kinds shared one loop:
    the reference the shared loop must reproduce exactly."""
    beta = np.where(np.abs(beta_init) >= cfg.zero_threshold, beta_init, 0.0)
    converged = False
    n_iter = 0
    jitter = 0.0
    for n_iter in range(1, cfg.max_iter + 1):
        pseudo = pseudo_data(beta, ev.gradient(beta), ev.hessian(beta))
        jitter = max(jitter, pseudo.jitter)
        beta_new = bar_step(beta, pseudo, lam)
        delta = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta = beta_new
        if delta < cfg.tol:
            converged = True
            break
    beta = np.where(np.abs(beta) >= cfg.zero_threshold, beta, 0.0)
    support = np.flatnonzero(beta != 0.0)
    objective = -ev.loglik(beta) + lam * support.size
    return PenalizedEstimate(beta_hat=beta, support=support, lam=float(lam),
                             n_iter=n_iter, objective=objective, converged=converged,
                             jitter=jitter)


def _reference_l1_iterate(ev, beta_init, lam, cfg, weights):
    """The LASSO/ALASSO solve loop as it was before the shared loop."""
    beta = np.asarray(beta_init, dtype=float).copy()
    converged = False
    n_iter = 0
    jitter = 0.0
    for n_iter in range(1, cfg.max_iter + 1):
        pseudo = pseudo_data(beta, ev.gradient(beta), ev.hessian(beta))
        jitter = max(jitter, pseudo.jitter)
        G = pseudo.X.T @ pseudo.X
        c = pseudo.X.T @ pseudo.W
        beta_new = _coordinate_descent(G, c, beta, lam, weights)
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta < cfg.tol:
            converged = True
            break
    support = np.flatnonzero(np.abs(beta) >= cfg.zero_threshold)
    beta = np.where(np.abs(beta) >= cfg.zero_threshold, beta, 0.0)
    objective = -ev.loglik(beta) + lam * float(weights @ np.abs(beta))
    return PenalizedEstimate(beta_hat=beta, support=support, lam=float(lam),
                             n_iter=n_iter, objective=objective, converged=converged,
                             jitter=jitter)


def _reference_solve(ev, beta_init, lam, cfg, weights):
    if weights is None:
        return _reference_bar_iterate(ev, beta_init, lam, cfg)
    return _reference_l1_iterate(ev, beta_init, lam, cfg, weights)


def _assert_same_estimate(got, want, rtol=0.0, atol=0.0):
    """Every field equal; with ``rtol`` or ``atol``, ``beta_hat`` only to those
    tolerances and ``objective`` to 1e-10 relative, and the rest still exactly."""
    for field in dataclasses.fields(PenalizedEstimate):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            if (rtol or atol) and field.name == "beta_hat":
                np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=field.name)
            else:
                assert a.tobytes() == b.tobytes(), field.name
        elif (rtol or atol) and field.name == "objective":
            assert type(a) is type(b) and a == pytest.approx(b, rel=1e-10, abs=0.0)
        else:
            assert type(a) is type(b) and a == b, field.name


# BAR refreshes on its nonzero block, the reference loop on the full
# matrix: the same iterates up to rounding.  LASSO and ALASSO finish each
# step exactly on its signed support where the reference stops coordinate
# descent once a sweep moves no coordinate by 1e-10, so their iterates agree
# to within that stopping rule, not to rounding.
_KIND_TOL = {"bar": {"rtol": 1e-10}, "lasso": {"atol": 1e-8},
             "alasso": {"atol": 1e-8}}


def _kind_weights(kind, nu, p):
    return {"bar": None, "lasso": np.ones(p),
            "alasso": alasso_weights(nu.params.beta.stacked)}[kind]


class TestSolveReference:
    """``penalized_solve`` and every ``gcv_select`` path point are the
    answers of the per-kind loops kept above as the reference, with every
    field but ``beta_hat`` and ``objective`` exact.  ``objective`` agrees to
    1e-10 relative; ``beta_hat`` to 1e-10 relative for BAR, which refreshes
    on its nonzero block where the reference refreshes on the full matrix,
    and to 1e-8 absolute for LASSO and ALASSO, whose steps finish exactly
    where the reference's coordinate descent stops short."""

    @pytest.mark.parametrize("kind", ["bar", "lasso", "alasso"])
    @pytest.mark.parametrize("max_iter", [1, 100])
    @pytest.mark.parametrize("start", ["fit", "zeros"])
    def test_solvers_match_reference(self, fitted, kind, max_iter, start):
        data, nu = fitted
        beta_init = nu.params.beta.stacked.copy()
        if start == "zeros":
            # exact zeros and entries below the zero threshold
            beta_init[[1, 5]] = 0.0
            beta_init[4] = 1e-9
            beta_init[7] = -3e-7
        ev = BetaLikelihood(data, nu.params.nuisance)
        weights = _kind_weights(kind, nu, data.p)
        cfg = PenaltyConfig(kind=kind, max_iter=max_iter)
        nonconverged = 0
        for lam in (0.0, 0.3, 2.0, 9.0):
            got = penalized_solve(data, nu, lam, cfg, beta_init=beta_init)
            _assert_same_estimate(got, _reference_solve(ev, beta_init, lam, cfg, weights),
                                  **_KIND_TOL[kind])
            nonconverged += not got.converged
        if max_iter == 1:
            assert nonconverged > 0

    @pytest.mark.parametrize("kind", ["bar", "lasso", "alasso"])
    @pytest.mark.parametrize("max_iter", [1, 100])
    def test_gcv_path_matches_reference(self, fitted, kind, max_iter):
        data, nu = fitted
        cfg = PenaltyConfig(kind=kind, max_iter=max_iter,
                            lambda_grid=default_lambda_grid(len(data), count=8))
        res = gcv_select(data, nu, cfg)
        ev = BetaLikelihood(data, nu.params.nuisance)
        weights = _kind_weights(kind, nu, data.p)
        # the path is warm-started from the previous scored solution, at the
        # grid's own numpy lambdas
        grid = {float(lam): lam for lam in cfg.lambda_grid}
        start = nu.params.beta.stacked
        scored = [row for row in res.table if row["ok"]]
        assert len(scored) == len(res.path) > 0
        for row, est in zip(scored, res.path):
            want = _reference_solve(ev, start, grid[est.lam], cfg, weights)
            _assert_same_estimate(est, want, **_KIND_TOL[kind])
            assert (row["lambda"], row["n_iter"], row["converged"], row["jitter"]) == \
                (want.lam, want.n_iter, want.converged, want.jitter)
            start = want.beta_hat
        assert res.best_lambda in [est.lam for est in res.path]


@pytest.fixture(scope="module")
def truncated():
    return small_dataset(n=120, d=3, seed=5, trunc_upper=0.4)


class TestFitConvention:
    """Selection evaluates the likelihood at the fit's nuisance, and
    ``cfg.kind`` alone decides the step and the weights."""

    def test_weibull_path_scores_the_fit_likelihood(self, truncated):
        nu = fit_unpenalized(truncated, FitConfig(baseline="weibull"))
        res = gcv_select(truncated, nu, PenaltyConfig(kind="bar"))
        ev = BetaLikelihood(truncated, nu.params.nuisance)
        scored = [row for row in res.table if row["ok"]]
        assert len(scored) == len(res.path) > 0
        for row, est in zip(scored, res.path):
            assert row["loglik"] == ev.loglik(est.beta_hat)

    def test_bernstein_selects_on_truncated_data(self, truncated):
        nu = fit_unpenalized(truncated, FitConfig(baseline="bernstein"))
        res = gcv_select(truncated, nu, PenaltyConfig(kind="bar"))
        assert all(row["ok"] for row in res.table)
        assert res.best.support.size > 0

    @pytest.mark.parametrize("kind", ["bar", "lasso", "alasso"])
    def test_kind_decides_the_step_and_weights(self, truncated, kind):
        nu = fit_unpenalized(truncated, FitConfig(baseline="weibull"))
        cfg = PenaltyConfig(kind=kind)
        ev = BetaLikelihood(truncated, nu.params.nuisance)
        want = selection_mod._solve(ev, nu.params.beta.stacked, 1.0, cfg,
                                    _kind_weights(kind, nu, truncated.p))
        _assert_same_estimate(penalized_solve(truncated, nu, 1.0, cfg), want)


class TestSweepCap:
    """A lambda whose last L1 step ran out of sweeps, without meeting its
    tolerance or verifying, is not converged, although its outer iterates
    stabilized."""

    @pytest.mark.parametrize("kind", ["lasso", "alasso"])
    def test_capped_last_step_is_not_converged(self, fitted, monkeypatch, kind):
        data, nu = fitted
        real = selection_mod._l1_step

        def one_sweep(G, c, b0, lam, weights):
            return real(G, c, b0, lam, weights, sweeps=1)

        monkeypatch.setattr(selection_mod, "_l1_step", one_sweep)
        monkeypatch.setattr(selection_mod, "_signed_support_solution", lambda *args: None)
        cfg = PenaltyConfig(kind=kind, lambda_grid=np.array([0.3, 1.0]))
        est = penalized_solve(data, nu, 1.0, cfg)
        assert est.n_iter < cfg.max_iter and not est.converged
        res = gcv_select(data, nu, cfg)
        assert [row["converged"] for row in res.table] == [False, False]
        assert all(row["n_iter"] < cfg.max_iter for row in res.table)


class TestModuleLookups:
    """The solve loop looks ``pseudo_data`` and ``bar_step`` up on
    ``scrbar.selection`` at call time, so a wrapper set there sees every
    surrogate refresh and every BAR step."""

    @pytest.mark.parametrize("kind", ["bar", "lasso"])
    def test_wrappers_count_every_iteration(self, fitted, monkeypatch, kind):
        data, nu = fitted
        counts = {"pseudo_data": 0, "bar_step": 0}

        def counting(name):
            real = getattr(selection_mod, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(selection_mod, name, counting(name))
        cfg = PenaltyConfig(kind=kind, lambda_grid=np.geomspace(0.05, 5.0, 5))
        res = gcv_select(data, nu, cfg)
        assert all(row["ok"] for row in res.table)
        iters = sum(est.n_iter for est in res.path)
        assert iters > len(res.path)
        assert counts["pseudo_data"] == iters
        assert counts["bar_step"] == (iters if kind == "bar" else 0)


class TestJitter:
    """``jitter`` is the largest diagonal loading over a solve's refreshes,
    measured on the block of -H that the step factors."""

    @pytest.mark.parametrize("kind", ["bar", "lasso"])
    def test_largest_loading_over_the_refreshes(self, fitted, monkeypatch, kind):
        data, nu = fitted
        real_hessian, real_pseudo = BetaLikelihood.hessian, selection_mod.pseudo_data
        blocks, loadings = [], []

        def first_indefinite(self, beta, idx=None):
            # push the smallest eigenvalue of the first refresh's -H block to
            # -5e-8, so that it needs diagonal loading and no later one does
            H = real_hessian(self, beta, idx)
            if not blocks:
                vals, vecs = np.linalg.eigh(-H)
                H = H + (vals[0] + 5e-8) * np.outer(vecs[:, 0], vecs[:, 0])
            blocks.append(H.shape[0])
            return H

        def recording(*args, **kwargs):
            pseudo = real_pseudo(*args, **kwargs)
            loadings.append(pseudo.jitter)
            return pseudo

        monkeypatch.setattr(BetaLikelihood, "hessian", first_indefinite)
        monkeypatch.setattr(selection_mod, "pseudo_data", recording)
        cfg = PenaltyConfig(kind=kind)
        beta_init = nu.params.beta.stacked.copy()
        beta_init[[1, 5]] = 0.0
        if kind == "bar":
            est = penalized_solve(data, nu, 2.0, cfg, beta_init=beta_init)
            assert blocks[0] == data.p - 2         # the nonzero block only
        else:
            est = penalized_solve(data, nu, 2.0, cfg, beta_init=beta_init)
            assert blocks[0] == data.p
        assert est.converged and len(loadings) == est.n_iter > 2
        assert loadings[0] > 0.0 and loadings[-1] == 0.0
        assert est.jitter == max(loadings) == loadings[0]


class TestBarFixedPointProperty:
    """Acceptance criterion 4 on random designs: at lambda = 0 the BAR fixed
    point is the Newton step of the surrogate refreshed there."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(50, 90), d=st.integers(2, 4))
    def test_lambda_zero_fixed_point_is_newton_step(self, seed, n, d):
        data = small_dataset(n=n, d=d, seed=seed)
        nu = fit_unpenalized(data, FitConfig(baseline="weibull"))
        # the property holds where a finite MLE exists: a fit with a
        # coefficient on its +-30 bound is not converged (see the pinned
        # example below for a design without one)
        assume(nu.converged)
        est = penalized_solve(data, nu, 0.0, PenaltyConfig(tol=1e-12, max_iter=300))
        assert est.converged and est.support.size == data.p
        ev = BetaLikelihood(data, nu.params.nuisance)
        pd = pseudo_data(est.beta_hat, ev.gradient(est.beta_hat),
                         ev.hessian(est.beta_hat))
        newton = np.linalg.solve(pd.X.T @ pd.X, pd.X.T @ pd.W)
        np.testing.assert_allclose(est.beta_hat, newton, rtol=0, atol=1e-8)

    def test_no_finite_mle_reports_unconverged(self):
        # one transition-3 event for four covariates: the likelihood has no
        # finite maximizer, so the fit stops at its coefficient bound and the
        # lambda = 0 solve diverges; both must say so rather than pass
        data = small_dataset(n=62, d=4, seed=2548)
        assert data.arrays()["delta1"] @ data.arrays()["delta2"] == 1.0
        nu = fit_unpenalized(data, FitConfig(baseline="weibull"))
        assert not nu.converged
        est = penalized_solve(data, nu, 0.0, PenaltyConfig(tol=1e-12, max_iter=300))
        assert not est.converged
