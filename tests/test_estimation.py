import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scrbar import (
    Dataset,
    FitConfig,
    FitResult,
    PenaltyConfig,
    RegressionCoefficients,
    bic_degree_select,
    fit_unpenalized,
    gcv_select,
    log_likelihood,
    scenario_diverging_p,
    simulate_dataset,
)
from scrbar import _compiled
from scrbar.estimation import _GTOL, _Bernstein, _Objective, bernstein_supports
from _helpers import CALENDAR, reference_bernstein_evaluate, small_dataset, small_scenario


@pytest.fixture(scope="module")
def paper_truth_data():
    """Weibull-truth data at n=500 with ~50% censoring."""
    scen = scenario_diverging_p(500, censor_upper=32.0, trunc_upper=0.0, seed=0)
    return scen, simulate_dataset(scen, rng=np.random.default_rng(9102))


class TestFullGradient:
    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @CALENDAR
    def test_matches_finite_differences(self, baseline, truncation):
        data = small_dataset(n=30, seed=51, trunc_upper=1.0)
        cfg = FitConfig(baseline=baseline, degrees=(2, 2, 3))
        obj = _Objective(data, cfg)
        rng = np.random.default_rng(3)
        theta = obj.initial_point() + rng.normal(0, 0.2, obj.n_params)
        _, g = obj.value_and_grad(theta)
        h = 1e-6
        for j in range(obj.n_params):
            e = np.zeros(obj.n_params)
            e[j] = h
            fd = (obj.value_and_grad(theta + e)[0]
                  - obj.value_and_grad(theta - e)[0]) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=2e-5, abs=1e-7)


_PACKING_DATA = small_dataset(n=40, d=3, seed=57, trunc_upper=1.0)


class TestPacking:
    """Each baseline block packs theta and unpacks it into the fitted
    parameters consistently, away from the optimum too."""

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @CALENDAR
    @settings(max_examples=20, deadline=None)
    @given(draw=st.data())
    def test_objective_is_loglik_of_built_params(self, baseline, truncation, draw):
        cfg = FitConfig(baseline=baseline)
        obj = _Objective(_PACKING_DATA, cfg)
        x0 = obj.initial_point()
        bounds = obj.bounds()
        assert len(bounds) == obj.n_params
        assert all(lo <= x <= hi for x, (lo, hi) in zip(x0, bounds))
        theta = x0 + draw.draw(arrays(float, obj.n_params, elements=st.floats(-0.5, 0.5)))
        ll = log_likelihood(obj.build_params(theta), _PACKING_DATA)
        assert -obj.value_and_grad(theta)[0] == pytest.approx(ll, rel=1e-10)


@pytest.mark.parametrize("degrees", [(2.5, 2, 3), (True, 2, 3), (2, 2.0, 3), (2, 2, "3")])
def test_non_integer_degrees_refused_at_construction(degrees):
    # (2.5, 2, 3) used to fail later with an unrelated TypeError, and
    # (True, 2, 3) to fit degree 1
    with pytest.raises(ValueError, match="degrees must be integers"):
        FitConfig(baseline="bernstein", degrees=degrees)


def test_degrees_are_stored_as_a_tuple_of_ints():
    cfg = FitConfig(baseline="bernstein", degrees=[np.int64(2), 1, np.int32(3)])
    assert cfg.degrees == (2, 1, 3)
    assert all(type(m) is int for m in cfg.degrees)


def test_truncation_is_not_a_fit_setting():
    # the calendar adjustment is the one convention; the class attribute
    # only reports it
    assert FitConfig.truncation == FitConfig().truncation == "calendar"
    with pytest.raises(TypeError):
        FitConfig(truncation="calendar")


def test_quadrature_is_not_a_fit_setting():
    # Bernstein cumulative hazards have one 32-point rule; the class
    # attribute is None, and a fit records no config
    assert FitConfig.quadrature is FitConfig().quadrature is None
    with pytest.raises(TypeError):
        FitConfig(quadrature=None)
    assert "config" not in {f.name for f in fields(FitResult)}


class TestFitUnpenalized:
    def test_ascent_over_initial_point(self):
        data = small_dataset(n=80, d=4, seed=52)
        cfg = FitConfig(baseline="weibull")
        obj = _Objective(data, cfg)
        f0, _ = obj.value_and_grad(obj.initial_point())
        fr = fit_unpenalized(data, cfg)
        assert fr.loglik >= -f0

    def test_converged_flag_reflects_gradient(self):
        data = small_dataset(n=100, d=3, seed=53)
        fr = fit_unpenalized(data, FitConfig(baseline="weibull"))
        assert fr.converged
        assert fr.grad_norm < _GTOL

    def test_coefficient_on_its_bound_is_not_converged(self):
        # two transition-3 events for four covariates: no finite maximizer,
        # so the fit stops with coefficients on the +-30 box while its
        # projected gradient, which drops components pushing against a
        # bound, is small
        data = small_dataset(n=71, d=4, seed=77)
        fr = fit_unpenalized(data, FitConfig(baseline="weibull"))
        assert np.max(np.abs(fr.params.beta.stacked)) >= 30.0 - 1e-12
        assert fr.grad_norm < _GTOL
        assert not fr.converged

    @pytest.mark.parametrize("baseline, data", [
        ("weibull", dict(n=60, d=3, seed=54)),
        ("bernstein", dict(n=60, d=3, seed=54)),
        ("weibull", dict(n=80, d=2, seed=57, trunc_upper=0.4)),
        ("bernstein", dict(n=80, d=2, seed=57, trunc_upper=0.4)),
        # no finite maximizer: coefficients on the box, where the projection acts
        ("weibull", dict(n=71, d=4, seed=77)),
    ])
    def test_grad_norm_is_the_projected_gradient_at_the_fit(self, monkeypatch,
                                                             baseline, data):
        # the fit reads the gradient the optimizer returns with its answer;
        # it must be the objective's own at that answer, bit for bit
        real, results = _compiled.lbfgsb, []

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(_compiled, "lbfgsb", recording)
        data = small_dataset(**data)
        cfg = FitConfig(baseline=baseline)
        fr = fit_unpenalized(data, cfg)
        (res,) = results
        obj = _Objective(data, cfg)
        value, grad = obj.value_and_grad(res.x)
        lo, hi = np.array(obj.bounds()).T
        pushing = ((res.x <= lo + 1e-12) & (grad > 0.0)) | ((res.x >= hi - 1e-12) & (grad < 0.0))
        assert fr.grad_norm == float(np.max(np.abs(np.where(pushing, 0.0, grad))))
        assert fr.loglik == -value

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    def test_loglik_at_the_returned_point_after_an_abnormal_line_search(
            self, monkeypatch, baseline):
        # one step per line search ends the fit with status 2, where
        # L-BFGS-B's res.fun is the last trial value, not the objective at res.x
        real, results = _compiled.lbfgsb, []

        def one_step(*args, **kwargs):
            results.append(real(*args, **dict(kwargs, maxls=1)))
            return results[-1]

        monkeypatch.setattr(_compiled, "lbfgsb", one_step)
        data = small_dataset(n=60, d=3, seed=54)
        fr = fit_unpenalized(data, FitConfig(baseline=baseline))
        assert [res.status for res in results] == [2]
        assert fr.loglik == pytest.approx(log_likelihood(fr.params, data), rel=1e-12)

    @pytest.mark.parametrize("baseline", ["weibull", "bernstein"])
    @CALENDAR
    def test_loglik_field_consistent(self, baseline, truncation):
        # the fit's objective and log_likelihood share one closed form but
        # reach the baseline through different code (packed parameters and
        # frozen tables vs. the fitted parameter bundle)
        data = small_dataset(n=60, d=3, seed=54)
        fr = fit_unpenalized(data, FitConfig(baseline=baseline))
        ll = log_likelihood(fr.params, data)
        assert ll == pytest.approx(fr.loglik, rel=1e-10)

    def test_null_signal_estimates_stay_small(self):
        # bounds calibrated on replicate runs: per-replicate max |beta_hat|
        # has median ~0.39 and never exceeded 0.52; medians sit near 0.10
        scen = scenario_diverging_p(500, censor_upper=36.0, trunc_upper=0.0, seed=7)
        zero = RegressionCoefficients.zeros(scen.beta.dims)
        data = simulate_dataset(replace(scen, beta=zero), rng=np.random.default_rng(4103))
        fr = fit_unpenalized(data, FitConfig(baseline="weibull"))
        b = np.abs(fr.params.beta.stacked)
        assert b.max() < 0.55
        assert np.median(b) < 0.15

    @pytest.mark.xfail(reason="frailty variance is weakly identified at 50% "
                              "censoring: the +-0.5 log window holds on only "
                              "~40% of seeds (measured over 10 replicates)",
                       strict=False)
    def test_frailty_variance_recovery(self, paper_truth_data):
        _, data = paper_truth_data
        fr = fit_unpenalized(data, FitConfig(baseline="weibull"))
        assert abs(np.log(fr.params.nuisance.gamma) - np.log(0.25)) < 0.5

    def test_frailty_variance_typical_value(self):
        # companion pin: the median gamma_hat lands near the generating 0.25,
        # with a mild downward pull (measured spread over 10 replicates)
        scen = scenario_diverging_p(500, censor_upper=32.0, trunc_upper=0.0, seed=0)
        lgs = []
        for seed in (9100, 9101, 9102, 9103, 9104):
            data = simulate_dataset(scen, rng=np.random.default_rng(seed))
            fr = fit_unpenalized(data, FitConfig(baseline="weibull"))
            lgs.append(np.log(fr.params.nuisance.gamma))
        assert -2.5 < np.median(lgs) < -0.9

    def test_refit_from_optimum_stops_immediately(self, monkeypatch):
        data = small_dataset(n=100, d=3, seed=55)
        cfg = FitConfig(baseline="weibull")
        fr = fit_unpenalized(data, cfg)
        obj = _Objective(data, cfg)
        theta = np.concatenate([
            fr.params.beta.stacked,
            [np.log(fr.params.nuisance.gamma)],
            np.column_stack([fr.params.nuisance.baseline.log_alpha,
                             fr.params.nuisance.baseline.log_tau]).ravel()])
        monkeypatch.setattr(_Objective, "initial_point", lambda self: theta)
        fr2 = fit_unpenalized(data, cfg)
        assert fr2.n_iter <= 2
        assert fr2.loglik == pytest.approx(fr.loglik, abs=1e-6)

    def test_sample_size_precondition(self):
        data = small_dataset(n=12, d=3, seed=56)
        with pytest.raises(ValueError, match="parameter count"):
            fit_unpenalized(data, FitConfig(baseline="weibull"))

    def test_truncated_data_calendar_adjustment_recovers_shape(self):
        scen = scenario_diverging_p(500, censor_upper=32.0, trunc_upper=1.0, seed=0)
        data = simulate_dataset(scen, rng=np.random.default_rng(9000))
        fr = fit_unpenalized(data, FitConfig(baseline="weibull"))
        assert fr.converged
        la = fr.params.nuisance.baseline.log_alpha
        np.testing.assert_allclose(la, [0.18, 0.2, 1.7], atol=0.6)

    def test_weibull_soft_nesting_sanity(self):
        # on Weibull-truth data the sieve's likelihood gain is overfitting
        # noise, bounded by half the sieve-coefficient count in most samples
        wins = 0
        n_seeds = 30
        n_sieve_coeffs = 3 + 3 + 4
        for seed in range(n_seeds):
            data = small_dataset(n=150, d=4, seed=700 + seed, censor_upper=20.0)
            llw = fit_unpenalized(data, FitConfig(baseline="weibull")).loglik
            llb = fit_unpenalized(
                data, FitConfig(baseline="bernstein", degrees=(2, 2, 3))).loglik
            wins += int(llw >= llb - 0.5 * n_sieve_coeffs)
        assert wins >= 0.8 * n_seeds


class TestBernsteinSupports:
    @pytest.mark.parametrize("window", ["first"])
    def test_supports_cover_all_evaluation_times(self, window):
        data = small_dataset(n=50, seed=57, trunc_upper=1.5)
        sup = bernstein_supports(data)
        arr = data.arrays()
        t12 = arr["y1"] - arr["l"]
        assert sup[0][1] >= max(t12.max(), arr["y1"][arr["delta1"] == 1].max())
        assert sup[1][1] >= max(
            t12.max(),
            arr["y2"][(arr["delta1"] == 0) & (arr["delta2"] == 1)].max())
        assert sup[2][1] >= (arr["y2"] - arr["y1"])[arr["delta1"] == 1].max()
        assert all(c == 0.0 for c, _ in sup)


class TestBicDegreeSelect:
    def test_single_candidate(self):
        data = small_dataset(n=60, d=3, seed=58)
        best, table = bic_degree_select(data, [(2, 2, 2)])
        assert best == (2, 2, 2)
        assert len(table) == 1 and np.isfinite(table[0]["bic"])

    def test_penalty_term_uses_sample_size_and_dimension(self):
        data = small_dataset(n=60, d=3, seed=58)
        _, table = bic_degree_select(data, [(2, 2, 3)])
        row = table[0]
        expected = -2.0 * row["loglik"] + np.log(60) * ((9 + 1) + (3 + 3 + 4))
        assert row["bic"] == pytest.approx(expected)

    def test_tie_breaks_toward_smaller_total_degree(self, monkeypatch):
        import scrbar.estimation as est

        def fake_fit(data, cfg):
            class R:
                loglik = -100.0
                converged = True
            return R()

        monkeypatch.setattr(est, "fit_unpenalized", fake_fit)
        data = small_dataset(n=40, d=3, seed=59)
        # equal loglik: BIC is monotone in total degree, smaller wins;
        # listed large-first to rule out order effects
        best, _ = bic_degree_select(data, [(4, 4, 4), (2, 2, 2)])
        assert best == (2, 2, 2)

    @pytest.mark.parametrize("bad", [(2.5, 2, 3), (True, 1, 1), (2, 2), (2, -1, 3)],
                             ids=["float", "bool", "two-degrees", "negative"])
    def test_malformed_candidate_refused_before_any_fit(self, monkeypatch, bad):
        # a non-integer degree used to be truncated, (2.5, 2, 3) fitted as
        # (2, 2, 3), and a malformed one logged as a failed fit
        import scrbar.estimation as est
        fits = []

        def fake_fit(data, cfg):
            fits.append(cfg.degrees)

            class R:
                loglik = -100.0
                converged = True
            return R()

        monkeypatch.setattr(est, "fit_unpenalized", fake_fit)
        data = small_dataset(n=40, d=3, seed=59)
        with pytest.raises(ValueError, match="Bernstein degrees"):
            bic_degree_select(data, [(2, 2, 2), bad])
        assert fits == []

    def test_failed_candidates_excluded(self, monkeypatch):
        import scrbar.estimation as est
        real = est.fit_unpenalized

        def flaky(data, cfg):
            if sum(cfg.degrees) > 8:
                raise np.linalg.LinAlgError("boom")
            return real(data, cfg)

        monkeypatch.setattr(est, "fit_unpenalized", flaky)
        data = small_dataset(n=60, d=3, seed=60)
        best, table = bic_degree_select(data, [(2, 2, 2), (5, 5, 5)])
        assert best == (2, 2, 2)
        assert table[1]["error"]

    def test_all_failed_raises(self, monkeypatch):
        import scrbar.estimation as est
        monkeypatch.setattr(est, "fit_unpenalized",
                            lambda *a, **k: (_ for _ in ()).throw(ValueError("no")))
        data = small_dataset(n=40, d=3, seed=61)
        with pytest.raises(RuntimeError, match="every candidate"):
            bic_degree_select(data, [(2, 2, 2)])

    def test_degree_choice_is_not_critical_for_selection(self):
        # two very different degree sets should select near-identical supports
        scen = small_scenario(n=200, d=5, seed=62, censor_upper=25.0)
        b = np.array([1.0, 0.9, 0.0, 0.0, 0.0])
        scen = replace(scen, beta=RegressionCoefficients(b, b, b))
        data = simulate_dataset(scen)
        supports = []
        for degs in [(2, 2, 3), (6, 6, 6)]:
            nu = fit_unpenalized(data, FitConfig(baseline="bernstein", degrees=degs))
            res = gcv_select(data, nu, PenaltyConfig(kind="bar"))
            supports.append(set(res.best.support.tolist()))
        overlap = len(supports[0] & supports[1])
        assert overlap >= max(len(supports[0]), len(supports[1])) - 2


def _variant(data, sojourns=None, untruncated_every=None):
    """``data`` keeping only its first ``sojourns`` observed non-terminal
    events (the others become terminal events or censoring at y1), or with
    every ``untruncated_every``-th entry time set to 0."""
    l, d1, y2 = data.l.copy(), data.delta1.copy(), data.y2.copy()
    if sojourns is not None:
        drop = np.flatnonzero(d1 == 1.0)[sojourns:]
        d1[drop], y2[drop] = 0.0, data.y1[drop]
    if untruncated_every is not None:
        l[::untruncated_every] = 0.0
    return Dataset(l, data.y1, d1, y2, data.delta2, data.Z1, data.Z2, data.Z3)


class TestStackedBernsteinObjective:
    """The fit's stacked, distinct-time Bernstein evaluation against the
    per-transition one over every record's time, bit for bit."""

    @pytest.mark.parametrize("case", ["untruncated", "truncated", "one sojourn", "no sojourn"])
    def test_value_and_grad_match_the_per_transition_evaluation(self, monkeypatch, case):
        data = small_dataset(n=120, d=3, seed=5, trunc_upper=0.0 if case == "untruncated" else 0.4)
        data = {"untruncated": data, "truncated": _variant(data, untruncated_every=3),
                "one sojourn": _variant(data, sojourns=1),
                "no sojourn": _variant(data, sojourns=0)}[case]
        obj = _Objective(data, FitConfig(baseline="bernstein", degrees=(2, 0, 3)))
        assert (obj.core.entry is None) == (case == "untruncated")
        if case == "truncated":
            assert (obj.core.entry == 0.0).any() and (obj.core.entry > 0.0).any()
        if case.endswith("sojourn"):
            assert (obj.core.sojourn > 0.0).sum() == (case == "one sojourn")
        rng = np.random.default_rng(11)
        thetas = [obj.initial_point()] + [obj.initial_point() + rng.normal(0.0, 0.3, obj.n_params)
                                          for _ in range(3)]
        got = [obj.value_and_grad(theta) for theta in thetas]
        monkeypatch.setattr(obj.base, "evaluate",
                            lambda base: reference_bernstein_evaluate(obj.base, base))
        for theta, (value, grad) in zip(thetas, got):
            want_value, want_grad = obj.value_and_grad(theta)
            assert value == want_value and np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("seed, trunc_upper", [(6, 0.0), (7, 0.4)])
    def test_fit_matches_the_per_transition_evaluation(self, monkeypatch, seed, trunc_upper):
        data = small_dataset(n=150, d=3, seed=seed, trunc_upper=trunc_upper)
        cfg = FitConfig(baseline="bernstein")
        got = fit_unpenalized(data, cfg)
        monkeypatch.setattr(_Bernstein, "evaluate", reference_bernstein_evaluate)
        want = fit_unpenalized(data, cfg)
        assert got.n_iter == want.n_iter and got.loglik == want.loglik
        assert got.params.beta.stacked.tobytes() == want.params.beta.stacked.tobytes()
        assert got.params.nuisance.gamma == want.params.nuisance.gamma
        for a, b in zip(got.params.nuisance.baseline.coeffs, want.params.nuisance.baseline.coeffs):
            assert a.tobytes() == b.tobytes()
