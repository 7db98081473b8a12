import numpy as np
import pytest
from dataclasses import replace

from scrbar import (
    RegressionCoefficients,
    ReplicateSeedPlan,
    SimulationScenario,
    calibrate_censoring,
    derived_dims,
    gen_covariates_ar1,
    gen_covariates_grouped,
    scenario_diverging_p,
    scenario_grouped,
    simulate_dataset,
    validate_dataset,
)
from scrbar.baselines import weibull_inverse_cumhaz
from scrbar.datagen import (GROUP_LAYOUT, ScenarioError, _censoring_rate,
                            _covariates, _sampler, calibrate_truncation)
from _helpers import small_scenario


class TestDerivedDims:
    @pytest.mark.parametrize("n,d", [(100, 12), (300, 15), (500, 16)])
    def test_published_design_sizes(self, n, d):
        assert derived_dims(n) == d

    def test_monotone_and_floor(self):
        assert derived_dims(1) == 6
        assert derived_dims(64) == 12   # 6 * 2 = 12 exactly
        for n in (10, 50, 200, 1000):
            assert derived_dims(n + 1) >= derived_dims(n)


class TestAr1Covariates:
    def test_independence_at_rho_zero(self):
        rng = np.random.default_rng(0)
        Z = gen_covariates_ar1(5000, 6, 0.0, rng)
        C = np.corrcoef(Z, rowvar=False)
        off = C[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_lag_two_correlation(self):
        rng = np.random.default_rng(1)
        Z = gen_covariates_ar1(5000, 4, 0.5, rng)
        r13 = np.corrcoef(Z[:, 0], Z[:, 2])[0, 1]
        assert abs(r13 - 0.25) < 0.05

    def test_deterministic_given_seed(self):
        Z1 = gen_covariates_ar1(50, 3, 0.5, np.random.default_rng(42))
        Z2 = gen_covariates_ar1(50, 3, 0.5, np.random.default_rng(42))
        np.testing.assert_array_equal(Z1, Z2)

    def test_marginals_standard_normal(self):
        rng = np.random.default_rng(2)
        Z = gen_covariates_ar1(20000, 3, 0.5, rng)
        assert np.max(np.abs(Z.mean(axis=0))) < 0.03
        assert np.max(np.abs(Z.std(axis=0) - 1.0)) < 0.03


class TestGroupedCovariates:
    def test_uncorrelated_at_rho_zero(self):
        rng = np.random.default_rng(3)
        Z = gen_covariates_grouped(5000, 0.0, rng)
        C = np.corrcoef(Z, rowvar=False)
        assert np.max(np.abs(C[~np.eye(10, dtype=bool)])) < 0.06

    def test_gaussian_block_correlation(self):
        rng = np.random.default_rng(4)
        Z = gen_covariates_grouped(5000, 0.95, rng)
        assert abs(np.corrcoef(Z[:, 0], Z[:, 1])[0, 1] - 0.95) < 0.03

    def test_bernoulli_columns(self):
        rng = np.random.default_rng(5)
        Z = gen_covariates_grouped(5000, 0.8, rng)
        for j in (2, 3, 7, 8, 9):   # groups 2 and 4
            vals = np.unique(Z[:, j])
            assert set(vals) <= {0.0, 1.0}
            assert abs(Z[:, j].mean() - 0.5) < 0.03

    def test_bernoulli_pair_correlation_is_arcsine_adjusted(self):
        rng = np.random.default_rng(6)
        rho = 0.9
        Z = gen_covariates_grouped(20000, rho, rng)
        expected = 2.0 / np.pi * np.arcsin(rho)
        got = np.corrcoef(Z[:, 2], Z[:, 3])[0, 1]
        assert abs(got - expected) < 0.03

    def test_blocks_mutually_independent(self):
        rng = np.random.default_rng(7)
        Z = gen_covariates_grouped(8000, 0.9, rng)
        for a, b in [(0, 4), (0, 2), (4, 7), (2, 7)]:
            assert abs(np.corrcoef(Z[:, a], Z[:, b])[0, 1]) < 0.05


class TestSimulateSubject:
    def test_competing_exponentials_race_probability(self):
        # gamma -> 0, beta = 0, alpha = 1: the race between unit-rate and
        # rate-2 exponentials is won by the first with probability 1/3
        scen = SimulationScenario(
            n=1, beta=RegressionCoefficients.zeros((1, 1, 1)),
            log_alpha=(0.0, 0.0, 0.0), log_tau=(0.0, np.log(2.0), 0.0),
            gamma=1e-8, censor_upper=1e9, trunc_upper=0.0, seed=0)
        rng = np.random.default_rng(8)
        z = np.zeros(1)
        draw = _sampler(scen, rng)
        wins = sum(draw(z, z, z)[2] for _ in range(10000))
        assert abs(wins / 10000 - 1.0 / 3.0) < 0.02

    def test_immediate_censoring(self):
        scen = replace(small_scenario(n=1), censor_upper=1e-300, trunc_upper=0.0)
        rng = np.random.default_rng(9)
        z = np.zeros(len(scen.beta.beta1))
        _, y1, delta1, y2, delta2 = _sampler(scen, rng)(z, z, z)
        assert (delta1, delta2) == (0, 0)
        assert y1 == y2 <= 1e-300

    def test_truncation_rejection_keeps_l_below_y1(self):
        scen = small_scenario(n=1, trunc_upper=2.0, seed=10)
        rng = np.random.default_rng(10)
        z = np.zeros(len(scen.beta.beta1))
        draw = _sampler(scen, rng)
        for _ in range(200):
            l, y1, *_ = draw(z, z, z)
            assert l < y1

    def test_hopeless_truncation_raises(self):
        scen = replace(small_scenario(n=1), trunc_upper=1e12)
        rng = np.random.default_rng(11)
        z = np.zeros(len(scen.beta.beta1))
        with pytest.raises(ScenarioError):
            _sampler(scen, rng)(z, z, z)


class TestSimulateDataset:
    def test_single_record(self):
        data = simulate_dataset(small_scenario(n=1, seed=12))
        assert len(data) == 1
        assert validate_dataset(data) == []

    def test_deterministic_given_seed(self):
        scen = small_scenario(n=25, seed=13)
        a, b = simulate_dataset(scen), simulate_dataset(scen)
        for ra, rb in zip(a.records, b.records):
            assert (ra.l, ra.y1, ra.delta1, ra.y2, ra.delta2) == \
                   (rb.l, rb.y1, rb.delta1, rb.y2, rb.delta2)
            np.testing.assert_array_equal(ra.z1, rb.z1)

    def test_replicates_differ(self):
        scen = small_scenario(n=10, seed=14)
        plan = ReplicateSeedPlan(scen.seed)
        a = simulate_dataset(scen, rng=plan.rng(0))
        b = simulate_dataset(scen, rng=plan.rng(1))
        assert any(ra.y2 != rb.y2 for ra, rb in zip(a.records, b.records))

    def test_scenario_mix_is_nondegenerate(self):
        scen = scenario_diverging_p(2000, censor_upper=32.0, seed=15)
        data = simulate_dataset(scen)
        both = np.mean([r.delta1 * r.delta2 for r in data.records])
        assert 0.0 < both < 1.0

    def test_semi_markov_strict_ordering(self):
        data = simulate_dataset(scenario_diverging_p(500, censor_upper=32.0, seed=16))
        for r in data.records:
            if r.delta1 == 1 and r.delta2 == 1:
                assert r.y2 > r.y1

    def test_covariates_shared_across_transitions(self):
        data = simulate_dataset(small_scenario(n=5, seed=17))
        for r in data.records:
            np.testing.assert_array_equal(r.z1, r.z2)
            np.testing.assert_array_equal(r.z1, r.z3)

    def test_grouped_scenario_wiring(self):
        scen = scenario_grouped(50, rho=0.8, censor_upper=20.0, seed=18)
        data = simulate_dataset(scen)
        assert data.dims == (10, 10, 10)
        np.testing.assert_array_equal(scen.beta.beta1,
                                      [0.8, 0.8, 1, 1, 0, 0, 0, 0, 0, 0])
        assert GROUP_LAYOUT == ((0, 1), (2, 3), (4, 5, 6), (7, 8, 9))


class TestScenarioBounds:
    @pytest.mark.parametrize("field, value", [
        ("censor_upper", 0.0), ("censor_upper", -1.0), ("censor_upper", np.nan),
        ("censor_upper", np.inf), ("trunc_upper", -1.0), ("trunc_upper", np.nan),
        ("trunc_upper", np.inf)])
    def test_bad_bound_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(small_scenario(n=1), **{field: value})


def _reference_latent(scenario, z1, z2, z3, rng):
    # the per-attempt draw of earlier versions, kept as the reference
    alpha = np.exp(scenario.log_alpha)
    tau = np.exp(scenario.log_tau)
    b = scenario.beta
    w = rng.gamma(shape=1.0 / scenario.gamma, scale=scenario.gamma)
    u1, u2 = rng.uniform(size=2)
    t1 = weibull_inverse_cumhaz(-np.log1p(-u1) / (w * np.exp(b.beta1 @ z1)),
                                alpha[0], tau[0])
    t2_direct = weibull_inverse_cumhaz(-np.log1p(-u2) / (w * np.exp(b.beta2 @ z2)),
                                       alpha[1], tau[1])
    if t1 >= t2_direct:
        return np.inf, t2_direct
    u3 = rng.uniform()
    t3 = weibull_inverse_cumhaz(-np.log1p(-u3) / (w * np.exp(b.beta3 @ z3)),
                                alpha[2], tau[2])
    return t1, t1 + t3


def _reference_subject(scenario, z1, z2, z3, rng, attempts):
    for _ in range(2000):
        attempts.append(1)
        t1, t2 = _reference_latent(scenario, z1, z2, z3, rng)
        c = rng.uniform(0.0, scenario.censor_upper)
        y1 = min(t1, t2, c)
        delta1 = int(t1 <= min(t2, c))
        y2 = min(t2, c)
        delta2 = int(t2 <= c)
        if scenario.trunc_upper <= 0.0:
            return 0.0, y1, delta1, y2, delta2
        l = rng.uniform(0.0, scenario.trunc_upper)
        if l < y1:
            return l, y1, delta1, y2, delta2
    raise ScenarioError(
        f"subject acceptance below 0.05% (trunc_upper={scenario.trunc_upper})")


class TestSamplerMatchesReference:
    """The sampler makes the reference's Generator calls in the same order
    with the same arithmetic: seeded data are equal bit for bit."""

    @pytest.mark.parametrize("make, rejects", [
        (lambda s: scenario_diverging_p(200, censor_upper=5.0, seed=s), False),
        (lambda s: scenario_diverging_p(200, censor_upper=32.0, trunc_upper=0.1,
                                        seed=s), True),
        (lambda s: scenario_grouped(200, rho=0.8, censor_upper=20.0,
                                    trunc_upper=0.3, seed=s), True)],
        ids=["diverging", "diverging-truncated", "grouped-truncated"])
    def test_datasets_bitwise_equal(self, make, rejects):
        attempts = []
        for seed in range(6):
            scen = make(seed)
            data = simulate_dataset(scen)
            rng = np.random.default_rng(seed)
            Z = _covariates(scen, rng)
            rows = [_reference_subject(scen, z, z, z, rng, attempts) for z in Z]
            ref = (*np.array(rows).T, Z, Z, Z)
            for name, col in zip(("l", "y1", "delta1", "y2", "delta2", "Z1", "Z2", "Z3"),
                                 ref):
                assert getattr(data, name).tobytes() == col.tobytes(), (seed, name)
        assert (len(attempts) > 6 * 200) == rejects

    def test_subjects_with_distinct_covariates(self):
        scen = small_scenario(n=1, d=4, seed=31, trunc_upper=4.0)
        z_rng = np.random.default_rng(31)
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            attempts = []
            draw = _sampler(scen, rng)
            for _ in range(50):
                z1, z2, z3 = z_rng.normal(size=(3, 4))
                got = np.array(draw(z1, z2, z3))
                want = np.array(_reference_subject(scen, z1, z2, z3, ref_rng, attempts))
                assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert len(attempts) > 50

    def test_scenario_error_after_the_same_draws(self):
        scen = replace(small_scenario(n=1), trunc_upper=1e12)
        z = np.full(len(scen.beta.beta1), 0.3)
        rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)
        with pytest.raises(ScenarioError) as got:
            _sampler(scen, rng)(z, z, z)
        with pytest.raises(ScenarioError) as want:
            _reference_subject(scen, z, z, z, ref_rng, [])
        assert str(got.value) == str(want.value)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCensoringCalibration:
    def test_target_rate_reproduced(self):
        scen = scenario_diverging_p(300, censor_upper=1.0, seed=19)
        rng = np.random.default_rng(19)
        c = calibrate_censoring(scen, 0.5, rng)
        data = simulate_dataset(replace(scen, n=5000, censor_upper=c),
                                rng=np.random.default_rng(99))
        rate = 1.0 - np.mean([r.delta2 for r in data.records])
        assert 0.47 <= rate <= 0.53

    def test_monotone_in_scale(self):
        scen = scenario_diverging_p(300, censor_upper=1.0, seed=20)
        rates = []
        for c in (5.0, 20.0, 80.0):
            data = simulate_dataset(replace(scen, n=4000, censor_upper=c),
                                    rng=np.random.default_rng(7))
            rates.append(1.0 - np.mean([r.delta2 for r in data.records]))
        assert rates[0] > rates[1] > rates[2]

    def test_untruncated_probe_monotone_in_bound(self):
        # without truncation nothing is rejected, so every candidate bound
        # draws the same subjects from the probe seed and rescales one
        # censoring uniform per subject: the rate cannot go up with the bound
        scen = scenario_diverging_p(300, censor_upper=1.0, seed=24)
        bounds = np.geomspace(0.5, 500.0, 25)
        rates = [_censoring_rate(scen, c, 24, 1000) for c in bounds]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > rates[-1]

    def test_degenerate_target_rejected(self):
        scen = scenario_diverging_p(100, censor_upper=1.0, seed=21)
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError):
            calibrate_censoring(scen, 0.0, rng)

    def test_truncation_default_is_fifth_of_median(self):
        scen = scenario_diverging_p(200, censor_upper=32.0, seed=22)
        rng = np.random.default_rng(22)
        lmax = calibrate_truncation(scen, rng, fraction=0.2)
        data = simulate_dataset(replace(scen, n=5000),
                                rng=np.random.default_rng(22))
        med = np.median([r.y1 for r in data.records])
        assert lmax == pytest.approx(0.2 * med, rel=0.15)


class TestSeedPlan:
    def test_children_distinct_and_stable(self):
        plan = ReplicateSeedPlan(123)
        s0 = plan.child_seed(0).generate_state(4)
        s1 = plan.child_seed(1).generate_state(4)
        assert not np.array_equal(s0, s1)
        np.testing.assert_array_equal(s0, ReplicateSeedPlan(123).child_seed(0).generate_state(4))


class TestLatentMarginalLaw:
    def test_dkw_band_on_latent_nonterminal_law(self):
        # frailty off, beta = 0: the latent non-terminal time has survivor
        # exp(-tau t^alpha); check the empirical survivor at deciles
        n = 10000
        scen = SimulationScenario(
            n=n, beta=RegressionCoefficients.zeros((1, 1, 1)),
            log_alpha=(0.18, 0.2, 1.7), log_tau=(-4.0, -12.0, -11.0),
            gamma=1e-8, censor_upper=1e12, trunc_upper=0.0, seed=23)
        # log_tau2 = -12 makes direct death rare so y1 is nearly always T1
        data = simulate_dataset(scen)
        t1 = np.array([r.y1 for r in data.records if r.delta1 == 1])
        assert t1.size > 0.97 * n
        alpha, tau = np.exp(0.18), np.exp(-4.0)
        eps = np.sqrt(np.log(2.0 / 0.05) / (2 * t1.size))
        qs = np.quantile(t1, np.linspace(0.1, 0.9, 9))
        for q in qs:
            emp = np.mean(t1 > q)
            true = np.exp(-tau * q**alpha)
            assert abs(emp - true) < eps + 0.03   # DKW band + selection slack
