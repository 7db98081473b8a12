"""Shared builders for the test suite."""

import numpy as np
import pytest
import scipy.integrate

from scrbar import (
    BernsteinBaselineSet,
    ModelParameters,
    NuisanceParameters,
    RegressionCoefficients,
    SimulationScenario,
    WeibullBaselineSet,
    simulate_dataset,
)
from scrbar.estimation import bernstein_supports

# a one-valued parameter, so that a test's id names the left-truncation
# convention it checks: the calendar adjustment, the only one
CALENDAR = pytest.mark.parametrize("truncation", ["calendar"])


def small_scenario(n=20, d=3, seed=0, gamma=0.25, censor_upper=25.0,
                   trunc_upper=0.4, rho=0.5):
    """Tiny valid scenario with d covariates per transition."""
    rng = np.random.default_rng(seed)
    beta = RegressionCoefficients(*(rng.normal(0.0, 0.4, d) for _ in range(3)))
    return SimulationScenario(n=n, beta=beta, gamma=gamma, rho=rho,
                              censor_upper=censor_upper,
                              trunc_upper=trunc_upper, seed=seed)


def small_dataset(n=20, d=3, seed=0, **kw):
    return simulate_dataset(small_scenario(n=n, d=d, seed=seed, **kw))


def random_params(data, rng, baseline="weibull", gamma=None, degrees=(2, 2, 3)):
    """Random valid parameter bundle for a dataset."""
    beta = RegressionCoefficients(*(rng.normal(0.0, 0.3, d) for d in data.dims))
    g = float(np.exp(rng.uniform(-2.0, 0.5))) if gamma is None else gamma
    if baseline == "weibull":
        spec = WeibullBaselineSet(log_alpha=rng.normal(0.0, 0.3, 3),
                                  log_tau=rng.normal(-1.0, 0.7, 3))
    else:
        spec = BernsteinBaselineSet(
            degrees, [rng.normal(-1.0, 0.5, m + 1) for m in degrees],
            bernstein_supports(data))
    return ModelParameters(beta=beta, nuisance=NuisanceParameters(g, spec))


def adaptive_cumhaz(t, spec, j):
    """Cumulative hazard of transition j at each time in t by adaptive
    integration of exp(log hazard), independent of the package's rule."""
    return np.array([
        scipy.integrate.quad(lambda s: np.exp(spec.log_hazard(np.array([s]), j)[0]),
                             0.0, ti, epsabs=0.0, epsrel=1e-13)[0]
        for ti in t])


def unit_weibull(gamma=1.0):
    """Unit-hazard nuisance: alpha = tau = 1 so Lambda(t) = t everywhere."""
    return NuisanceParameters(
        gamma=gamma,
        baseline=WeibullBaselineSet(log_alpha=np.zeros(3), log_tau=np.zeros(3)))
