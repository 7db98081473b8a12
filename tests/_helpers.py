"""Shared builders for the test suite."""

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from scrbar import (
    BernsteinBaselineSet,
    Dataset,
    ModelParameters,
    NuisanceParameters,
    RegressionCoefficients,
    SimulationScenario,
    WeibullBaselineSet,
    simulate_dataset,
)
from scrbar.baselines import _gauss_legendre, bernstein_basis_matrix
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


def dataset_of(records):
    """The dataset of the given ``SubjectRecord`` rows, stacked into columns."""
    cols = zip(*((r.l, r.y1, r.delta1, r.y2, r.delta2, r.z1, r.z2, r.z3) for r in records))
    return Dataset(*(np.array(c) for c in cols))


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


class TimeMajorTable:
    """The time-major Bernstein quadrature table: B as (n, 32, m+1), one row
    of 32 quadrature terms per time, reduced by scipy.special (whose
    arithmetic the package's column kernels follow bit for bit)."""

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


def reference_bernstein_evaluate(block, base):
    """``estimation._Bernstein.evaluate`` computed per transition: one
    time-major table for each transition's exposure interval and, in a
    truncated fit, for transitions 1-2 at the entry times, each over every
    record's time.  Same signature and returns, so it can stand in for the
    method."""
    core = block.core
    blocks = [base[s] for s in block.blocks]

    def table(t, j):
        return TimeMajorTable(t, block.degrees[j], block.supports[j])
    tables = [table(core.interval[j], j) for j in range(3)]
    log_t = [tab.log_cumhaz(phi) for tab, phi in zip(tables, blocks)]
    log_ratio, entry = [None, None, None], None
    if core.entry is not None:
        entry = [table(core.entry, j) for j in range(2)]
        log_ratio[:2] = [tab.log_cumhaz(phi) - lt for tab, phi, lt in zip(entry, blocks, log_t)]
    ev = [float(np.sum(block.ev_basis[j] @ phi)) for j, phi in enumerate(blocks)]

    def grad(w, ratio):
        g = []
        for j in range(3):
            d = tables[j].dlog_cumhaz(blocks[j])
            R = ratio[j]
            if R is not None:
                d = (d - R[:, None] * entry[j].dlog_cumhaz(blocks[j])) / (1.0 - R[:, None])
            g.append(block.ev_basis_sum[j] - w[:, j] @ d)
        return np.concatenate(g)
    return log_t, log_ratio, ev, grad
