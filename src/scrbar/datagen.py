"""Simulation of semi-competing risks data.

Subjects are generated by the frailty-conditional construction: given a
gamma frailty draw, latent non-terminal and direct-terminal times come
from inverse-probability sampling of the Weibull cumulative hazards, the
two are raced, and winners of the non-terminal race get a sojourn time
added to form the terminal time (semi-Markov clock reset).  Censoring and
left truncation are independent uniforms; prevalent subjects (truncation
at or after the first observed time) are rejected and redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import Dataset, RegressionCoefficients

__all__ = [
    "SimulationScenario",
    "ReplicateSeedPlan",
    "ScenarioError",
    "derived_dims",
    "scenario_diverging_p",
    "scenario_grouped",
    "GROUP_LAYOUT",
    "gen_covariates_ar1",
    "gen_covariates_grouped",
    "simulate_dataset",
    "calibrate_censoring",
    "calibrate_truncation",
]

# Weibull truth and frailty variance used throughout the simulation studies
TRUE_LOG_ALPHA = (0.18, 0.2, 1.7)
TRUE_LOG_TAU = (-4.0, -4.0, -11.0)
TRUE_GAMMA = 0.25

# grouped design: columns (0-based) of the four blocks; groups 1-2 carry
# the nonzero coefficients, Bernoulli columns are groups 2 and 4
GROUP_LAYOUT = ((0, 1), (2, 3), (4, 5, 6), (7, 8, 9))
_BERNOULLI_GROUPS = (1, 3)

_MAX_DRAWS_PER_SUBJECT = 2000

# censoring calibration: probe size, rate tolerance, step cap per search
_CALIBRATION_PROBE_N = 5000
_CALIBRATION_TOL = 0.01
_CALIBRATION_MAX_ITER = 60


class ScenarioError(RuntimeError):
    """Scenario settings make generation impossible (e.g. truncation so
    aggressive that subject acceptance collapses)."""


@dataclass(frozen=True)
class SimulationScenario:
    """Everything that determines a simulated dataset, including the seed."""

    n: int
    beta: RegressionCoefficients
    log_alpha: tuple = TRUE_LOG_ALPHA
    log_tau: tuple = TRUE_LOG_TAU
    gamma: float = TRUE_GAMMA
    design: str = "ar1"                 # "ar1" | "grouped"
    rho: float = 0.5
    censor_upper: float = 10.0          # C ~ Uniform(0, censor_upper)
    trunc_upper: float = 0.0            # L ~ Uniform(0, trunc_upper); 0 disables
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.gamma <= 0:
            raise ValueError("frailty variance must be positive")
        if self.design not in ("ar1", "grouped"):
            raise ValueError(f"unknown covariate design {self.design!r}")
        if not 0.0 < self.censor_upper < np.inf:
            raise ValueError("censor_upper must be finite and positive")
        if not 0.0 <= self.trunc_upper < np.inf:
            raise ValueError("trunc_upper must be finite and non-negative")


@dataclass(frozen=True)
class ReplicateSeedPlan:
    """Deterministic replicate-index -> child-seed mapping via the
    splittable counter-based SeedSequence scheme; replicates can be drawn
    in any order or in parallel."""

    master_seed: int

    def child_seed(self, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=(index,))

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(self.child_seed(index))


def derived_dims(n: int) -> int:
    """Per-transition covariate count floor(6 n^(1/6)) of the diverging-p
    design (12 at n=100, 15 at n=300, 16 at n=500)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return int(np.floor(6.0 * float(n) ** (1.0 / 6.0) + 1e-9))


def _diverging_beta(d: int) -> RegressionCoefficients:
    pad = np.zeros(d - 4)
    return RegressionCoefficients(
        beta1=np.concatenate([[-0.8, 1.0, 1.0, 0.9], pad]),
        beta2=np.concatenate([[1.0, 1.0, 1.0, 0.9], pad]),
        beta3=np.concatenate([[-1.0, 1.0, 0.9, 1.0], pad]))


def scenario_diverging_p(n: int, censor_upper: float, trunc_upper: float = 0.0,
                         rho: float = 0.5, seed: int = 0) -> SimulationScenario:
    """Diverging-dimension design: d_k = floor(6 n^(1/6)) AR(1)-correlated
    standard normal covariates shared across transitions, four nonzero
    coefficients per transition."""
    return SimulationScenario(
        n=n, beta=_diverging_beta(derived_dims(n)), design="ar1", rho=rho,
        censor_upper=censor_upper, trunc_upper=trunc_upper, seed=seed)


def scenario_grouped(n: int, rho: float, censor_upper: float,
                     trunc_upper: float = 0.0, seed: int = 0) -> SimulationScenario:
    """Grouped design: 10 covariates in four highly correlated blocks,
    coefficients (0.8, 0.8, 1, 1, 0, ..., 0) in every transition."""
    b = np.array([0.8, 0.8, 1.0, 1.0, 0, 0, 0, 0, 0, 0])
    beta = RegressionCoefficients(b, b, b)
    return SimulationScenario(
        n=n, beta=beta, design="grouped", rho=rho,
        censor_upper=censor_upper, trunc_upper=trunc_upper, seed=seed)


def gen_covariates_ar1(n: int, d: int, rho: float,
                       rng: np.random.Generator) -> np.ndarray:
    """n rows of mean-zero Gaussians with corr(Z_j, Z_j') = rho^|j-j'|."""
    cov = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, d)) @ chol.T


def _equicorr_normal(n, size, rho, rng):
    cov = np.full((size, size), rho) + (1.0 - rho) * np.eye(size)
    return rng.standard_normal((n, size)) @ np.linalg.cholesky(cov).T


def gen_covariates_grouped(n: int, rho: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Four mutually independent blocks with within-block correlation rho.

    Gaussian blocks keep rho exactly; Bernoulli(0.5) blocks are built by
    thresholding correlated Gaussians at zero, which realizes pair
    correlation (2/pi) arcsin(rho) rather than rho itself.
    """
    Z = np.empty((n, 10))
    for g, cols in enumerate(GROUP_LAYOUT):
        block = _equicorr_normal(n, len(cols), rho, rng)
        if g in _BERNOULLI_GROUPS:
            block = (block > 0.0).astype(float)
        Z[:, list(cols)] = block
    return Z


def _inverse_cumhaz(x, tau, inv_alpha):
    """``weibull_inverse_cumhaz(x, alpha, tau)`` on numpy float64 scalars,
    with inv_alpha = 1/alpha.  There ``x / tau`` is a numpy scalar too, so
    both take numpy's scalar power.  numpy's power on arrays, and
    ``math.exp``/``math.log1p`` against numpy's, round some inputs
    differently: using them in the draw would change the simulated data."""
    if x < 0:
        raise ValueError("negative argument in weibull_inverse_cumhaz")
    return float((x / tau) ** inv_alpha)


def _sampler(scenario, rng):
    """The subject draw of ``scenario`` on ``rng``: a function of (z1, z2, z3)
    returning (l, y1, delta1, y2, delta2) of one accepted subject.  An
    attempt that is not observable (l >= y1) is redrawn with the covariates
    fixed; with truncation off (trunc_upper = 0) the entry time is 0 and no
    attempt is rejected.

    Each attempt draws, in this order: the gamma frailty, two uniforms for
    the race of the non-terminal and direct-terminal times, a third uniform
    for the sojourn of a non-terminal winner, the censoring time, and the
    entry time when truncation is on.  The scenario constants are computed
    once per call and the three relative risks once per subject; the draws
    and their arithmetic are those of earlier versions, so seeded data
    reproduce bit for bit.
    """
    alpha = np.exp(scenario.log_alpha)
    (tau1, tau2, tau3), (ia1, ia2, ia3) = np.exp(scenario.log_tau), 1.0 / alpha
    shape, scale = 1.0 / scenario.gamma, scenario.gamma
    b1, b2, b3 = scenario.beta.beta1, scenario.beta.beta2, scenario.beta.beta3
    c_hi, l_hi = float(scenario.censor_upper), float(scenario.trunc_upper)
    frailty, uniform, log1p, exp = rng.gamma, rng.random, np.log1p, np.exp

    def draw(z1, z2, z3):
        # one 1-d dot product per row, as before: Z @ beta rounds some rows
        # differently
        r1, r2, r3 = exp(b1.dot(z1)), exp(b2.dot(z2)), exp(b3.dot(z3))
        for _ in range(_MAX_DRAWS_PER_SUBJECT):
            w = frailty(shape, scale)
            t1 = _inverse_cumhaz(-log1p(-uniform()) / (w * r1), tau1, ia1)
            t2 = _inverse_cumhaz(-log1p(-uniform()) / (w * r2), tau2, ia2)
            if t1 >= t2:
                t1 = np.inf
            else:
                t2 = t1 + _inverse_cumhaz(-log1p(-uniform()) / (w * r3), tau3, ia3)
            # Generator.uniform(low, high) returns low + (high - low) * U for
            # U = Generator.random(); the same arithmetic on the same U
            c = 0.0 + c_hi * uniform()
            y1 = min(t1, t2, c)
            delta1 = int(t1 <= min(t2, c))
            y2 = min(t2, c)
            delta2 = int(t2 <= c)
            if l_hi == 0.0:
                return 0.0, y1, delta1, y2, delta2
            l = 0.0 + l_hi * uniform()
            if l < y1:
                return l, y1, delta1, y2, delta2
        raise ScenarioError(
            f"subject acceptance below {100.0 / _MAX_DRAWS_PER_SUBJECT:.2f}% "
            f"(trunc_upper={scenario.trunc_upper})")

    return draw


def _covariates(scenario, rng):
    if scenario.design == "grouped":
        return gen_covariates_grouped(scenario.n, scenario.rho, rng)
    d = len(scenario.beta.beta1)
    return gen_covariates_ar1(scenario.n, d, scenario.rho, rng)


def simulate_dataset(scenario: SimulationScenario,
                     rng: np.random.Generator = None) -> Dataset:
    """n accepted subjects; one covariate matrix shared by all three
    transitions.  Passing an explicit generator overrides the scenario seed
    (used by the replication harness)."""
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    Z = _covariates(scenario, rng)
    draw = _sampler(scenario, rng)
    rows = [draw(z, z, z) for z in Z]
    return Dataset(*np.array(rows).T, Z, Z, Z)


def _censoring_rate(scenario, censor_upper, seed, n_probe):
    probe = replace(scenario, n=n_probe, censor_upper=float(censor_upper), seed=seed)
    data = simulate_dataset(probe, rng=np.random.default_rng(seed))
    return 1.0 - np.mean(data.delta2)


def calibrate_censoring(scenario: SimulationScenario, target: float,
                        rng: np.random.Generator) -> float:
    """Censoring-law upper bound reproducing the target delta2-censoring rate.

    Bisects on the Uniform(0, c) scale against a Monte Carlo probe with
    common random numbers: one probe seed is reused for every candidate c.
    Without truncation (trunc_upper = 0) no subject is rejected, so every
    candidate draws the same event times and censoring uniforms U, and C =
    c U only rescales; the empirical rate is then exactly non-increasing in
    c.  With truncation, whether a subject is rejected depends on c, a
    rejection shifts the stream for every later subject, and the rate is
    monotone only up to that resampling.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target censoring rate must be in (0, 1)")
    seed = int(rng.integers(2**63))
    lo, hi = 1e-8, 1.0
    for _ in range(_CALIBRATION_MAX_ITER):
        if _censoring_rate(scenario, hi, seed, _CALIBRATION_PROBE_N) < target:
            break
        hi *= 4.0
    else:
        raise ScenarioError(f"censoring target {target} unreachable (search bound {hi:g})")
    for _ in range(_CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        rate = _censoring_rate(scenario, mid, seed, _CALIBRATION_PROBE_N)
        if abs(rate - target) <= _CALIBRATION_TOL:
            return mid
        if rate > target:
            lo = mid
        else:
            hi = mid
    raise ScenarioError(
        f"censoring calibration did not reach +-{_CALIBRATION_TOL:.0%} of {target:.0%} "
        f"in {_CALIBRATION_MAX_ITER} bisection steps")


def calibrate_truncation(scenario: SimulationScenario, rng: np.random.Generator,
                         fraction: float = 0.2) -> float:
    """Default truncation bound: ``fraction`` times the median first
    observed time in an untruncated probe sample."""
    probe = replace(scenario, n=_CALIBRATION_PROBE_N, trunc_upper=0.0)
    data = simulate_dataset(probe, rng=rng)
    med = float(np.median(data.y1))
    return fraction * med
