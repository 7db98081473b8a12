"""Unpenalized maximum-likelihood fitting and Bernstein degree selection.

The optimizer works on a fully unconstrained vector: stacked regression
coefficients, log frailty variance, and either log Weibull parameters or
Bernstein log-hazard coefficients.  Quasi-Newton (L-BFGS-B with a Wolfe
line search) drives the fit; the gradient is analytic for every block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .baselines import (
    DEFAULT_QUADRATURE,
    BernsteinBaselineSet,
    QuadratureRule,
    WeibullBaselineSet,
    _BernsteinTable,
    bernstein_basis_matrix,
)
from .domain import (
    Dataset,
    ModelParameters,
    NuisanceParameters,
    RegressionCoefficients,
)
from .likelihood import _Core, _Point

__all__ = [
    "FitConfig",
    "FitResult",
    "fit_unpenalized",
    "bic_degree_select",
    "bernstein_supports",
]


@dataclass(frozen=True)
class FitConfig:
    """Fitting policy: baseline mode, Bernstein degrees, gradient tolerance,
    quadrature and truncation convention."""

    baseline: str = "weibull"           # "weibull" | "bernstein"
    degrees: tuple = (2, 2, 3)
    gtol: float = 5e-4                  # sup-norm of the gradient at the optimum
    quadrature: QuadratureRule = DEFAULT_QUADRATURE   # Bernstein cumulative hazards
    truncation: str = "calendar"        # "calendar" | "gap"; see likelihood module

    def __post_init__(self):
        if self.baseline not in ("weibull", "bernstein"):
            raise ValueError(f"unknown baseline mode {self.baseline!r}")
        if self.truncation not in ("gap", "calendar"):
            raise ValueError(f"unknown truncation convention {self.truncation!r}")
        if self.gtol <= 0:
            raise ValueError("gradient tolerance must be positive")
        if any(int(m) < 0 for m in self.degrees):
            raise ValueError("Bernstein degrees must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus convergence diagnostics."""

    params: ModelParameters
    loglik: float
    converged: bool
    n_iter: int
    grad_norm: float


def bernstein_supports(data: Dataset, truncation: str = "calendar") -> tuple:
    """Default sieve supports: [0, u_j] with u_j the largest time at which
    transition j's hazard or cumulative hazard is ever evaluated.

    Transitions 1-2 cover the truncated initial-state window plus the event
    times; transition 3 covers the sojourn times of subjects with an
    observed non-terminal event (fallback 1.0 when there are none).
    """
    arr = data.arrays()
    t12 = arr["y1"] - arr["l"] if truncation == "gap" else arr["y1"]
    ev1 = arr["delta1"] == 1.0
    ev2 = (arr["delta1"] == 0.0) & (arr["delta2"] == 1.0)
    u1 = max(t12.max(), arr["y1"][ev1].max() if ev1.any() else 0.0)
    u2 = max(t12.max(), arr["y2"][ev2].max() if ev2.any() else 0.0)
    soj = (arr["y2"] - arr["y1"])[ev1]
    u3 = soj.max() if ev1.any() and soj.size else 1.0
    return ((0.0, float(u1)), (0.0, float(u2)), (0.0, max(float(u3), 1e-12)))


class _Objective:
    """Negative log-likelihood and gradient over the packed parameter vector
    [beta, log gamma, baseline block].

    The closed form and its beta and log-gamma derivatives come from the
    likelihood core; this class adds the baseline block's log cumulative
    hazards and event log-hazards with their derivatives.
    """

    def __init__(self, data: Dataset, cfg: FitConfig):
        core = self.core = _Core(data, cfg.truncation)
        self.dims, self.p, self.n = core.dims, core.p, core.n
        self.cfg = cfg
        with np.errstate(divide="ignore"):
            self.log_interval = tuple(np.log(t) for t in core.interval)
            self.log_ev_times = tuple(np.log(t) for t in core.ev_times)
            self.log_entry = None if core.entry is None else np.log(core.entry)
        if cfg.baseline == "weibull":
            # log t where the Weibull slope term alpha * log t is finite, else 0
            self.slope_interval = tuple(np.where(t > 0, lt, 0.0)
                                        for t, lt in zip(core.interval, self.log_interval))
            self.slope_entry = (None if core.entry is None
                                else np.where(core.entry > 0, self.log_entry, 0.0))
            self.n_base = 6
        else:
            self.supports = bernstein_supports(data, cfg.truncation)
            self.tables = [
                _BernsteinTable(core.interval[j], cfg.degrees[j],
                                self.supports[j], cfg.quadrature)
                for j in range(3)
            ]
            self.tables_entry = [
                _BernsteinTable(core.entry, cfg.degrees[j], self.supports[j],
                                cfg.quadrature)
                for j in range(2)
            ] if core.entry is not None else None
            self.ev_basis = [
                bernstein_basis_matrix(core.ev_times[j], cfg.degrees[j],
                                       *self.supports[j])
                for j in range(3)
            ]
            self.n_base = sum(m + 1 for m in cfg.degrees)
        self.n_params = self.p + 1 + self.n_base

    # -- packing ---------------------------------------------------------
    def split(self, theta):
        beta = theta[:self.p]
        log_gamma = theta[self.p]
        base = theta[self.p + 1:]
        return beta, log_gamma, base

    def _base_blocks(self, base):
        if self.cfg.baseline == "weibull":
            return [(base[2 * j], base[2 * j + 1]) for j in range(3)]
        out, off = [], 0
        for m in self.cfg.degrees:
            out.append(base[off:off + m + 1])
            off += m + 1
        return out

    # -- evaluation ------------------------------------------------------
    # Both baselines return, per transition, log Lambda over the exposure
    # interval, log[Lambda(l) / Lambda(t)] for the calendar adjustment (None
    # where it does not apply) and the event log-hazard sum, plus a function
    # of the shrink weights w and the ratios R giving the baseline block's
    # gradient.
    def _weibull(self, blocks):
        alphas = [np.exp(la) for la, _ in blocks]
        log_t, log_ratio, ev = [], [], []
        for j, ((la, lt), alpha) in enumerate(zip(blocks, alphas)):
            log_t.append(lt + alpha * self.log_interval[j])
            # tau cancels: Lambda(l) / Lambda(t) = (l / t)^alpha
            log_ratio.append(alpha * (self.log_entry - self.log_interval[j])
                             if self.log_entry is not None and j < 2 else None)
            ev.append(float(np.sum(la + lt + (alpha - 1.0) * self.log_ev_times[j])))

        def grad(w, ratio):
            g, dT = [], np.ones(self.n)
            for j, alpha in enumerate(alphas):
                R = ratio[j]
                if R is None:
                    dA = alpha * self.slope_interval[j]
                else:
                    dA = alpha * (self.log_interval[j] - R * self.slope_entry) / (1.0 - R)
                g += [float(np.sum(1.0 + alpha * self.log_ev_times[j]) - w[:, j] @ dA),
                      float(self.core.ev_mask[j].sum() - w[:, j] @ dT)]
            return g
        return log_t, log_ratio, ev, grad

    def _bernstein(self, blocks):
        # each table's quadrature scores feed both log Lambda and its derivative
        scores = [t.scores(phi) for t, phi in zip(self.tables, blocks)]
        log_t = [t.log_cumhaz(sc) for t, sc in zip(self.tables, scores)]
        log_ratio, scores_entry = [None, None, None], None
        if self.tables_entry is not None:
            scores_entry = [t.scores(phi) for t, phi in zip(self.tables_entry, blocks)]
            log_ratio[:2] = [t.log_cumhaz(sc) - lt
                             for t, sc, lt in zip(self.tables_entry, scores_entry, log_t)]
        ev = [float(np.sum(self.ev_basis[j] @ phi)) for j, phi in enumerate(blocks)]

        def grad(w, ratio):
            g = []
            for j in range(3):
                d = self.tables[j].dlog_cumhaz(scores[j])
                R = ratio[j]
                if R is not None:
                    # d log[L(t) - L(l)] = (d log L(t) - R d log L(l)) / (1 - R)
                    d = (d - R[:, None] * self.tables_entry[j].dlog_cumhaz(scores_entry[j])
                         ) / (1.0 - R[:, None])
                g.append(self.ev_basis[j].sum(axis=0) - w[:, j] @ d)
            return np.concatenate(g)
        return log_t, log_ratio, ev, grad

    def value_and_grad(self, theta):
        beta, log_gamma, base = self.split(theta)
        baseline = self._weibull if self.cfg.baseline == "weibull" else self._bernstein
        log_t, log_ratio, ev, base_grad = baseline(self._base_blocks(base))
        lb, ratio = self.core.log_bases(log_t, log_ratio)
        pt = _Point(self.core, beta, log_gamma, lb)
        w = pt.shrink_weights()
        g = np.concatenate([self.core.grad_beta(w), [pt.dlog_gamma()], base_grad(w, ratio)])
        return -pt.loglik(ev), -g

    # -- starting point ---------------------------------------------------
    def initial_point(self):
        theta = np.zeros(self.n_params)
        theta[self.p] = np.log(0.5)                      # gamma = 0.5
        exposure12 = max(float(np.sum(self.core.gap12)), 1e-12)
        exposure3 = max(float(np.sum(self.core.sojourn)), 1e-12)
        rates = [max(float(self.core.ev_mask[j].sum()), 0.5) / exposure
                 for j, exposure in enumerate((exposure12, exposure12, exposure3))]
        if self.cfg.baseline == "weibull":
            for j in range(3):
                theta[self.p + 1 + 2 * j] = 0.0          # alpha = 1
                theta[self.p + 2 + 2 * j] = np.log(rates[j])
        else:
            off = self.p + 1
            for j, m in enumerate(self.cfg.degrees):
                theta[off:off + m + 1] = np.log(rates[j])
                off += m + 1
        return theta

    def bounds(self):
        # the log frailty-variance cap blocks the spike degeneracy where
        # unbounded heterogeneity memorizes every event time
        bnds = [(-30.0, 30.0)] * self.p + [(-12.0, 2.5)]
        if self.cfg.baseline == "weibull":
            for _ in range(3):
                bnds += [(-8.0, 8.0), (-40.0, 20.0)]
        else:
            bnds += [(-40.0, 20.0)] * self.n_base
        return bnds

    def build_params(self, theta) -> ModelParameters:
        beta, log_gamma, base = self.split(theta)
        blocks = self._base_blocks(base)
        if self.cfg.baseline == "weibull":
            spec = WeibullBaselineSet(
                log_alpha=np.array([b[0] for b in blocks]),
                log_tau=np.array([b[1] for b in blocks]))
        else:
            spec = BernsteinBaselineSet(self.cfg.degrees, blocks, self.supports)
        return ModelParameters(
            beta=RegressionCoefficients.from_stacked(beta, self.dims),
            nuisance=NuisanceParameters(gamma=float(np.exp(log_gamma)), baseline=spec))


def fit_unpenalized(data: Dataset, cfg: FitConfig = FitConfig(),
                    theta0=None) -> FitResult:
    """Maximize the marginal log-likelihood over all model parameters.

    Positivity of the frailty variance and Weibull parameters is handled by
    log-reparameterization, so the search is unconstrained up to wide
    overflow guards.  A non-converged fit is returned with its flag down
    rather than raised.
    """
    obj = _Objective(data, cfg)
    if len(data) <= obj.n_params:
        raise ValueError(
            f"need n > parameter count ({len(data)} <= {obj.n_params})")
    x0 = obj.initial_point() if theta0 is None else np.asarray(theta0, dtype=float)
    bounds = obj.bounds()
    res = scipy.optimize.minimize(
        obj.value_and_grad, x0, jac=True, method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 600, "ftol": 1e-12,
                 "gtol": cfg.gtol / 10.0, "maxls": 60, "maxcor": 20})
    _, grad = obj.value_and_grad(res.x)
    # projected gradient: components pushing against an active bound don't count
    lo, hi = np.array(bounds).T
    pg = np.where(res.x <= lo + 1e-12, np.minimum(grad, 0.0),
                  np.where(res.x >= hi - 1e-12, np.maximum(grad, 0.0), grad))
    grad_norm = float(np.max(np.abs(pg)))
    return FitResult(
        params=obj.build_params(res.x),
        loglik=-float(res.fun),
        converged=bool(grad_norm < cfg.gtol),
        n_iter=int(res.nit),
        grad_norm=grad_norm)


def bic_degree_select(data: Dataset, candidates, cfg: FitConfig = FitConfig()):
    """Pick Bernstein degrees by BIC over a candidate list of (m1, m2, m3).

    BIC(m) = -2 loglik + log(n) * [(p + 1) + sum_j (m_j + 1)].  Failed
    candidates are kept in the table with bic = inf and excluded from the
    argmin; ties go to the smaller total degree.
    """
    candidates = [tuple(int(m) for m in c) for c in candidates]
    if not candidates:
        raise ValueError("empty candidate list")
    n = len(data)
    p = data.p
    table = []
    for degs in candidates:
        row = {"degrees": degs, "loglik": np.nan, "bic": np.inf,
               "converged": False, "error": ""}
        try:
            fr = fit_unpenalized(data, replace(cfg, baseline="bernstein", degrees=degs))
            row["loglik"] = fr.loglik
            row["converged"] = fr.converged
            row["bic"] = -2.0 * fr.loglik + np.log(n) * ((p + 1) + sum(m + 1 for m in degs))
            row["fit"] = fr
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            row["error"] = str(exc)
        table.append(row)
    ok = [r for r in table if np.isfinite(r["bic"])]
    if not ok:
        raise RuntimeError("every candidate degree failed to fit")
    best = min(ok, key=lambda r: (r["bic"], sum(r["degrees"])))
    return best["degrees"], table
