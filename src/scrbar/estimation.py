"""Unpenalized maximum-likelihood fitting and Bernstein degree selection.

The optimizer works on a fully unconstrained vector: stacked regression
coefficients, log frailty variance, and a baseline block.  The block is
picked once per fit from ``FitConfig.baseline``: ``_Weibull`` holds the log
shape and log rate of each transition, ``_Bernstein`` its log-hazard
coefficients, and each owns its precomputed tables, bounds, starting
values and the baseline spec it packs into the fitted parameters.
Quasi-Newton (L-BFGS-B with a Wolfe line search) drives the fit; the
gradient is analytic for every block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
import scipy.optimize

from .baselines import (
    BernsteinBaselineSet,
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

# a fit counts as converged when the sup-norm of its projected gradient is
# below this
_GTOL = 5e-4


@dataclass(frozen=True)
class FitConfig:
    """Fitting policy: baseline mode and Bernstein degrees.  Quadrature has
    one rule (see the baselines module) and left truncation one convention,
    the calendar adjustment (see the likelihood module)."""

    baseline: str = "weibull"           # "weibull" | "bernstein"
    degrees: tuple = (2, 2, 3)
    # read by perfbench/workloads.py::fit_problems; not fields
    quadrature: ClassVar[None] = None
    truncation: ClassVar[str] = "calendar"

    def __post_init__(self):
        if self.baseline not in ("weibull", "bernstein"):
            raise ValueError(f"unknown baseline mode {self.baseline!r}")
        if len(self.degrees) != 3:
            raise ValueError("Bernstein degrees must be one per transition (m1, m2, m3)")
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


def bernstein_supports(data: Dataset) -> tuple:
    """Default sieve supports: [0, u_j] with u_j the largest time at which
    transition j's hazard or cumulative hazard is ever evaluated.

    Transitions 1-2 cover the initial-state window [0, y1] (the entry
    times lie inside it), and transition 2 also its direct terminal event
    times; transition 3 covers the sojourn times of subjects with an
    observed non-terminal event (fallback 1.0 when there are none).
    """
    arr = data.arrays()
    ev1 = arr["delta1"] == 1.0
    ev2 = (arr["delta1"] == 0.0) & (arr["delta2"] == 1.0)
    u1 = arr["y1"].max()
    u2 = max(u1, arr["y2"][ev2].max() if ev2.any() else 0.0)
    soj = (arr["y2"] - arr["y1"])[ev1]
    u3 = soj.max() if ev1.any() and soj.size else 1.0
    return ((0.0, float(u1)), (0.0, float(u2)), (0.0, max(float(u3), 1e-12)))


class _Weibull:
    """Weibull block of the packed vector: (log alpha_j, log tau_j) for
    j = 1, 2, 3, with log time tables fixed by the data."""

    size = 6
    bounds = [(-8.0, 8.0), (-40.0, 20.0)] * 3

    def __init__(self, core):
        self.core = core
        with np.errstate(divide="ignore"):
            self.log_interval = tuple(np.log(t) for t in core.interval)
            self.log_ev_times = tuple(np.log(t) for t in core.ev_times)
            self.log_entry = None if core.entry is None else np.log(core.entry)
        # log t where the Weibull slope term alpha * log t is finite, else 0
        self.slope_interval = tuple(np.where(t > 0, lt, 0.0)
                                    for t, lt in zip(core.interval, self.log_interval))
        self.slope_entry = (None if core.entry is None
                            else np.where(core.entry > 0, self.log_entry, 0.0))

    @staticmethod
    def start(log_rates):
        """alpha = 1: exponential hazards at the given log rates."""
        return np.array([[0.0, lr] for lr in log_rates]).ravel()

    def evaluate(self, base):
        blocks = [(base[2 * j], base[2 * j + 1]) for j in range(3)]
        alphas = [np.exp(la) for la, _ in blocks]
        log_t, log_ratio, ev = [], [], []
        for j, ((la, lt), alpha) in enumerate(zip(blocks, alphas)):
            log_t.append(lt + alpha * self.log_interval[j])
            # tau cancels: Lambda(l) / Lambda(t) = (l / t)^alpha
            log_ratio.append(alpha * (self.log_entry - self.log_interval[j])
                             if self.log_entry is not None and j < 2 else None)
            ev.append(float(np.sum(la + lt + (alpha - 1.0) * self.log_ev_times[j])))

        def grad(w, ratio):
            g, dT = [], np.ones(self.core.n)
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

    def spec(self, base) -> WeibullBaselineSet:
        return WeibullBaselineSet(log_alpha=base[0::2].copy(), log_tau=base[1::2].copy())


class _Bernstein:
    """Bernstein block of the packed vector: the log-hazard coefficients of
    transitions 1-3 in turn, with quadrature tables and event bases fixed
    by the data."""

    def __init__(self, data, core, cfg):
        self.degrees = cfg.degrees
        self.size = sum(m + 1 for m in cfg.degrees)
        self.bounds = [(-40.0, 20.0)] * self.size
        ends = np.cumsum([m + 1 for m in cfg.degrees]).tolist()
        self.blocks = [slice(a, b) for a, b in zip([0] + ends[:2], ends)]
        self.supports = bernstein_supports(data)

        def table(t, j):
            return _BernsteinTable(t, cfg.degrees[j], self.supports[j])
        self.tables = [table(core.interval[j], j) for j in range(3)]
        self.tables_entry = (None if core.entry is None
                             else [table(core.entry, j) for j in range(2)])
        self.ev_basis = [
            bernstein_basis_matrix(core.ev_times[j], cfg.degrees[j],
                                   *self.supports[j])
            for j in range(3)
        ]
        # d/dphi of the event log-hazard sums, the same at every phi
        self.ev_basis_sum = [b.sum(axis=0) for b in self.ev_basis]

    def start(self, log_rates):
        """Flat log-hazards: the basis sums to one, so each transition's
        hazard is constant at its rate."""
        return np.concatenate([np.full(m + 1, lr) for m, lr in zip(self.degrees, log_rates)])

    def evaluate(self, base):
        blocks = [base[s] for s in self.blocks]
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
                g.append(self.ev_basis_sum[j] - w[:, j] @ d)
            return np.concatenate(g)
        return log_t, log_ratio, ev, grad

    def spec(self, base) -> BernsteinBaselineSet:
        # the set stores copies of the coefficient blocks
        return BernsteinBaselineSet(self.degrees, [base[s] for s in self.blocks], self.supports)


class _Objective:
    """Negative log-likelihood and gradient over the packed parameter vector
    [beta, log gamma, baseline block].

    The closed form and its beta and log-gamma derivatives come from the
    likelihood core.  The baseline block is a ``_Weibull`` or a
    ``_Bernstein``, chosen once from the config; its ``evaluate`` gives,
    per transition, log Lambda over the exposure interval, log[Lambda(l) /
    Lambda(t)] for the calendar adjustment (None where it does not apply)
    and the event log-hazard sum, plus a function of the shrink weights w
    and the ratios R giving the block's gradient.
    """

    def __init__(self, data: Dataset, cfg: FitConfig):
        core = self.core = _Core(data)
        self.p = core.p
        self.base = _Weibull(core) if cfg.baseline == "weibull" else _Bernstein(data, core, cfg)
        self.n_params = self.p + 1 + self.base.size

    def value_and_grad(self, theta):
        p = self.p
        log_t, log_ratio, ev, base_grad = self.base.evaluate(theta[p + 1:])
        lb, ratio = self.core.log_bases(log_t, log_ratio)
        pt = _Point(self.core, theta[:p], theta[p], lb)
        w = pt.shrink_weights()
        g = np.concatenate([self.core.grad_beta(w), [pt.dlog_gamma()], base_grad(w, ratio)])
        return -pt.loglik(ev), -g

    def initial_point(self):
        """beta = 0, gamma = 0.5 and constant hazards at the crude event rates."""
        exposure12 = max(float(np.sum(self.core.at_risk12)), 1e-12)
        exposure3 = max(float(np.sum(self.core.sojourn)), 1e-12)
        log_rates = [np.log(max(float(self.core.ev_mask[j].sum()), 0.5) / exposure)
                     for j, exposure in enumerate((exposure12, exposure12, exposure3))]
        return np.concatenate([np.zeros(self.p), [np.log(0.5)], self.base.start(log_rates)])

    def bounds(self):
        # the log frailty-variance cap blocks the spike degeneracy where
        # unbounded heterogeneity memorizes every event time
        return [(-30.0, 30.0)] * self.p + [(-12.0, 2.5)] + self.base.bounds

    def build_params(self, theta) -> ModelParameters:
        p = self.p
        return ModelParameters(
            beta=RegressionCoefficients.from_stacked(theta[:p], self.core.dims),
            nuisance=NuisanceParameters(gamma=float(np.exp(theta[p])),
                                        baseline=self.base.spec(theta[p + 1:])))


def fit_unpenalized(data: Dataset, cfg: FitConfig = FitConfig(),
                    theta0=None) -> FitResult:
    """Maximize the marginal log-likelihood over all model parameters.

    Positivity of the frailty variance and Weibull parameters is handled by
    log-reparameterization, so the search is unconstrained up to wide
    overflow guards.  A non-converged fit is returned with its flag down
    rather than raised; a fit with a regression coefficient on its +-30
    bound is not converged, whatever its projected gradient.
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
                 "gtol": _GTOL / 10.0, "maxls": 60, "maxcor": 20})
    _, grad = obj.value_and_grad(res.x)
    # projected gradient: components pushing against an active bound don't count
    lo, hi = np.array(bounds).T
    at_lo, at_hi = res.x <= lo + 1e-12, res.x >= hi - 1e-12
    pg = np.where(at_lo, np.minimum(grad, 0.0), np.where(at_hi, np.maximum(grad, 0.0), grad))
    grad_norm = float(np.max(np.abs(pg)))
    # a coefficient on its +-30 bound means no finite maximizer was reached
    on_box = bool((at_lo | at_hi)[:obj.p].any())
    return FitResult(
        params=obj.build_params(res.x),
        loglik=-float(res.fun),
        converged=grad_norm < _GTOL and not on_box,
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
