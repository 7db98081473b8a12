"""Penalized selection on the quadratic surrogate.

Selection takes an unpenalized fit and a ``PenaltyConfig``, nothing else:
the likelihood is evaluated at the fit's nuisance, and the penalty kind
fixes the penalty object (``_problem``).  ``penalized_solve`` solves at one
lambda; ``gcv_select`` walks the grid.  The kind and the grid are the only
settable values; the loop's tolerance and iteration cap are the constants
``_TOL`` and ``_MAX_ITER``.

All three penalties run the same loop, ``_solve``: at the current iterate
the log-likelihood (nuisance fixed at the unpenalized estimate) is replaced
by the least-squares surrogate 0.5 ||W - X b||^2 built from Cholesky
pseudo-data, one penalized step is taken on it, and the surrogate is
rebuilt at the new iterate until the iterates stabilize.  The steps solve
the surrogate's normal equations (G, c) = (X'X, X'W), which ``pseudo_data``
forms before it factors (G = -H plus any jitter, c = G b + u) and hands
over, so no step multiplies the factor back.

The kinds differ only in their penalty object, which ``_problem`` builds
once from ``cfg.kind``: ``_Bar`` or ``_L1``.  It gives the loop's start, the
surrogate refresh and step, the penalty value in the objective and the
weights w of the GCV curvature diagonal w/|b|.  BAR solves its reweighted
ridge in closed form (``bar_step``).  LASSO and adaptive LASSO, with unit
or adaptive weights, minimize a strictly convex quadratic plus a weighted
L1 term on (G, c), and ``_l1_step`` computes that unique minimizer
directly by the sign-feasible active-set method of Osborne, Presnell &
Turlach (2000): one solve G_AA b_A = c_A - lam w_A s_A per signed support
s, on A = supp(s), with a coordinate dropped where the solve changes its
sign and the largest KKT violator added where none does.  From the
surrogate loop's warm start most steps take one solve; a step that stops
short of a verified minimizer leaves the solve unconverged.

BAR's reweighted ridge cannot produce exact zeros on its own (the weight
1/b^2 diverges instead), so coordinates falling below the zero threshold
are frozen at exactly 0 and dropped from the ridge system - the standard
resolution, and the reason the zero set can only grow across iterations.
BAR therefore builds each surrogate on its nonzero block alone (Dai et al.
2018 solve the reweighted ridge on the nonzero set too): the Hessian
block, its Cholesky factor and the ridge solve cost what that block costs,
and the iterates are those of the full surrogate up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._compiled import dposv as _dposv
from .domain import Dataset
from .likelihood import BetaLikelihood, PseudoData, pseudo_data

__all__ = [
    "PenaltyConfig",
    "PenalizedEstimate",
    "GcvResult",
    "default_lambda_grid",
    "bar_step",
    "penalized_solve",
    "alasso_weights",
    "l1_kkt_residual",
    "effective_params",
    "gcv_select",
]

_WEIGHT_CAP = 1e12
# the most signed supports one L1 step solves on; in exact arithmetic none
# repeats, so only rounding reaches it
_MAX_SUPPORTS = 1000
# the surrogate loop stops once the sup-norm change between iterates is
# below _TOL, or after _MAX_ITER refreshes (then unconverged)
_MAX_ITER = 100
_TOL = 1e-6


def default_lambda_grid(n: int, lo: float = 1e-3, hi: float = 1e2,
                        count: int = 30) -> np.ndarray:
    """Log-spaced tuning grid scaled by n/100."""
    if not (0.0 < lo < np.inf and 0.0 < hi < np.inf and count >= 1):
        raise ValueError("lambda grid needs positive finite ends and count >= 1")
    return np.geomspace(lo, hi, count) * (n / 100.0)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty kind and tuning grid."""

    kind: str = "bar"                   # "bar" | "lasso" | "alasso"
    lambda_grid: np.ndarray = None      # None -> default_lambda_grid(n)
    zero_threshold: ClassVar[float] = 1e-6   # |b| below this is exactly 0

    def __post_init__(self):
        if self.kind not in _PENALTIES:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.lambda_grid is not None:
            grid = np.asarray(self.lambda_grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0 or not np.all((grid > 0) & (grid < np.inf)):
                raise ValueError("lambda grid must be 1-d, nonempty, positive and finite")
            object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class PenalizedEstimate:
    """One penalized solution: exact zeros off the support.  ``jitter`` is
    the largest diagonal jitter ``pseudo_data`` added over the solve's
    surrogate refreshes, on the block of -H that the step factors: BAR's
    nonzero coordinates, all of them for LASSO and ALASSO (0 when every such
    block was positive definite)."""

    beta_hat: np.ndarray
    support: np.ndarray
    lam: float
    n_iter: int
    objective: float
    converged: bool
    jitter: float = 0.0


@dataclass(frozen=True)
class GcvResult:
    best_lambda: float
    best: PenalizedEstimate
    path: list
    table: list


def bar_step(beta_prev, pseudo: PseudoData, lam: float) -> np.ndarray:
    """One broken-adaptive-ridge update on the surrogate.

    Coordinates of ``beta_prev`` below the zero threshold are frozen at 0
    and dropped; the rest, a, solve the reduced ridge system
    (G_aa + lam * diag(1/beta_prev_a^2)) b = c_a on the surrogate's normal
    equations, by Cholesky (LAPACK dposv), or by LU where that system is not
    numerically positive definite.
    """
    beta_prev = np.asarray(beta_prev, dtype=float)
    p = len(beta_prev)
    active = np.abs(beta_prev) >= PenaltyConfig.zero_threshold
    k = np.count_nonzero(active)
    if k == 0:
        return np.zeros(p)
    # almost always the whole block is active: then G needs no gather
    if k == p:
        A, c, b = pseudo.G.copy(), pseudo.c, beta_prev
    else:
        A, c, b = pseudo.G[np.ix_(active, active)], pseudo.c[active], beta_prev[active]
    if lam != 0.0:
        A.ravel()[::k + 1] += lam * (1.0 / b ** 2)
    _, x, info = _dposv(A, c)
    if info:                            # not numerically positive definite
        x = np.linalg.solve(A, c)
    if k == p:
        return x
    out = np.zeros(p)
    out[active] = x
    return out


def _l1_step(G, c, b0, lam, weights):
    """The minimizer of 0.5 b'Gb - c'b + lam sum w|b| by the sign-feasible
    active-set method (Osborne, Presnell & Turlach 2000), and whether it
    finished.

    From the signed support s = sign(b0), it solves G_AA x_A = c_A -
    lam w_A s_A on A = supp(s), x = 0 off A.  Where a coordinate of A
    changes sign, b steps to the first zero crossing on the segment from b
    to x, that coordinate leaves A and x is solved again.  Otherwise b = x,
    which is returned once |c_j - (G b)_j| <= lam w_j off A, or else the
    largest violator joins A with the sign of c_j - (G b)_j.  In exact
    arithmetic the objective falls at every change, so no signed support
    repeats and a coordinate just added keeps its sign.  ``finished`` is
    False where rounding breaks that: after ``_MAX_SUPPORTS`` solves, on a
    numerically singular block, or when a coordinate just added solves back
    to zero or to the other sign.  b is then the last point reached; in the
    last case the minimizer on its signed support, with a KKT violation too
    small for the solve to resolve.
    """
    thr = lam * np.asarray(weights, dtype=float)
    b = np.asarray(b0, dtype=float)
    s = np.sign(b)
    added = None                        # the coordinate the last change added
    for _ in range(_MAX_SUPPORTS):
        A = np.flatnonzero(s)
        x = np.zeros_like(c)
        if A.size:
            try:
                x[A] = np.linalg.solve(G[np.ix_(A, A)], c[A] - thr[A] * s[A])
            except np.linalg.LinAlgError:
                return b, False
        wrong = np.flatnonzero(np.sign(x) != s)
        if added is not None and added in wrong:
            return b, False
        if wrong.size:
            ratio = b[wrong] / (b[wrong] - x[wrong])
            b = b + ratio.min() * (x - b)
            b[wrong[np.argmin(ratio)]] = 0.0
            # drop the crossing, and any coordinate rounding took to or past 0
            s[np.sign(b) != s] = 0.0
            b[s == 0.0] = 0.0
            added = None
            continue
        b = x
        grad = c - G @ b
        viol = np.abs(grad) - thr
        viol[A] = 0.0
        if np.max(viol, initial=0.0) <= 0.0:
            return b, True
        added = int(np.argmax(viol))
        s[added] = np.sign(grad[added])
    return b, False


def l1_kkt_residual(G, c, b, lam, weights) -> float:
    """Largest violated subgradient condition of the L1 surrogate problem."""
    grad = G @ b - c
    thr = lam * np.asarray(weights, dtype=float)
    res = np.where(b != 0.0, np.abs(grad + thr * np.sign(b)),
                   np.maximum(np.abs(grad) - thr, 0.0))
    return float(np.max(res, initial=0.0))


def alasso_weights(beta_tilde) -> np.ndarray:
    """Adaptive-LASSO weights 1/|beta_tilde|, capped at 1e12: an exact or
    underflowing zero gets the cap, without a warning."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(1.0 / np.abs(np.asarray(beta_tilde, dtype=float)), _WEIGHT_CAP)


class _Bar:
    """Broken adaptive ridge.  The start freezes the coordinates below the
    zero threshold, and each refresh is built on the nonzero coordinates nz
    only: beta is 0 off nz, so (J beta + u)[nz] = J[nz, nz] beta[nz] + u[nz],
    and the step never reads the rest.  At the fixed point the adaptive
    ridge penalty equals lam times the support size.  ``weights`` is 2: the
    curvature of b^2/b_hat^2 at b_hat is 2/|b_hat|."""

    weights = 2.0

    def start(self, beta_init):
        return np.where(np.abs(beta_init) >= PenaltyConfig.zero_threshold, beta_init, 0.0)

    def step(self, ev, beta, lam):
        nz = beta.nonzero()[0]
        b = beta[nz]
        pseudo = pseudo_data(b, ev.gradient(beta)[nz], ev.hessian(beta, nz))
        beta_new = np.zeros(beta.size)
        beta_new[nz] = bar_step(b, pseudo, lam)
        return beta_new, pseudo.jitter, True

    def penalty(self, beta):
        return int(np.count_nonzero(beta))


@dataclass(frozen=True)
class _L1:
    """Weighted L1, sum w|b|: ones for LASSO, ``alasso_weights`` for
    ALASSO.  It starts from beta as given and refreshes on every coordinate,
    since an L1 coordinate at zero can re-enter; each step is ``_l1_step`` on
    the surrogate's (G, c), finished unless rounding stopped it short of a
    verified minimizer."""

    weights: np.ndarray

    def start(self, beta_init):
        return np.asarray(beta_init, dtype=float).copy()

    def step(self, ev, beta, lam):
        pseudo = pseudo_data(beta, ev.gradient(beta), ev.hessian(beta))
        beta_new, finished = _l1_step(pseudo.G, pseudo.c, beta, lam, self.weights)
        return beta_new, pseudo.jitter, finished

    def penalty(self, beta):
        return float(self.weights @ np.abs(beta))


# the penalty object of each kind, from the unpenalized coefficients
_PENALTIES = {
    "bar": lambda beta_tilde: _Bar(),
    "lasso": lambda beta_tilde: _L1(np.ones(beta_tilde.size)),
    "alasso": lambda beta_tilde: _L1(alasso_weights(beta_tilde)),
}


def _solve(ev, beta_init, lam, pen):
    """The surrogate loop: from ``pen.start(beta_init)``, the penalty's
    refresh and step (``pen.step``) until the iterates stabilize, at most
    ``_MAX_ITER`` times.  It converges then, unless the last step did not
    finish.  ``pseudo_data``,
    ``bar_step`` and ``_l1_step`` are looked up on this module per call, so
    wrappers set there see each."""
    beta = pen.start(beta_init)
    converged, jitter = False, 0.0
    for n_iter in range(1, _MAX_ITER + 1):
        beta_new, step_jitter, finished = pen.step(ev, beta, lam)
        jitter = max(jitter, step_jitter)
        delta = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta = beta_new
        if delta < _TOL:
            converged = finished
            break
    beta = np.where(np.abs(beta) >= PenaltyConfig.zero_threshold, beta, 0.0)
    return PenalizedEstimate(beta_hat=beta, support=np.flatnonzero(beta != 0.0),
                             lam=float(lam), n_iter=n_iter,
                             objective=-ev.loglik(beta) + lam * pen.penalty(beta),
                             converged=converged, jitter=jitter)


def _problem(data: Dataset, nu_tilde, cfg: PenaltyConfig):
    """The beta-likelihood at the fit's nuisance, and the penalty object of
    ``cfg.kind``: the one place the kind is read after ``PenaltyConfig``
    checks it."""
    ev = BetaLikelihood(data, nu_tilde.params.nuisance)
    return ev, _PENALTIES[cfg.kind](nu_tilde.params.beta.stacked)


def penalized_solve(data: Dataset, nu_tilde, lam: float, cfg: PenaltyConfig = PenaltyConfig(),
                    beta_init=None) -> PenalizedEstimate:
    """The ``cfg.kind`` penalized estimate at one lambda >= 0, from
    ``beta_init`` or else the unpenalized estimate, nuisance fixed at the fit's."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be non-negative and finite, got {lam!r}")
    ev, pen = _problem(data, nu_tilde, cfg)
    start = nu_tilde.params.beta.stacked if beta_init is None else beta_init
    return _solve(ev, start, lam, pen)


def effective_params(beta_hat, H_at_hat, lam: float, weights) -> float:
    """Effective number of parameters tr[(J + lam diag(r))^{-1} J] on the
    selected coordinates, with J = -H (observed information, positive
    definite) and r = w/|b| the penalty-curvature diagonal: ``weights`` w is
    2 for BAR, ones for LASSO and the adaptive weights for ALASSO; a scalar
    applies to every coordinate."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    active = np.abs(beta_hat) >= PenaltyConfig.zero_threshold
    if not active.any():
        return 0.0
    J = -np.asarray(H_at_hat, dtype=float)[np.ix_(active, active)]
    w = np.broadcast_to(np.asarray(weights, dtype=float), beta_hat.shape)[active]
    r = 1.0 / np.abs(beta_hat[active]) * w
    return float(np.trace(np.linalg.solve(J + lam * np.diag(r), J)))


def gcv_select(data: Dataset, nu_tilde, cfg: PenaltyConfig = PenaltyConfig()) -> GcvResult:
    """Solve along the tuning grid and return the GCV minimizer.

    The path is walked from small to large lambda with warm starts; each
    solution is scored by GCV = -loglik / (n [1 - s/n]^2) with the
    effective-parameter count s evaluated at the penalized estimate.
    Grid points where s >= n or the solve fails are excluded (noted in the
    table); ties prefer the larger, sparser lambda.  Each table row also
    carries the solve's ``converged`` flag, ``n_iter`` and ``jitter`` (nan
    when it failed).
    """
    n = len(data)
    grid = cfg.lambda_grid if cfg.lambda_grid is not None else default_lambda_grid(n)
    grid = np.sort(np.asarray(grid, dtype=float))
    ev, pen = _problem(data, nu_tilde, cfg)
    path, table = [], []
    best = None
    beta_start = nu_tilde.params.beta.stacked
    for lam in grid:
        row = {"lambda": float(lam), "n_selected": 0, "s": np.nan,
               "loglik": np.nan, "gcv": np.nan, "ok": False, "note": "",
               "converged": np.nan, "n_iter": np.nan, "jitter": np.nan}
        try:
            est = _solve(ev, beta_start, lam, pen)
            ll = ev.loglik(est.beta_hat)
            s = effective_params(est.beta_hat, ev.hessian(est.beta_hat), lam, pen.weights)
            row.update(n_selected=int(est.support.size), s=s, loglik=ll,
                       converged=est.converged, n_iter=est.n_iter, jitter=est.jitter)
            if s >= n:
                row["note"] = "s >= n, excluded"
            else:
                gcv = -ll / (n * (1.0 - s / n) ** 2)
                row["gcv"] = gcv
                row["ok"] = True
                path.append(est)
                beta_start = est.beta_hat
                if best is None or gcv <= best[0]:
                    best = (gcv, est)
        except (np.linalg.LinAlgError, ArithmeticError, ValueError) as exc:
            row["note"] = f"failed: {exc}"
        table.append(row)
    if best is None:
        raise RuntimeError("no lambda on the grid produced a valid GCV value")
    return GcvResult(best_lambda=best[1].lam, best=best[1], path=path, table=table)
