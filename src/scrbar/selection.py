"""Penalized selection on the quadratic surrogate.

Selection takes an unpenalized fit and a ``PenaltyConfig``, nothing else:
the likelihood is evaluated at the fit's nuisance, and the penalty kind
fixes the weights (``_problem``).  ``penalized_solve`` solves at one
lambda; ``gcv_select`` walks the grid.

All three penalties run the same loop, ``_solve``: at the current iterate
the log-likelihood (nuisance fixed at the unpenalized estimate) is replaced
by the least-squares surrogate 0.5 ||W - X b||^2 built from Cholesky
pseudo-data, one penalized step is taken on it, and the surrogate is
rebuilt at the new iterate until the iterates stabilize.  The steps solve
the surrogate's normal equations (G, c) = (X'X, X'W), which ``pseudo_data``
forms before it factors (G = -H plus any jitter, c = G b + u) and hands
over, so no step multiplies the factor back.  Only the step differs: BAR
solves its reweighted ridge in closed form (``bar_step``), LASSO and
adaptive LASSO run cyclic coordinate descent with soft-thresholding on
(G, c) with unit or adaptive weights.

Each L1 step finishes exactly (``_l1_step``; the active-set idea of
Osborne, Presnell & Turlach 2000): once a sweep leaves the signed support s
unchanged, the minimizer with those signs solves G_AA b_A = c_A - lam w_A s_A
on A = supp(s), and it is kept if the KKT conditions confirm it.  Sweeps
then stop at the minimizer itself instead of within coordinate descent's
tolerance of it, in a few sweeps instead of many; a signed support that does
not verify sends the step back to plain coordinate descent.  A step that
stops at its sweep cap leaves the solve unconverged.

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
from scipy.linalg.lapack import dposv as _dposv

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


def default_lambda_grid(n: int, lo: float = 1e-3, hi: float = 1e2,
                        count: int = 30) -> np.ndarray:
    """Log-spaced tuning grid scaled by n/100."""
    if not (0.0 < lo < np.inf and 0.0 < hi < np.inf and count >= 1):
        raise ValueError("lambda grid needs positive finite ends and count >= 1")
    return np.geomspace(lo, hi, count) * (n / 100.0)


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty kind, tuning grid, and iteration limits."""

    kind: str = "bar"                   # "bar" | "lasso" | "alasso"
    lambda_grid: np.ndarray = None      # None -> default_lambda_grid(n)
    max_iter: int = 100
    tol: float = 1e-6                   # sup-norm change between iterates
    zero_threshold: ClassVar[float] = 1e-6   # |b| below this is exactly 0

    def __post_init__(self):
        if self.kind not in ("bar", "lasso", "alasso"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
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
    active = np.abs(beta_prev) >= PenaltyConfig.zero_threshold
    if not active.any():
        return np.zeros_like(beta_prev)
    # almost always the whole block is active: then G needs no gather
    full = active.all()
    if full:
        A, c, b = pseudo.G.copy(), pseudo.c, beta_prev
    else:
        A, c, b = pseudo.G[np.ix_(active, active)], pseudo.c[active], beta_prev[active]
    if lam != 0.0:
        A.ravel()[::len(b) + 1] += lam * (1.0 / b ** 2)
    _, x, info = _dposv(A, c)
    if info:                            # not numerically positive definite
        x = np.linalg.solve(A, c)
    if full:
        return x
    out = np.zeros_like(beta_prev)
    out[active] = x
    return out


def _sweeps(G, c, b, thr, sweeps, tol):
    """Cyclic soft-threshold sweeps on 0.5 b'Gb - c'b + sum thr|b|, updating
    the list ``b`` in place.

    After each sweep this yields whether the sweep changed the sign (-, 0 or
    +) of any coordinate and whether it moved none by ``tol``, and it stops
    after such a sweep or after ``sweeps`` sweeps.  The coordinates are
    updated on Python floats, which round exactly as numpy scalars do; only
    the residual update r -= G[:, j] * step is a vector operation.
    """
    r = c - G @ np.array(b)
    r_at = r.item
    cols = list(G.T)                    # cols[j] is the column G[:, j]
    diag = np.diag(G).tolist()
    thr = thr.tolist()
    for _ in range(sweeps):
        delta, flipped = 0.0, False
        for j, old in enumerate(b):
            x = r_at(j) + diag[j] * old
            a = abs(x) - thr[j]
            bj = ((a if x > 0.0 else -a) if a > 0.0 else 0.0) / diag[j]
            if bj != old:
                r -= cols[j] * (bj - old)
                b[j] = bj
                delta = max(delta, abs(bj - old))
                # a product that underflows to 0 only reads as a flip
                flipped = flipped or bj * old <= 0.0
        yield flipped, delta < tol
        if delta < tol:
            return


def _coordinate_descent(G, c, b0, lam, weights, sweeps=2000, tol=1e-10):
    """Cyclic soft-threshold minimization of 0.5 b'Gb - c'b + lam sum w|b|."""
    b = np.asarray(b0, dtype=float).tolist()
    for _ in _sweeps(G, c, b, lam * np.asarray(weights, dtype=float), sweeps, tol):
        pass
    return np.array(b)


def _signed_support_solution(G, c, s, thr):
    """The minimizer of 0.5 b'Gb - c'b + sum thr|b| if its signs are ``s``,
    else None.

    On A = supp(s) it solves the stationarity G_AA b_A = c_A - thr_A s_A and
    keeps b (0 off A) only under the remaining KKT conditions: sign(b_A) =
    s_A and |c_j - (G b)_j| <= thr_j off A.  A singular block is no answer.
    """
    A = np.flatnonzero(s)
    b = np.zeros_like(c)
    try:
        b[A] = np.linalg.solve(G[np.ix_(A, A)], c[A] - thr[A] * s[A])
    except np.linalg.LinAlgError:
        return None
    off = s == 0.0
    grad = c[off] - G[np.ix_(off, A)] @ b[A]
    if np.array_equal(np.sign(b[A]), s[A]) and np.all(np.abs(grad) <= thr[off]):
        return b
    return None


def _l1_step(G, c, b0, lam, weights, sweeps=2000, tol=1e-10):
    """``_coordinate_descent``, finished exactly on its signed support, and
    whether it finished: False when it stopped at the sweep cap.

    After a sweep that changes no sign, the minimizer with those signs is
    solved for (``_signed_support_solution``), at most once per distinct
    signed support, and returned when it satisfies the KKT conditions.
    Otherwise the sweeps go on, and the answer is ``_coordinate_descent``'s
    bit for bit.
    """
    thr = lam * np.asarray(weights, dtype=float)
    b = np.asarray(b0, dtype=float).tolist()
    tried, fresh = set(), True          # fresh: signs changed since last read
    for flipped, done in _sweeps(G, c, b, thr, sweeps, tol):
        if flipped:
            fresh = True
        elif fresh:
            fresh = False
            s = np.sign(b)
            key = s.tobytes()
            if key not in tried:
                tried.add(key)
                exact = _signed_support_solution(G, c, s, thr)
                if exact is not None:
                    return exact, True
    return np.array(b), done


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


def _solve(ev, beta_init, lam, cfg, weights=None):
    """The surrogate loop: BAR ridge steps when ``weights`` is None, starting
    with the coordinates below the zero threshold frozen; weighted L1
    coordinate descent on the surrogate's (G, c) from ``beta_init`` as
    given, finished exactly by ``_l1_step``, otherwise.  It converges when
    the iterates stabilize, unless the last L1 step stopped at its sweep cap.

    BAR refreshes the surrogate on the nonzero coordinates nz only: beta is 0
    off nz, so (J beta + u)[nz] = J[nz, nz] beta[nz] + u[nz], and the step
    never reads the rest.  L1 coordinates can re-enter, so LASSO and ALASSO
    refresh on all of them.
    """
    thr = cfg.zero_threshold
    if weights is None:
        beta = np.where(np.abs(beta_init) >= thr, beta_init, 0.0)
    else:
        beta = np.asarray(beta_init, dtype=float).copy()
    converged, finished, n_iter, jitter = False, True, 0, 0.0
    for n_iter in range(1, cfg.max_iter + 1):
        # pseudo_data and bar_step are looked up on this module per call, so
        # wrappers set there see each
        u = ev.gradient(beta)
        if weights is None:
            nz = np.flatnonzero(beta)
            b = beta[nz]
            pseudo = pseudo_data(b, u[nz], ev.hessian(beta, nz))
            beta_new = np.zeros_like(beta)
            beta_new[nz] = bar_step(b, pseudo, lam)
        else:
            pseudo = pseudo_data(beta, u, ev.hessian(beta))
            beta_new, finished = _l1_step(pseudo.G, pseudo.c, beta, lam, weights)
        jitter = max(jitter, pseudo.jitter)
        delta = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta = beta_new
        if delta < cfg.tol:
            converged = finished
            break
    beta = np.where(np.abs(beta) >= thr, beta, 0.0)
    support = np.flatnonzero(beta != 0.0)
    # at the fixed point the adaptive ridge penalty equals lam * support size
    penalty = support.size if weights is None else float(weights @ np.abs(beta))
    return PenalizedEstimate(beta_hat=beta, support=support, lam=float(lam),
                             n_iter=n_iter, objective=-ev.loglik(beta) + lam * penalty,
                             converged=converged, jitter=jitter)


def _problem(data: Dataset, nu_tilde, cfg: PenaltyConfig):
    """The beta-likelihood at the fit's nuisance, and the L1 weights of
    ``cfg.kind``: None for BAR, ones for LASSO, and ``alasso_weights`` of
    the unpenalized coefficients for ALASSO."""
    ev = BetaLikelihood(data, nu_tilde.params.nuisance)
    if cfg.kind == "lasso":
        return ev, np.ones(ev.p)
    if cfg.kind == "alasso":
        return ev, alasso_weights(nu_tilde.params.beta.stacked)
    return ev, None


def penalized_solve(data: Dataset, nu_tilde, lam: float, cfg: PenaltyConfig = PenaltyConfig(),
                    beta_init=None) -> PenalizedEstimate:
    """The ``cfg.kind`` penalized estimate at one lambda >= 0, from
    ``beta_init`` or else the unpenalized estimate, nuisance fixed at the fit's."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be non-negative and finite, got {lam!r}")
    ev, weights = _problem(data, nu_tilde, cfg)
    start = nu_tilde.params.beta.stacked if beta_init is None else beta_init
    return _solve(ev, start, lam, cfg, weights)


_R_DIAG_NUMERATOR = {"bar": 2.0, "lasso": 1.0, "alasso": 1.0}


def effective_params(beta_hat, H_at_hat, lam: float, penalty: PenaltyConfig,
                     weights=None) -> float:
    """Effective number of parameters tr[(J + lam r)^{-1} J] on the selected
    coordinates, with J = -H (observed information, positive definite) and
    r the penalty-curvature diagonal: 2/|b| for BAR, 1/|b| for LASSO,
    w/|b| for ALASSO."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    active = np.abs(beta_hat) >= penalty.zero_threshold
    if not active.any():
        return 0.0
    J = -np.asarray(H_at_hat, dtype=float)[np.ix_(active, active)]
    r = _R_DIAG_NUMERATOR[penalty.kind] / np.abs(beta_hat[active])
    if penalty.kind == "alasso":
        if weights is None:
            raise ValueError("alasso effective_params needs the weight vector")
        r = r * np.asarray(weights, dtype=float)[active]
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
    ev, weights = _problem(data, nu_tilde, cfg)
    path, table = [], []
    best = None
    beta_start = nu_tilde.params.beta.stacked
    for lam in grid:
        row = {"lambda": float(lam), "n_selected": 0, "s": np.nan,
               "loglik": np.nan, "gcv": np.nan, "ok": False, "note": "",
               "converged": np.nan, "n_iter": np.nan, "jitter": np.nan}
        try:
            est = _solve(ev, beta_start, lam, cfg, weights)
            ll = ev.loglik(est.beta_hat)
            s = effective_params(est.beta_hat, ev.hessian(est.beta_hat), lam,
                                 cfg, weights)
            row["n_selected"] = int(est.support.size)
            row["s"] = s
            row["loglik"] = ll
            row.update(converged=est.converged, n_iter=est.n_iter, jitter=est.jitter)
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
