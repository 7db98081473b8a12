"""Penalized selection on the quadratic surrogate.

All three penalties run the same loop, ``_solve``: at the current iterate
the log-likelihood (nuisance fixed at the unpenalized estimate) is replaced
by the least-squares surrogate 0.5 ||W - X b||^2 built from Cholesky
pseudo-data, one penalized step is taken on it, and the surrogate is
rebuilt at the new iterate until the iterates stabilize.  Only the step
differs: BAR solves its reweighted ridge in closed form (``bar_step``),
LASSO and adaptive LASSO run cyclic coordinate descent with
soft-thresholding on (X'X, X'W) with unit or adaptive weights.

BAR's reweighted ridge cannot produce exact zeros on its own (the weight
1/b^2 diverges instead), so coordinates falling below the zero threshold
are frozen at exactly 0 and dropped from the ridge system - the standard
resolution, and the reason the zero set can only grow across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import DEFAULT_QUADRATURE, QuadratureRule
from .domain import Dataset
from .likelihood import BetaLikelihood, PseudoData, pseudo_data

__all__ = [
    "PenaltyConfig",
    "PenalizedEstimate",
    "GcvResult",
    "default_lambda_grid",
    "bar_step",
    "bar_solve",
    "l1_solve",
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
    zero_threshold: float = 1e-6        # |b| below this is exactly 0

    def __post_init__(self):
        if self.kind not in ("bar", "lasso", "alasso"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.zero_threshold <= 0 or self.tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.lambda_grid is not None:
            grid = np.asarray(self.lambda_grid, dtype=float)
            if grid.size == 0 or np.any(grid <= 0):
                raise ValueError("lambda grid must be nonempty and positive")
            object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class PenalizedEstimate:
    """One penalized solution: exact zeros off the support.  ``jitter`` is
    the largest diagonal jitter ``pseudo_data`` added over the solve's
    surrogate refreshes (0 when every -H was positive definite)."""

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


def bar_step(beta_prev, pseudo: PseudoData, lam: float,
             zero_threshold: float = 1e-6) -> np.ndarray:
    """One broken-adaptive-ridge update on the surrogate.

    Coordinates of ``beta_prev`` below the zero threshold are frozen at 0
    and their columns dropped; the rest solve the reduced ridge system
    (X'X + lam * diag(1/beta_prev^2)) b = X'W.
    """
    beta_prev = np.asarray(beta_prev, dtype=float)
    active = np.abs(beta_prev) >= zero_threshold
    out = np.zeros_like(beta_prev)
    if not active.any():
        return out
    Xa = pseudo.X[:, active]
    A = Xa.T @ Xa
    if lam != 0.0:
        A = A + lam * np.diag(1.0 / beta_prev[active] ** 2)
    out[active] = np.linalg.solve(A, Xa.T @ pseudo.W)
    return out


def _coordinate_descent(G, c, b0, lam, weights, sweeps=2000, tol=1e-10):
    """Cyclic soft-threshold minimization of 0.5 b'Gb - c'b + lam sum w|b|.

    The coordinates are updated on Python floats, which round exactly as
    numpy scalars do; only the residual update r -= G[:, j] * step is a
    vector operation.
    """
    b0 = np.asarray(b0, dtype=float)
    b = b0.tolist()
    r = c - G @ b0
    r_at = r.item
    cols = list(G.T)                    # cols[j] is the column G[:, j]
    diag = np.diag(G).tolist()
    thr = (lam * np.asarray(weights, dtype=float)).tolist()
    for _ in range(sweeps):
        delta = 0.0
        for j, old in enumerate(b):
            x = r_at(j) + diag[j] * old
            a = abs(x) - thr[j]
            bj = ((a if x > 0.0 else -a) if a > 0.0 else 0.0) / diag[j]
            if bj != old:
                r -= cols[j] * (bj - old)
                b[j] = bj
                delta = max(delta, abs(bj - old))
        if delta < tol:
            break
    return np.array(b)


def l1_kkt_residual(G, c, b, lam, weights) -> float:
    """Largest violated subgradient condition of the L1 surrogate problem."""
    grad = G @ b - c
    thr = lam * np.asarray(weights, dtype=float)
    res = np.where(b != 0.0, np.abs(grad + thr * np.sign(b)),
                   np.maximum(np.abs(grad) - thr, 0.0))
    return float(np.max(res, initial=0.0))


def alasso_weights(beta_tilde, psi: float = 1.0) -> np.ndarray:
    """Adaptive-LASSO weights 1/|beta_tilde|^psi, capped against underflow."""
    return np.minimum(1.0 / np.abs(np.asarray(beta_tilde, dtype=float)) ** psi,
                      _WEIGHT_CAP)


def _solve(ev, beta_init, lam, cfg, weights=None):
    """The surrogate loop: BAR ridge steps when ``weights`` is None, starting
    with the coordinates below the zero threshold frozen; weighted L1
    coordinate descent on (X'X, X'W) from ``beta_init`` as given otherwise."""
    thr = cfg.zero_threshold
    if weights is None:
        beta = np.where(np.abs(beta_init) >= thr, beta_init, 0.0)
    else:
        beta = np.asarray(beta_init, dtype=float).copy()
    converged, n_iter, jitter = False, 0, 0.0
    for n_iter in range(1, cfg.max_iter + 1):
        # looked up on this module per call, so wrappers set there see each
        pseudo = pseudo_data(beta, ev.gradient(beta), ev.hessian(beta))
        jitter = max(jitter, pseudo.jitter)
        if weights is None:
            beta_new = bar_step(beta, pseudo, lam, thr)
        else:
            beta_new = _coordinate_descent(pseudo.X.T @ pseudo.X, pseudo.X.T @ pseudo.W,
                                           beta, lam, weights)
        delta = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta = beta_new
        if delta < cfg.tol:
            converged = True
            break
    beta = np.where(np.abs(beta) >= thr, beta, 0.0)
    support = np.flatnonzero(beta != 0.0)
    # at the fixed point the adaptive ridge penalty equals lam * support size
    penalty = support.size if weights is None else float(weights @ np.abs(beta))
    return PenalizedEstimate(beta_hat=beta, support=support, lam=float(lam),
                             n_iter=n_iter, objective=-ev.loglik(beta) + lam * penalty,
                             converged=converged, jitter=jitter)


def bar_solve(data: Dataset, nu_tilde, lam: float, cfg: PenaltyConfig = PenaltyConfig(),
              quad: QuadratureRule = DEFAULT_QUADRATURE, beta_init=None,
              truncation: str = "calendar") -> PenalizedEstimate:
    """Iterate BAR updates from the unpenalized estimate until the iterates
    stabilize; nuisance parameters stay fixed at ``nu_tilde``'s values."""
    ev = BetaLikelihood(data, nu_tilde.params.nuisance, quad, truncation)
    start = nu_tilde.params.beta.stacked if beta_init is None else beta_init
    return _solve(ev, start, lam, cfg)


def l1_solve(data: Dataset, nu_tilde, lam: float, cfg: PenaltyConfig = PenaltyConfig(kind="lasso"),
             weights=None, quad: QuadratureRule = DEFAULT_QUADRATURE,
             beta_init=None, truncation: str = "calendar") -> PenalizedEstimate:
    """LASSO/ALASSO on the surrogate by cyclic coordinate descent.

    ``weights`` defaults to all ones (LASSO); pass ``alasso_weights`` of the
    unpenalized coefficients for the adaptive variant.
    """
    ev = BetaLikelihood(data, nu_tilde.params.nuisance, quad, truncation)
    start = nu_tilde.params.beta.stacked if beta_init is None else beta_init
    weights = np.ones(ev.p) if weights is None else np.asarray(weights, dtype=float)
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


def gcv_select(data: Dataset, nu_tilde, cfg: PenaltyConfig = PenaltyConfig(),
               quad: QuadratureRule = DEFAULT_QUADRATURE,
               truncation: str = "calendar") -> GcvResult:
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
    ev = BetaLikelihood(data, nu_tilde.params.nuisance, quad, truncation)
    beta_tilde = nu_tilde.params.beta.stacked
    weights = None                      # BAR
    if cfg.kind == "alasso":
        weights = alasso_weights(beta_tilde)
    elif cfg.kind == "lasso":
        weights = np.ones(ev.p)

    path, table = [], []
    best = None
    beta_start = beta_tilde
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
