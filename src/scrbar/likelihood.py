"""Marginal log-likelihood for the gamma-frailty illness-death model.

With frailty w ~ Gamma(1/gamma, 1/gamma) (mean 1, variance gamma) shared
across the three transition hazards, the per-subject integral over w is
available in closed form.  Exposure to the initial-state hazards ends at
the first observed time y1, so with

    e1 = [Lambda01(y1) - Lambda01(l)] exp(b1'z1)
    e2 = [Lambda02(y1) - Lambda02(l)] exp(b2'z2)
    e3 = delta1 * Lambda03(y2 - y1) exp(b3'z3)
    S  = e1 + e2 + e3

the marginal contribution of a subject is

    delta1 * [log lam01(y1) + b1'z1]
    + (1-delta1) delta2 * [log lam02(y2) + b2'z2]
    + delta1 delta2 * [log lam03(y2-y1) + b3'z3 + log(1+gamma)]
    - (1/gamma + delta1 + delta2) * log(1 + gamma * S),

which follows from E[w^k exp(-wS)] = Gamma(1/gamma+k)/Gamma(1/gamma)
* gamma^k * (1+gamma*S)^(-1/gamma-k) with k = delta1 + delta2 event
factors.  ``_Core`` holds this closed form once; ``BetaLikelihood``
evaluates it in beta at a frozen nuisance and the unpenalized fit over
all parameters.  ``frailty_integral_oracle`` integrates the conditional
likelihood against the gamma density numerically and is the ground truth
the closed form is tested against.

Left truncation conditions on survival to the entry time l, hence the
Lambda(l) terms; this calendar adjustment is the only convention.  When
no subject is truncated (l = 0 throughout) the entry terms are skipped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._compiled import dpotrf as _dpotrf, dtrtrs as _dtrtrs
from .baselines import _col_logsumexp, cumulative_hazard, log_cumulative_hazard
from .domain import Dataset, ModelParameters, SubjectRecord

__all__ = [
    "RiskTerms",
    "PseudoData",
    "DegenerateRecordError",
    "BetaLikelihood",
    "risk_terms",
    "log_likelihood",
    "frailty_integral_oracle",
    "pseudo_data",
]


# diagonal jitter tried in turn by ``pseudo_data`` when -H is not positive
# definite: none, then 1e-10 * 2^k for k = 0..20
_JITTERS = (0.0,) + tuple(1e-10 * 2.0**k for k in range(21))


class DegenerateRecordError(ValueError):
    """A record whose likelihood contribution is identically zero
    (delta1 = delta2 = 1 with zero sojourn forces log lam03(0) -> -inf)."""


@dataclass(frozen=True)
class RiskTerms:
    """Cumulative-risk factors of one subject: g1 for the sojourn hazard,
    g2 for the two initial-state hazards."""

    g1: float
    g2: float


@dataclass(frozen=True)
class PseudoData:
    """Cholesky pseudo-design X (upper triangular, X'X = -H) and pseudo
    response W with X'W = -H b + u, so the least-squares surrogate
    0.5 ||W - X b||^2 has the same gradient and curvature as -loglik at b.

    G = X'X and c = X'W are the normal equations of that surrogate, the
    system the penalized steps solve.  ``pseudo_data`` forms them before it
    factors, G = -H plus any jitter and c = G b + u, and hands them over.
    """

    X: np.ndarray
    W: np.ndarray
    G: np.ndarray
    c: np.ndarray
    jitter: float = 0.0


def _check_beta(beta, p):
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (p,):
        raise ValueError(f"expected stacked coefficient vector of length {p}")
    if not np.isfinite(beta).all():
        raise ValueError("non-finite regression coefficient")
    return beta


class _Core:
    """Per-record columns of a dataset and the frailty closed form over them.

    The log cumulative-hazard bases and event log-hazards are supplied by
    the caller, so the same core serves a frozen nuisance
    (``BetaLikelihood``) and a moving one (the unpenalized fit).
    """

    def __init__(self, data: Dataset):
        arr = data.arrays()
        self.dims, self.p, self.n = data.dims, data.p, len(data)
        self.offs = np.concatenate([[0], np.cumsum(self.dims)])
        # the coefficients of transition k are beta[slices[k]]
        self.slices = tuple(slice(a, b) for a, b in zip(self.offs[:-1].tolist(),
                                                        self.offs[1:].tolist()))
        self.Z = (arr["Z1"], arr["Z2"], arr["Z3"])
        # the concatenated design and the transition of each of its columns
        self.Zcat = np.hstack(self.Z)
        self.transition = np.repeat(np.arange(3), self.dims)
        l, y1, d1, y2, d2 = (arr[k] for k in ("l", "y1", "delta1", "y2", "delta2"))
        self.delta = (d1, d2)
        # (3, n): row k weighs the event term of transition k
        self.event_weight = np.array([d1, (1.0 - d1) * d2, d1 * d2])
        self.n_both = self.event_weight[2].sum()
        self.ev_mask = tuple(w == 1.0 for w in self.event_weight)
        self.sojourn = np.where(d1 == 1.0, y2 - y1, 0.0)
        bad = self.ev_mask[2] & (self.sojourn <= 0.0)
        if bad.any():
            raise DegenerateRecordError(
                f"zero sojourn with both events observed at index {int(np.argmax(bad))}")
        self.ev_times = (y1[self.ev_mask[0]], y2[self.ev_mask[1]],
                         self.sojourn[self.ev_mask[2]])
        # exposure: transitions 1-2 integrate [0, y1] less the cumulative
        # hazard at the entry time l, skipped when no subject is truncated;
        # at_risk12 is the time from entry to y1
        self.at_risk12 = y1 - l
        self.entry = l if l.any() else None
        self.interval = (y1, y1, self.sojourn)
        self._block_key = self._block_index = None

    def frailty(self, log_gamma):
        """(log gamma, gamma, c) with c = 1/gamma + delta1 + delta2 per
        record: the frailty constants of a ``_Point``."""
        gamma = np.exp(log_gamma)
        return log_gamma, gamma, 1.0 / gamma + self.delta[0] + self.delta[1]

    @staticmethod
    def log_bases(log_t, log_ratio):
        """Per-transition log bases from log Lambda_j over ``interval`` and
        log R_j = log[Lambda_j(l) / Lambda_j(t)] (None: no entry adjustment).

        log[Lambda(t) - Lambda(l)] = log Lambda(t) + log1p(-R); the ratios R
        are returned too (None where unadjusted) for the chain rule.
        """
        lb, ratio = [], []
        for lt, lr in zip(log_t, log_ratio):
            R = None if lr is None else np.exp(np.minimum(lr, 0.0))
            lb.append(lt if R is None else lt + np.log1p(-R))
            ratio.append(R)
        return lb, ratio

    @functools.cached_property
    def gram(self):
        """The per-record covariate products of ``_Point.hessian``'s Gram
        route, or None when the transitions' covariate matrices differ.

        P holds the upper triangle of z_i z_i' for each record, an
        (n, d(d+1)/2) array; ``index[a, b]`` is where entry (a, b) of the
        beta Hessian sits in the flattened (6, d(d+1)/2) product D @ P, whose
        rows are the transition pairs (1,1), (2,2), (3,3), (1,2), (1,3),
        (2,3).  Built on first use, so a fit never builds it.
        """
        Z1, Z2, Z3 = self.Z
        if not (np.array_equal(Z1, Z2) and np.array_equal(Z1, Z3)):
            return None
        d = Z1.shape[1]
        iu, ju = np.triu_indices(d)
        P = Z1[:, iu] * Z1[:, ju]
        tri = np.empty((d, d), dtype=np.intp)
        tri[iu, ju] = tri[ju, iu] = np.arange(iu.size)
        pair = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
        k, loc = self.transition, np.tile(np.arange(d), 3)
        return P, pair[k[:, None], k] * iu.size + tri[loc[:, None], loc]

    def gram_block(self, idx):
        """``gram``'s index map on the sorted coordinates ``idx``, kept for
        the last ``idx`` only: BAR's nonzero block changes a few dozen times
        along a path, not at every refresh."""
        idx = np.asarray(idx, dtype=np.intp)
        key = idx.tobytes()
        if key != self._block_key:
            self._block_key, self._block_index = key, self.gram[1][idx][:, idx]
        return self._block_index

    def grad_beta(self, w) -> np.ndarray:
        """The log-likelihood gradient in beta from the shrink weights as
        (3, n) rows."""
        r = self.event_weight - w
        g = np.empty(self.p)
        for k, sl in enumerate(self.slices):
            self.Z[k].T.dot(r[k], out=g[sl])
        return g


class _Point:
    """The closed form at stacked coefficients ``beta`` with the frailty
    constants ``frailty`` of ``_Core.frailty`` over log bases ``lb`` (three
    rows); the log-likelihood, shrink weights, beta Hessian and log-gamma
    derivative are computed on request, the shrink weights, the Gram product
    and the full Hessian once."""

    def __init__(self, core: _Core, beta, frailty, lb):
        self.core = core
        self.log_gamma, self.gamma, self.c = frailty
        self._w = self._H = self._DP = None
        self.lp = np.empty((3, core.n))                     # b_k'z_k per record
        # ndarray.dot makes the BLAS call of ``@`` with less dispatch
        for k, sl in enumerate(core.slices):
            core.Z[k].dot(beta[sl], out=self.lp[k])
        self.loge = np.add(lb, self.lp)                     # (3, n)
        self.logS = _col_logsumexp(self.loge)
        L1 = np.add(self.log_gamma, self.logS)
        self.L1 = np.logaddexp(0.0, L1, out=L1)             # log(1 + gamma S)

    def loglik(self, ev) -> float:
        """Log-likelihood given the per-transition event log-hazard sums."""
        ew = self.core.event_weight
        value = -float(self.c @ self.L1)
        value += float(np.log1p(self.gamma) * self.core.n_both)
        for k in range(3):
            value += float(ew[k] @ self.lp[k])
            value += ev[k]
        return value

    def shrink_weights(self) -> np.ndarray:
        """w_k = c gamma e_k / (1 + gamma S), per transition and record (3 x n)."""
        if self._w is None:
            w = np.add(self.log_gamma, self.loge)
            w -= self.L1
            w = np.exp(w, out=w)
            w *= self.c
            self._w = w
        return self._w

    def hessian(self, idx=None) -> np.ndarray:
        """The log-likelihood Hessian in beta, or its block on the sorted
        coordinates ``idx``; the full matrix (idx None) is built once.

        With w the shrink weights, the (k, l) transition block is
        Z_k' diag(D_kl) Z_l with D_kk = w_k^2 / c - w_k and
        D_kl = w_k w_l / c.  Two routes build it, both exactly symmetric:

        - Gram: when the three transitions share one covariate matrix Z
          (every simulated dataset, the shared ``z_*`` CSV schema), every
          block is Z' diag(D) Z, so H is one (6, n) @ (n, d(d+1)/2) product
          of the six D rows with ``_Core.gram``'s per-record products,
          gathered through its index map; a pair (a, b), (b, a) reads one
          entry.  The product is kept, so every block at this beta is a
          gather.  The table costs n d(d+1)/2 doubles, built once per core.
        - V/U: otherwise (per-transition covariates), H = V'V - M o U'U
          with V = Z (w / sqrt c) and U = Z sqrt(w) column by column on
          the concatenated design and M the same-transition mask; both
          products are A'A of a C-ordered A.
        """
        if idx is None and self._H is not None:
            return self._H
        core = self.core
        gram = core.gram
        w = self.shrink_weights()
        if gram is not None:
            if self._DP is None:
                q = w / self.c
                D = np.empty((6, core.n))
                np.subtract(q, 1.0, out=D[:3])
                D[:3] *= w
                np.multiply(q[0], w[1], out=D[3])
                np.multiply(q[0], w[2], out=D[4])
                np.multiply(q[1], w[2], out=D[5])
                self._DP = (D @ gram[0]).ravel()
            if idx is None or len(idx) == core.p:
                H = self._DP.take(gram[1])
            else:
                H = self._DP.take(core.gram_block(idx))
        else:
            Z, k = core.Zcat, core.transition
            if idx is not None:
                Z, k = Z[:, idx], k[idx]
            V = np.multiply(Z, (w / np.sqrt(self.c))[k].T, order="C")
            U = np.multiply(Z, np.sqrt(w)[k].T, order="C")
            H = V.T @ V - np.where(k[:, None] == k, U.T @ U, 0.0)
        if idx is None:
            self._H = H
        return H

    def dlog_gamma(self) -> float:
        gamma, ew3 = self.gamma, self.core.event_weight[2]
        Q = np.exp(self.log_gamma + self.logS - self.L1)       # gamma S / (1 + gamma S)
        return float(np.sum(gamma * ew3 / (1.0 + gamma) + self.L1 / gamma - self.c * Q))


class BetaLikelihood:
    """Log-likelihood, gradient, and Hessian in beta at fixed nuisance.

    The log cumulative-hazard bases and the frailty constants depend only on
    the nuisance block, so they are computed once at construction;
    evaluations in beta are then cheap vectorized closed forms.  All
    internals stay in log space to keep exp(b'z) overflow out of the
    picture.  The closed form at the last beta is kept, so a gradient and a
    Hessian at the same beta build it once; the Hessian is built once per
    beta too and handed out as a copy, which the caller may write into.
    """

    def __init__(self, data: Dataset, nuisance):
        core = self.core = _Core(data)
        self.dims, self.p, self.n = core.dims, core.p, core.n
        self.frailty = core.frailty(np.log(nuisance.gamma))
        spec = nuisance.baseline
        log_t = [log_cumulative_hazard(core.interval[j], spec, j + 1)
                 for j in range(3)]
        log_ratio = [None, None, None]
        if core.entry is not None:
            log_ratio[:2] = [log_cumulative_hazard(core.entry, spec, j + 1) - log_t[j]
                             for j in range(2)]
        self.log_base = np.array(core.log_bases(log_t, log_ratio)[0])     # (3, n)
        self.ev = [float(np.sum(spec.log_hazard(core.ev_times[j], j + 1)))
                   for j in range(3)]
        self._key = self._point = None

    def _at(self, beta) -> _Point:
        beta = np.asarray(beta, dtype=float)
        # keyed on a byte copy of beta, so a caller mutating its array in
        # place cannot get a stale point; a beta with the cached bytes and
        # shape is the one already checked
        key = beta.tobytes()
        if key != self._key or beta.shape != (self.p,):
            beta = _check_beta(beta, self.p)
            self._key, self._point = key, _Point(self.core, beta, self.frailty,
                                                 self.log_base)
        return self._point

    def loglik(self, beta) -> float:
        return self._at(beta).loglik(self.ev)

    def gradient(self, beta) -> np.ndarray:
        return self.core.grad_beta(self._at(beta).shrink_weights())

    def hessian(self, beta, idx=None) -> np.ndarray:
        """The Hessian in beta, or its block on the sorted coordinates
        ``idx`` (an integer array); always a fresh array."""
        H = self._at(beta).hessian(idx)
        return H.copy() if idx is None else H


def risk_terms(rec: SubjectRecord, params: ModelParameters) -> RiskTerms:
    """Cumulative-risk factors g1, g2 of one subject.

    g1 = Lambda03(y2-y1) exp(b3'z3) when the non-terminal event was
    observed (0 otherwise); g2 sums the transition-1 and -2 cumulative
    hazards over the truncated initial-state window, which ends at y1.
    """
    spec = params.nuisance.baseline
    b = params.beta
    if rec.delta1 == 1:
        g1 = cumulative_hazard(rec.y2 - rec.y1, spec, 3) * np.exp(b.beta3 @ rec.z3)
    else:
        g1 = 0.0
    L1 = cumulative_hazard(rec.y1, spec, 1) - cumulative_hazard(rec.l, spec, 1)
    L2 = cumulative_hazard(rec.y1, spec, 2) - cumulative_hazard(rec.l, spec, 2)
    g2 = L1 * np.exp(b.beta1 @ rec.z1) + L2 * np.exp(b.beta2 @ rec.z2)
    return RiskTerms(g1=float(g1), g2=float(g2))


def log_likelihood(params: ModelParameters, data: Dataset, quad=None,
                   truncation: str = "calendar") -> float:
    """Frailty-marginalized log-likelihood of the dataset."""
    # both keywords stay for perfbench/workloads.py::fit_problems
    if quad is not None:
        raise ValueError(f"Bernstein quadrature is fixed at 32 points, got {quad!r}")
    if truncation != "calendar":
        raise ValueError(f"unknown truncation convention {truncation!r}")
    ev = BetaLikelihood(data, params.nuisance)
    return ev.loglik(params.beta.stacked)


def frailty_integral_oracle(params: ModelParameters, rec: SubjectRecord) -> float:
    """Marginal likelihood of one record by adaptive quadrature over the
    frailty, bypassing the closed-form gamma integral entirely.

    Integrates  w^(delta1+delta2) * exp(-w S) * gamma-pdf(w)  to a relative
    tolerance of 1e-11 and multiplies by the w-free event-hazard factors.
    Serves as ground truth for ``log_likelihood``.
    """
    gamma = params.nuisance.gamma
    spec = params.nuisance.baseline
    b = params.beta
    rt = risk_terms(rec, params)
    S = rt.g1 + rt.g2
    k = rec.delta1 + rec.delta2

    log_a = 0.0
    if rec.delta1 == 1:
        log_a += float(spec.log_hazard(np.array([rec.y1]), 1)[0])
        log_a += float(b.beta1 @ rec.z1)
    if rec.delta1 == 0 and rec.delta2 == 1:
        log_a += float(spec.log_hazard(np.array([rec.y2]), 2)[0])
        log_a += float(b.beta2 @ rec.z2)
    if rec.delta1 == 1 and rec.delta2 == 1:
        soj = rec.y2 - rec.y1
        if soj <= 0:
            raise DegenerateRecordError("zero sojourn with both events observed")
        log_a += float(spec.log_hazard(np.array([soj]), 3)[0])
        log_a += float(b.beta3 @ rec.z3)

    # imported on first use: this oracle is their only user; scipy.stats
    # with the package nearly doubled the time and added ~19 MB to the
    # memory of `import scrbar.cli`, scipy.integrate added about 46 ms
    import scipy.integrate
    import scipy.stats
    dist = scipy.stats.gamma(a=1.0 / gamma, scale=gamma)

    # integrate on the log-frailty scale, where the integrand (including
    # the Jacobian) is smooth and log-concave even when the gamma density
    # is singular at the origin
    def log_integrand(u):
        w = np.exp(u)
        return (k + 1.0) * u - w * S + dist.logpdf(w)

    mode = max(gamma * (1.0 / gamma + k) / (1.0 + gamma * S), 1e-290)
    probe = np.concatenate([np.linspace(-600.0, 10.0, 4001), [np.log(mode)]])
    hvals = log_integrand(probe)
    hmax = float(np.max(hvals))
    u_mode = float(probe[np.argmax(hvals)])
    keep = hvals > hmax - 745.0
    ulo = float(probe[keep].min()) - 1.0
    uhi = min(float(probe[keep].max()) + 1.0, 700.0)

    val, _ = scipy.integrate.quad(
        lambda u: np.exp(log_integrand(u) - hmax), ulo, uhi,
        points=[u_mode], limit=500, epsabs=0.0, epsrel=1e-11)
    if val <= 0:
        raise ArithmeticError("frailty quadrature lost all mass")
    return float(np.exp(hmax + np.log(val) + log_a))


def pseudo_data(beta, u, H) -> PseudoData:
    """Cholesky pseudo-design and pseudo-response from a gradient/Hessian pair.

    Factorizes J = -H as X'X (X upper triangular) and solves X'W = J beta + u
    so that argmin_b 0.5 ||W - X b||^2 is the Newton step beta + J^{-1} u.
    When -H is not positive definite, the diagonal jitter of ``_JITTERS`` is
    tried in turn before giving up; the jitter actually used is reported on
    the result.  The result also carries the normal equations it formed,
    G = J + jitter I and c = G beta + u, which the penalized steps solve;
    the factorization is their positive-definiteness test.

    LAPACK's dpotrf and dtrtrs are called directly, with the arguments that
    ``scipy.linalg.cholesky`` and ``solve_triangular`` pass them, so X and W
    are theirs bit for bit without their validation cost; their checks are
    made here: a non-finite H, beta or gradient raises ValueError.  An empty
    block (BAR's once every coefficient is 0) is answered without LAPACK,
    which rejects it.
    """
    beta = np.asarray(beta, dtype=float)
    J = -np.asarray(H, dtype=float)
    p = len(beta)
    if J.shape != (p, p):
        raise ValueError(f"expected a {p} x {p} Hessian, got shape {J.shape}")
    if p == 0:
        return PseudoData(X=np.empty((0, 0)), W=np.empty(0), G=np.empty((0, 0)), c=np.empty(0))
    u = np.asarray(u, dtype=float)
    for jit in _JITTERS:
        A = J + jit * np.eye(p) if jit else J
        if not np.isfinite(A).all():
            raise ValueError("non-finite Hessian")
        X, info = _dpotrf(A, lower=0, clean=1)
        if info > 0:                    # not positive definite
            continue
        rhs = A.dot(beta)
        rhs += u
        if not np.isfinite(rhs).all():
            raise ValueError("non-finite coefficient or gradient")
        W, info_trtrs = _dtrtrs(X, rhs, lower=0, trans=1)
        if info or info_trtrs:
            raise np.linalg.LinAlgError(
                f"LAPACK failed: dpotrf info {info}, dtrtrs info {info_trtrs}")
        return PseudoData(X=X, W=W, jitter=jit, G=A, c=rhs)
    raise np.linalg.LinAlgError(
        f"-H not positive definite even with jitter {_JITTERS[-1]:.3g}")
