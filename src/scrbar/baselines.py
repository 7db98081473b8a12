"""Transition-specific baseline hazards.

Two specifications are supported: a parametric Weibull family with
hazard ``alpha * tau * t**(alpha - 1)`` per transition, and a
semiparametric sieve in which the log baseline hazard is a Bernstein
polynomial on a bounded support.  Weibull cumulative hazards are closed
form; Bernstein cumulative hazards are integrated with one rule, 32-point
Gauss-Legendre quadrature (the integrand exp(polynomial) is smooth).

Each baseline set evaluates itself: ``log_hazard(t, j)`` and
``log_cumhaz(t, j)`` are methods of ``WeibullBaselineSet`` and
``BernsteinBaselineSet``, so a spec's class decides its kind.  The free
functions ``cumulative_hazard`` and ``log_cumulative_hazard`` are entry
points to ``log_cumhaz``.

The quadrature table ``_BernsteinTable`` evaluates each distinct time once
and gathers the answers back to the times asked for.  It is node-major: its
log terms form a (32, N) array with one row per node and one column per
distinct time, and a fit stacks the blocks of all its transitions (and
entry times) side by side in that one array.  The log-sum-exp and softmax
over the nodes (``_col_logsumexp``, ``_col_softmax``) then run once per
evaluation as elementwise passes over its rows.  Their sums add in NumPy's
pairwise order for a 32-term row (``_col_sum``), so the answers are those
of a time-major table, one row of 32 per time, bit for bit.  The
likelihood's frailty closed form uses the log-sum-exp on its (3, n) terms,
where a three-term path gives the same bits at two ``exp`` per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb

import numpy as np

__all__ = [
    "WeibullBaselineSet",
    "BernsteinBaselineSet",
    "bernstein_basis_matrix",
    "weibull_inverse_cumhaz",
    "cumulative_hazard",
    "log_cumulative_hazard",
]

# Relative slack beyond a Bernstein support's upper end absorbed as float
# noise before declaring a domain error.
_SUPPORT_SLACK = 1e-9


@dataclass(frozen=True)
class WeibullBaselineSet:
    """Log-scale Weibull parameters (shape alpha_k, rate tau_k), k = 1,2,3.

    Parameters live on the log scale so the positivity constraint never
    enters the optimizer.
    """

    log_alpha: np.ndarray
    log_tau: np.ndarray

    def __post_init__(self):
        la = np.asarray(self.log_alpha, dtype=float)
        lt = np.asarray(self.log_tau, dtype=float)
        if la.shape != (3,) or lt.shape != (3,):
            raise ValueError("expected three (log_alpha, log_tau) pairs")
        if not (np.isfinite(la).all() and np.isfinite(lt).all()):
            raise ValueError("non-finite Weibull parameter")
        la.flags.writeable = False
        lt.flags.writeable = False
        object.__setattr__(self, "log_alpha", la)
        object.__setattr__(self, "log_tau", lt)

    @property
    def alpha(self) -> np.ndarray:
        return np.exp(self.log_alpha)

    @property
    def tau(self) -> np.ndarray:
        return np.exp(self.log_tau)

    def log_hazard(self, t, j: int):
        """log alpha_j + log tau_j + (alpha_j - 1) log t at times t > 0
        (transition j, 1-based)."""
        a = self.alpha[j - 1]
        return self.log_alpha[j - 1] + self.log_tau[j - 1] + (a - 1.0) * np.log(t)

    def log_cumhaz(self, t, j: int):
        """log tau_j + alpha_j log t at times t >= 0, -inf at t = 0, in
        closed form."""
        if np.any(np.less(t, 0)):
            raise ValueError("negative time in log_cumulative_hazard")
        with np.errstate(divide="ignore"):
            return self.log_tau[j - 1] + self.alpha[j - 1] * np.log(t)


@dataclass(frozen=True)
class BernsteinBaselineSet:
    """Bernstein log-hazard coefficients per transition.

    ``coeffs[j]`` has length ``degrees[j] + 1``; ``supports[j]`` is the
    (c_j, u_j) interval on which transition j+1's hazard is defined.
    """

    degrees: tuple
    coeffs: tuple
    supports: tuple

    def __init__(self, degrees, coeffs, supports):
        degrees = tuple(int(m) for m in degrees)
        coeffs = tuple(np.array(c, dtype=float) for c in coeffs)
        supports = tuple((float(c), float(u)) for c, u in supports)
        if not (len(degrees) == len(coeffs) == len(supports) == 3):
            raise ValueError("expected three transitions")
        for m, phi, (c, u) in zip(degrees, coeffs, supports):
            if m < 0:
                raise ValueError("degree must be nonnegative")
            if phi.shape != (m + 1,):
                raise ValueError(f"degree {m} needs {m + 1} coefficients, got {phi.shape}")
            if not np.isfinite(phi).all():
                raise ValueError("non-finite Bernstein coefficient")
            if not (np.isfinite(c) and np.isfinite(u) and u > c):
                raise ValueError(f"bad support ({c}, {u})")
        for c in coeffs:
            c.flags.writeable = False
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "supports", supports)

    def log_hazard(self, t, j: int):
        """The Bernstein polynomial of transition j (1-based) at times t in
        its support, as an array."""
        c, u = self.supports[j - 1]
        return bernstein_basis_matrix(t, self.degrees[j - 1], c, u) @ self.coeffs[j - 1]

    def log_cumhaz(self, t, j: int):
        """log Lambda_j at times t in [0, u_j] by 32-point Gauss-Legendre
        quadrature, as an array."""
        table = _BernsteinTable([(t, self.degrees[j - 1], self.supports[j - 1])])
        return table.log_cumhaz(table.scores(self.coeffs[j - 1]))


def _rescale(t, c, u):
    """Map t in [c, u] to s in [0, 1]; clamp float noise just above u."""
    t = np.asarray(t, dtype=float)
    span = u - c
    slack = _SUPPORT_SLACK * max(abs(u), 1.0)
    if np.any(t < c - slack) or np.any(t > u + slack):
        raise ValueError(f"t outside Bernstein support [{c}, {u}]")
    return np.clip((t - c) / span, 0.0, 1.0)


def bernstein_basis_matrix(t, m: int, c: float, u: float) -> np.ndarray:
    """All m+1 basis values at each t: shape (len(t), m+1)."""
    s = np.atleast_1d(_rescale(t, c, u))
    ks = np.arange(m + 1)
    combs = np.array([comb(m, k) for k in ks], dtype=float)
    return combs * s[:, None] ** ks * (1.0 - s[:, None]) ** (m - ks)


def weibull_inverse_cumhaz(x, alpha: float, tau: float):
    """Solve tau * t**alpha = x for t (x >= 0)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("negative argument in weibull_inverse_cumhaz")
    val = (x / tau) ** (1.0 / alpha)
    return val if val.ndim else float(val)


def _col_sum(x):
    """Column sums of a (k, n) array x, k <= 128, equal bit for bit to the
    row sums ``y.sum(axis=1)`` of its transpose y stored in C order.

    NumPy adds a contiguous row of fewer than 8 terms in order, and a row of
    8 to 128 terms pairwise: eight running sums r = x[0:8] + x[8:16] + ...
    over whole blocks of 8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7)), then the rest in order.  Here every step is an elementwise
    pass over whole rows of x, which is much faster than reducing n short
    rows.  (``x.T.sum(axis=1)`` on the strided view adds in order instead.)
    """
    k = len(x)
    if k < 8:
        return x.sum(axis=0)        # adds the rows in order
    whole = k - k % 8
    r = x[0:8].copy()
    for i in range(8, whole, 8):
        r += x[i:i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    r = r[0] + r[1]
    for i in range(whole, k):
        r += x[i]
    return r


def _col_shift(a):
    """Column maxima of a (k, n) array and exp(a - max): the step that the
    column-wise log-sum-exp and softmax below share."""
    mx = a.max(axis=0)
    with np.errstate(invalid="ignore"):         # columns that are all -inf
        return mx, np.exp(a - mx)


def _col_logsumexp(a, shift=None):
    """log sum_q exp(a[q, i]) per column of a C-ordered (k, n) array, from
    ``_col_shift(a)`` when given.

    Follows the arithmetic of ``scipy.special.logsumexp(y, axis=1)`` (SciPy
    1.17) on the transpose y of a stored in C order step for step, and sums
    in its order (``_col_sum``), so the two agree bit for bit: the m entries
    equal to the column maximum are left out of the sum s of the shifted
    exponentials, s is divided by m, and the result is
    log1p(s) + log(m) + max.

    A (3, n) array without a shift, the frailty closed form's terms, takes
    a three-term path: where a column has one maximum, m = 1 and s is the
    sum of the other two shifted exponentials, a single addition that is
    exact in either order, so log1p(exp(mid - max) + exp(min - max)) + max
    is the general result bit for bit at two ``exp`` per column.  Columns
    with a tied maximum (all -inf ones included) go to the general kernel.
    """
    if shift is None and len(a) == 3:
        a0, a1, a2 = a
        hi, lo = np.maximum(a0, a1), np.minimum(a0, a1)
        mx = np.maximum(hi, a2)
        mid = np.maximum(lo, np.minimum(hi, a2))
        one = mx > mid                  # columns with one maximum
        if not one.all():
            out = np.empty(a.shape[1])
            out[one] = _col_logsumexp(a[:, one])
            tied = a[:, ~one]
            out[~one] = _col_logsumexp(tied, _col_shift(tied))
            return out
        s = np.minimum(lo, a2, out=lo)
        s -= mx
        mid -= mx
        s = np.exp(s, out=s)
        s += np.exp(mid, out=mid)
        s = np.log1p(s, out=s)
        s += mx
        return s
    mx, e = _col_shift(a) if shift is None else shift
    hit = a == mx
    m = hit.sum(axis=0, dtype=float)
    s = e.copy()
    np.copyto(s, 0.0, where=hit)        # faster than np.where on (32, n)
    s = _col_sum(s)
    s = np.where(s != 0.0, s / m, s)
    return np.log1p(s) + np.log(m) + mx


def _col_softmax(e):
    """Column-wise softmax from the shifted exponentials of ``_col_shift``:
    scipy.special.softmax's formula, summed in its order."""
    return e / _col_sum(e)


@cache
def _gauss_legendre():
    """32-point Gauss-Legendre nodes and log weights on [-1, 1], the one rule
    for Bernstein cumulative hazards; built on first use, since its eigenvalue
    solve adds ~0.8 MB resident to a run that never needs it."""
    x, w = np.polynomial.legendre.leggauss(32)
    return x, np.log(w)


class _BernsteinTable:
    """Gauss-Legendre layout of Bernstein cumulative hazards at fixed times.

    Lambda(t) = t/2 * sum_q w_q exp(B(u_q) phi) with nodes u_q = t/2 (x_q + 1).
    With the times fixed the basis values at every node are constants, so
    only the coefficient vector phi moves between evaluations.

    ``_BernsteinTable(blocks)`` holds the (t, m, support) blocks side by
    side, in that order, each with its own times, degree, support and
    coefficients; a one-shot evaluation is a table of one block.  Each block
    evaluates its distinct times once: ``log_cumhaz`` and ``dlog_cumhaz``
    gather the answers back to the block's times through ``np.unique``'s
    inverse, and skip the gather when every time is distinct.  A block of
    sojourn times that are mostly 0 is then a few columns wide.

    The layout is node-major: row q n + i of a block's basis ``B[k]``, shape
    (32 n, m+1), is the basis at node q of its distinct time i, so
    ``B[k] @ phi`` is the same row-by-row dgemv as on a time-major table and
    reshapes to (32, n), one row per node.  ``scores`` writes every block's
    rows into one (32, N) array, so each reduction over the nodes is one
    elementwise pass over 32 rows of N for all blocks at once instead of a
    reduction of N rows of 32.  The sums add in NumPy's pairwise order for a
    32-term row (``_col_sum``), so log Lambda and its derivative are bit for
    bit those of a time-major table, one per block.  ``BT[k]`` holds a
    block's basis once more as (m+1, 32, n) for the derivative's
    contraction, built on first use.
    """

    def __init__(self, blocks):
        x, self.log_w = _gauss_legendre()
        self.B, self.inverse, self.cols, half_t = [], [], [], []
        start = 0
        for t, m, (c, u) in blocks:
            t = np.atleast_1d(np.asarray(t, dtype=float))
            if c > 0:
                raise ValueError("Bernstein cumulative hazard needs support starting at 0")
            if np.any(t < 0):
                raise ValueError("negative time in cumulative_hazard")
            _rescale(t, c, u)  # domain check incl. upper-end slack
            times, inverse = np.unique(t, return_inverse=True)
            if times.size == t.size:
                times, inverse = t, None
            nodes = np.minimum(0.5 * times * (x[:, None] + 1.0), u)
            self.B.append(bernstein_basis_matrix(nodes.ravel(), m, c, u))
            self.inverse.append(inverse)
            self.cols.append(slice(start, start + times.size))
            start += times.size
            half_t.append(0.5 * times)
        self.BT = [None] * len(blocks)
        with np.errstate(divide="ignore"):
            self.log_half_t = np.log(np.concatenate(half_t))

    def scores(self, *phis):
        """The log quadrature terms log w_q + B(u_q) phi of every block at its
        coefficients ``phis[k]``, side by side in one (32, N) array; each
        block's dgemv fills its own columns."""
        a = np.empty((self.log_w.size, self.log_half_t.size))
        for B, cols, phi in zip(self.B, self.cols, phis):
            np.add((B @ phi).reshape(self.log_w.size, -1), self.log_w[:, None],
                   out=a[:, cols])
        return _Scores(a, self.log_half_t)

    def log_cumhaz(self, scores, k=0):
        """log Lambda at block k's times."""
        out = scores.log_cumhaz[self.cols[k]]
        return out if self.inverse[k] is None else out[self.inverse[k]]

    def dlog_cumhaz(self, scores, k=0):
        """d log Lambda / d phi at block k's times, one row per time:
        quadrature-weight softmax of the basis."""
        P = scores.softmax[:, self.cols[k]]
        if self.BT[k] is None:
            self.BT[k] = np.ascontiguousarray(
                self.B[k].reshape(P.shape + (-1,)).transpose(2, 0, 1))
        BT = self.BT[k]
        if BT.shape[0] == 1 or P.shape[1] == 1:
            # NumPy's einsum adds in another order for one coefficient or one
            # time; the time-major contraction keeps those bits
            d = np.einsum("iq,iqr->ir", np.ascontiguousarray(P.T),
                          np.ascontiguousarray(BT.T))
        else:
            d = np.einsum("qi,rqi->ri", P, BT).T
        # in C order, as the time-major contraction returns it, so products
        # with it round as before; the gather copies into C order
        return np.ascontiguousarray(d) if self.inverse[k] is None else d[self.inverse[k]]


class _Scores:
    """A table's (32, N) log quadrature terms at one set of coefficients, with
    their ``_col_shift``; log Lambda and the softmax over the nodes are
    computed once for every block, on first use."""

    def __init__(self, a, log_half_t):
        self.a, self.log_half_t = a, log_half_t
        self.shift = _col_shift(a)

    @cached_property
    def log_cumhaz(self):
        return self.log_half_t + _col_logsumexp(self.a, self.shift)

    @cached_property
    def softmax(self):
        return _col_softmax(self.shift[1])


def cumulative_hazard(t, spec, j: int):
    """Cumulative baseline hazard of transition j (1-based) at time(s) t:
    the exponential of ``log_cumulative_hazard``.

    Weibull: closed form tau * t**alpha.  Bernstein: 32-point Gauss-Legendre
    estimate of the integral of the sieve hazard over [0, t]; requires t
    within the transition's support.
    """
    return np.exp(log_cumulative_hazard(t, spec, j))


def log_cumulative_hazard(t, spec, j: int):
    """log of cumulative_hazard, computed without overflow (-inf at t = 0):
    ``spec.log_cumhaz`` on the times as an array, a float for a scalar t."""
    out = spec.log_cumhaz(np.atleast_1d(np.asarray(t, dtype=float)), j)
    return float(out[0]) if np.ndim(t) == 0 else out
