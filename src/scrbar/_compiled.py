"""SciPy's compiled L-BFGS-B and LAPACK, loaded without their packages.

scrbar needs one routine of ``scipy.optimize`` (L-BFGS-B; Byrd, Lu,
Nocedal & Zhu 1995) and three of ``scipy.linalg`` (dposv, dpotrf, dtrtrs),
but importing those packages costs more start-up time and memory than a
command's work: linear programming, FFT, special functions, sparse linear
algebra and more come with them.  This module loads the two extension
modules that hold the routines, ``scipy.optimize._lbfgsb`` and
``scipy.linalg._flapack``, straight from SciPy's install directory, and
registers each in ``sys.modules`` under its own name (or reuses the entry
already there), so a later ``import scipy.optimize`` or
``scipy.linalg.lapack`` gets these very objects.  ``scipy.linalg.lapack``
re-exports the f2py functions of ``_flapack`` unchanged.  A package
imported after this module reaches them through ``sys.modules``, as its
``from . import`` statements do, but does not get them as attributes:
``scipy.linalg._flapack`` is then missing while
``from scipy.linalg import _flapack`` works.

``lbfgsb`` is the loop of ``scipy.optimize.minimize(...,
method="L-BFGS-B", jac=True)``, argument for argument, so its x, value,
gradient, iteration count and status are SciPy's bit for bit.  These are
private SciPy names: ``setulb``'s signature dates from SciPy's C port of
L-BFGS-B and may change in any release.  After a SciPy upgrade, re-run
the tests that hold ``lbfgsb`` to ``scipy.optimize.minimize`` and the
loaded functions to ``scipy.linalg.lapack``'s (tests/test_compiled.py)
before widening the pinned range.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np
import scipy

# SciPy's default cap on objective evaluations, checked at each new iteration
_MAXFUN = 15000


def _load(name):
    """The compiled module ``name`` of SciPy, loaded once."""
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(os.path.dirname(scipy.__file__),
                             *name.split(".")[1:-1])
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"SciPy {scipy.__version__} has no compiled module {name}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lbfgsb = _load("scipy.optimize._lbfgsb")
_flapack = _load("scipy.linalg._flapack")
dposv, dpotrf, dtrtrs = _flapack.dposv, _flapack.dpotrf, _flapack.dtrtrs


class LbfgsbResult(NamedTuple):
    """The fields of SciPy's ``OptimizeResult`` that scrbar reads."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    status: int


def lbfgsb(fun, x0, bounds, *, maxcor, ftol, gtol, maxls, maxiter) -> LbfgsbResult:
    """Minimize ``fun`` (returning value and gradient) over a finite box.

    Mirrors ``_minimize_lbfgsb`` of ``scipy.optimize._lbfgsb_py`` (SciPy
    1.17.1) with ``jac=True``: ``fun`` is called on a copy of x and once
    per distinct x, as ``ScalarFunction`` caches it; status is 0 on
    convergence, 1 when ``maxiter`` or the evaluation cap stopped it and
    2 otherwise (an abnormal line search), where ``fun`` is the last trial
    value while x and ``jac`` are the last accepted point's.
    """
    lo, hi = np.array(bounds, dtype=np.float64).T.copy()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("lbfgsb takes finite bounds only")
    x = np.clip(np.asarray(x0, dtype=np.float64).ravel(), lo, hi)
    at = x.copy()
    f_at, g_at = fun(at.copy())
    nfev, nit = 1, 0
    n, m = x.size, maxcor
    nbd = np.full(n, 2, dtype=np.int32)
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = ftol / np.finfo(float).eps
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(m, x, lo, hi, nbd, f, g, factr, gtol, wa, iwa, task,
                       lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:                # evaluate at x
            if not np.array_equal(x, at):
                at = x.copy()
                f_at, g_at = fun(at.copy())
                nfev += 1
            f, g = f_at, g_at
        elif task[0] == 1:              # new iteration
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if nfev > _MAXFUN or nit >= maxiter else 2
    return LbfgsbResult(x, f, g, nit, status)
