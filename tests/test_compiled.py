"""scrbar loads SciPy's compiled L-BFGS-B and LAPACK without importing
``scipy.optimize`` or ``scipy.linalg``; these tests hold the direct loads to
the packages' own objects and the L-BFGS-B loop to ``scipy.optimize.minimize``
bit for bit, and are the ones to re-run after a SciPy upgrade."""

import subprocess
import sys

import numpy as np
import pytest

from scrbar import FitConfig, _compiled
from scrbar.estimation import _GTOL, _Objective
from _helpers import small_dataset

from test_cli import _child_env


def test_later_package_imports_reuse_the_loaded_modules():
    # run in a fresh interpreter so that scrbar loads first and the packages
    # come after it, whatever this test process imported before
    code = ("import sys, scrbar.cli\n"
            "from scrbar import _compiled\n"
            "import scipy.optimize, scipy.linalg.lapack\n"
            "lapack = scipy.linalg.lapack\n"
            "print(lapack.dposv is _compiled.dposv, lapack.dpotrf is _compiled.dpotrf,\n"
            "      lapack.dtrtrs is _compiled.dtrtrs,\n"
            "      sys.modules['scipy.optimize._lbfgsb'] is _compiled._lbfgsb,\n"
            "      scipy.optimize._lbfgsb_py._lbfgsb is _compiled._lbfgsb)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 5


def test_modules_are_registered_under_their_own_names():
    for name in ("scipy.optimize._lbfgsb", "scipy.linalg._flapack"):
        assert _compiled._load(name) is sys.modules[name]
    assert _compiled._lbfgsb is sys.modules["scipy.optimize._lbfgsb"]
    assert _compiled.dposv is sys.modules["scipy.linalg._flapack"].dposv


def test_a_missing_module_names_the_scipy_version():
    import scipy
    with pytest.raises(ImportError, match=f"SciPy {scipy.__version__} .*_no_such"):
        _compiled._load("scipy.optimize._no_such")


def test_infinite_bounds_are_refused():
    with pytest.raises(ValueError, match="finite"):
        _compiled.lbfgsb(lambda x: (float(x @ x), 2.0 * x), np.ones(2),
                         [(-1.0, 1.0), (-np.inf, 1.0)],
                         maxcor=5, ftol=1e-12, gtol=1e-8, maxls=20, maxiter=50)


_FIT_OPTIONS = {"maxiter": 600, "ftol": 1e-12, "gtol": _GTOL / 10.0,
                "maxls": 60, "maxcor": 20}


@pytest.mark.parametrize("baseline, data, options, status", [
    # the fixtures of TestFitUnpenalized::test_grad_norm_is_the_projected_gradient_at_the_fit
    ("weibull", dict(n=60, d=3, seed=54), {}, None),
    ("bernstein", dict(n=60, d=3, seed=54), {}, None),
    ("weibull", dict(n=80, d=2, seed=57, trunc_upper=0.4), {}, None),
    ("bernstein", dict(n=80, d=2, seed=57, trunc_upper=0.4), {}, None),
    ("weibull", dict(n=71, d=4, seed=77), {}, None),
    # stopped by the iteration cap
    ("bernstein", dict(n=60, d=3, seed=54), {"maxiter": 7}, 1),
    # one step per line search: an abnormal line search
    ("weibull", dict(n=60, d=3, seed=54), {"maxls": 1}, 2),
])
def test_lbfgsb_is_scipys_minimize_bit_for_bit(baseline, data, options, status):
    import scipy.optimize
    obj = _Objective(small_dataset(**data), FitConfig(baseline=baseline))
    options = dict(_FIT_OPTIONS, **options)
    ref = scipy.optimize.minimize(obj.value_and_grad, obj.initial_point(), jac=True,
                                  method="L-BFGS-B", bounds=obj.bounds(), options=options)
    res = _compiled.lbfgsb(obj.value_and_grad, obj.initial_point(), obj.bounds(), **options)
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.jac.tobytes() == ref.jac.tobytes()
    assert float(res.fun) == float(ref.fun)
    assert (res.nit, res.status) == (ref.nit, ref.status)
    assert status is None or res.status == status
