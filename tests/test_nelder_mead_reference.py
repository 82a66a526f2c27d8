"""``estimation.minimize`` against scipy's adaptive Nelder-Mead.

``estimation.minimize`` is the package's own copy of
``scipy.optimize.minimize(method="Nelder-Mead", options={"adaptive": True,
"maxiter": _MAXITER, "xatol": _XATOL, "fatol": _FATOL})``, the search
``fit_ml`` ran before.  scipy stays installed as the reference.  On every
objective below both searches must evaluate the same points in the same
order and return the same x, fun, nit, nfev and status, bit for bit.  The
reference was taken against scipy 1.17.1 (numpy 2.4); a scipy that changes
its Nelder-Mead would show here first.
"""

import datetime as dt
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import rosen

from curveforge import estimation
from curveforge.curve import flat_curve
from curveforge.estimation import _THETA_BOX, FitConfig, fit_ml
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import G2Params, VasicekParams

START = dt.date(2010, 1, 4)
WEEKLY = [START + dt.timedelta(weeks=k) for k in range(120)]
# the search under test, kept before any test patches the module's name
PACKAGE_MINIMIZE = estimation.minimize


def scipy_nelder_mead(fun, x0):
    with warnings.catch_warnings():
        # scipy takes inf - inf in its stopping test when every vertex is inf
        warnings.filterwarnings(
            "ignore", "invalid value encountered in subtract", RuntimeWarning)
        return scipy.optimize.minimize(
            fun, x0, method="Nelder-Mead",
            options={"maxiter": estimation._MAXITER, "xatol": estimation._XATOL,
                     "fatol": estimation._FATOL, "adaptive": True},
        )


def assert_same_search(fun, x0):
    """Run both searches on ``fun`` from ``x0``; every evaluated point and
    value, and every returned field, must be equal bit for bit.  Returns
    the package's result and the values it evaluated."""
    seen = {"scipy": [], "package": []}

    def recorded(name):
        def objective(x):
            value = fun(x)
            seen[name].append((x.tobytes(), np.float64(value).tobytes()))
            return value

        return objective

    want = scipy_nelder_mead(recorded("scipy"), x0)
    got = PACKAGE_MINIMIZE(recorded("package"), x0)
    assert seen["package"] == seen["scipy"]
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nit, got.nfev, got.status) == (want.nit, want.nfev, want.status)
    assert got.nfev == len(seen["package"])
    return got, [np.frombuffer(v)[0] for _, v in seen["package"]]


def fit_panels():
    steep = flat_curve(0.08, span=80.0)
    vasicek = synth_panel(
        "vasicek", VasicekParams(a=1.7051, b=0.0937, sigma=0.3721), WEEKLY,
        [("Z", dt.date(2044, 1, 4))], seed=6)
    g2pp = synth_panel(
        "g2pp", G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
        WEEKLY, [("L", dt.date(2041, 1, 4)), ("XL", dt.date(2051, 1, 4))],
        curve=steep, seed=14)
    return {"vasicek": (vasicek, None), "g2pp": (g2pp, steep)}


@pytest.fixture(scope="module")
def panels():
    return fit_panels()


def checked_fit(monkeypatch, panels, model, restarts):
    """fit_ml with every restart's search checked against scipy's; returns
    the fit and the restarts' results."""
    results = []

    def minimize(fun, x0):
        results.append(assert_same_search(fun, x0)[0])
        return results[-1]

    monkeypatch.setattr(estimation, "minimize", minimize)
    panel, curve = panels[model]
    fit = fit_ml(model, panel, curve=curve, config=FitConfig(restarts=restarts, seed=2))
    assert len(results) == restarts
    return fit, results


@pytest.mark.parametrize("model", ["vasicek", "g2pp"])
def test_fit_restarts_match_scipy(monkeypatch, panels, model):
    fit, results = checked_fit(monkeypatch, panels, model, restarts=3)
    assert [-float(r.fun) for r in results] == fit.report.restart_logliks
    assert sum(r.nit for r in results) == fit.report.iterations


@pytest.mark.parametrize("model", ["vasicek", "g2pp"])
def test_forced_maxiter_matches_scipy(monkeypatch, panels, model):
    monkeypatch.setattr(estimation, "_MAXITER", 40)
    _, results = checked_fit(monkeypatch, panels, model, restarts=2)
    assert all((r.nit, r.status) == (40, 2) for r in results)


def test_rosenbrock_in_five_dimensions():
    got, _ = assert_same_search(rosen, np.array([1.3, 0.0, 0.8, -1.9, 1.2]))
    assert got.status == 0 and got.nit > 100
    np.testing.assert_allclose(got.x, 1.0, atol=1e-3)


@pytest.mark.parametrize("x0", [[-1.2], [0.0], [3.0]])
def test_rosenbrock_in_one_dimension(x0):
    # scipy's rosen is constant in one dimension; this is its slice y = 1
    got, _ = assert_same_search(lambda x: rosen(np.array([x[0], 1.0])), np.array(x0))
    # the slice has local minima at 1 and near -0.995
    assert got.status == 0
    assert abs(abs(got.x[0]) - 1.0) < 1e-2


def test_infinite_outside_the_theta_box():
    def boxed(x):
        if np.max(np.abs(x)) > _THETA_BOX:
            return np.inf
        return -x[0] + (x[1] - 1.0) ** 2 + 0.1 * x[2] ** 2

    got, values = assert_same_search(boxed, np.array([17.0, 0.5, -2.0]))
    assert np.isinf(values).any()
    assert got.status == 0 and np.isfinite(got.fun)
    assert _THETA_BOX - 1e-4 < got.x[0] <= _THETA_BOX


def test_constant_objective_ties_every_vertex():
    got, values = assert_same_search(lambda x: 1.0, np.array([0.3, -2.0, 0.0]))
    assert set(values) == {1.0}
    assert got.status == 0 and got.nit > 10


def test_objective_infinite_everywhere_hits_maxiter():
    # the package's stopping test subtracts Python floats, where inf - inf
    # is a quiet nan, so only scipy's side warns (and is filtered above)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = assert_same_search(lambda x: np.inf, np.array([0.5, 0.5]))
    assert (got.nit, got.status) == (estimation._MAXITER, 2)
    assert got.fun == np.inf
