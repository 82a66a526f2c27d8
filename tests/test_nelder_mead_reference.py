"""``estimation.minimize`` against scipy's adaptive Nelder-Mead and against
the serial search it replaced.

``estimation.minimize`` runs R searches in lockstep: each round it asks the
objective for the pending points of every live search in one call per
phase.  Within its own search every point must still be the one that
``scipy.optimize.minimize(method="Nelder-Mead", options={"adaptive": True,
"maxiter": _MAXITER, "xatol": _XATOL, "fatol": _FATOL})`` evaluates, in the
same order, and every returned field must be scipy's, bit for bit.

Two oracles run each search on its own, one point at a time: scipy, which
stays installed as the reference, and ``serial_minimize`` below, a verbatim
copy of the package's serial search before the lockstep one (it read the
module's _MAXITER, _XATOL and _FATOL; the copy reads them through
``estimation`` so a patched _MAXITER reaches it).  The reference was taken
against scipy 1.17.1 (numpy 2.4); a scipy that changes its Nelder-Mead would
show here first.
"""

import datetime as dt
import math
import warnings
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SerialResult:
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int


def serial_minimize(fun, x0):
    """The package's serial adaptive Nelder-Mead before the lockstep one,
    verbatim but for the module names."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(np.copy(x))

    # the start, and one vertex per coordinate moved by 5% (or to 0.00025)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = f(sim[k])
    nit = 1
    # scipy sorts the first simplex twice; argsort need not keep tied
    # vertices in place, so the second sort counts
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    while nit < estimation._MAXITER:
        # sorted, scipy's max |fsim[0] - fsim[1:]| is fsim[-1] - fsim[0];
        # on Python floats inf - inf is a quiet nan
        if (np.max(np.abs(sim[1:] - sim[0])) <= estimation._XATOL
                and fsim[-1].item() - fsim[0].item() <= estimation._FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # outside contraction when xr beats the worst vertex, else inside
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return SerialResult(
        x=sim[0], fun=np.min(fsim), nit=nit, nfev=nfev,
        status=2 if nit >= estimation._MAXITER else 0,
    )


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


def recorded(fun, seen):
    """``fun`` on one point, appending (point, value) bytes to ``seen``."""

    def objective(x):
        value = fun(x)
        seen.append((x.tobytes(), np.float64(value).tobytes()))
        return value

    return objective


def one_by_one(fun):
    """A batch objective that takes its points one at a time through
    ``fun``, a one-point objective."""
    return lambda points: np.array([fun(x) for x in points])


def split_by_search(calls, expected):
    """Give each point of the lockstep search's calls to its search.

    Within a call the points come search by search, in search order, and
    each search's points in its own order; so each point goes to the first
    search, from the last one served in this call on, whose next expected
    point it is.  Returns every search's (point, value) list."""
    got = [[] for _ in expected]
    for call in calls:
        r = 0
        for point, value in call:
            while r < len(expected) and (
                len(got[r]) == len(expected[r]) or expected[r][len(got[r])][0] != point
            ):
                r += 1
            assert r < len(expected), "a point that no search expects next"
            got[r].append((point, value))
    return got


def assert_lockstep(point_fun, starts, batch_fun=None):
    """Run the lockstep search from the rows of ``starts`` on ``batch_fun``
    (by default ``point_fun`` taken one point at a time), and each start on
    its own through scipy and ``serial_minimize`` on ``point_fun``.  Every
    search must evaluate the oracles' points in their order, with their
    values, and return their x, fun, nit, nfev and status, bit for bit.
    Returns the lockstep result and every objective call's point count."""
    starts = np.asarray(starts, dtype=float)
    batch_fun = batch_fun or one_by_one(point_fun)
    expected, wants = [], []
    for x0 in starts:
        seen_scipy, seen_serial = [], []
        want = scipy_nelder_mead(recorded(point_fun, seen_scipy), x0)
        serial = serial_minimize(recorded(point_fun, seen_serial), x0)
        assert seen_serial == seen_scipy
        for field in ("x", "fun"):
            assert (np.float64(getattr(serial, field)).tobytes()
                    == np.float64(getattr(want, field)).tobytes())
        assert (serial.nit, serial.nfev, serial.status) == (want.nit, want.nfev, want.status)
        expected.append(seen_scipy)
        wants.append(want)

    calls = []

    def batch(points):
        assert points.ndim == 2 and points.shape[1] == starts.shape[1]
        values = batch_fun(points)
        calls.append([(x.tobytes(), np.float64(v).tobytes())
                      for x, v in zip(points, values)])
        return values

    got = PACKAGE_MINIMIZE(batch, starts)
    assert split_by_search(calls, expected) == expected
    for r, want in enumerate(wants):
        assert got.x[r].tobytes() == want.x.tobytes()
        assert np.float64(got.fun[r]).tobytes() == np.float64(want.fun).tobytes()
        assert (got.restart_nit[r], got.restart_nfev[r], got.restart_status[r]) == (
            want.nit, want.nfev, want.status)
    assert got.nit == sum(w.nit for w in wants)
    assert got.nfev == sum(w.nfev for w in wants) == sum(map(len, calls))
    assert got.status == max(w.status for w in wants)
    sizes = [len(call) for call in calls]
    assert max(sizes) <= estimation._BATCH_POINTS
    return got, sizes


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


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


def serial_negloglik(model, panel, curve):
    """The objective fit_ml searched before the lockstep search, one point
    at a time through the one-point likelihood."""
    spec = estimation._ML_MODELS[model]
    data = estimation._panel_data(spec, panel, curve)

    def negloglik(theta):
        if np.max(np.abs(theta)) > _THETA_BOX:
            return np.inf
        p = spec.model.params(*spec.from_theta(theta))
        try:
            ll, _ = estimation._loglik(spec, p, data)
        except (ValueError, FloatingPointError, OverflowError):
            return np.inf
        return -ll if math.isfinite(ll) else np.inf

    return negloglik


def checked_fit(monkeypatch, panels, model, restarts):
    """fit_ml with its one lockstep search checked, restart by restart,
    against scipy and the serial search on the serial objective; returns
    the fit, the search's result and its call sizes."""
    panel, curve = panels[model]
    results = []

    def minimize(fun, x0):
        assert not results, "fit_ml searched more than once"
        results.append(assert_lockstep(serial_negloglik(model, panel, curve), x0, fun))
        return results[-1][0]

    monkeypatch.setattr(estimation, "minimize", minimize)
    fit = fit_ml(model, panel, curve=curve, config=FitConfig(restarts=restarts, seed=2))
    (res, sizes), = results
    assert len(res.fun) == restarts
    return fit, res, sizes


@pytest.mark.parametrize("model", ["vasicek", "g2pp"])
def test_fit_restarts_match_scipy(monkeypatch, panels, model):
    fit, res, sizes = checked_fit(monkeypatch, panels, model, restarts=3)
    assert [-float(v) for v in res.fun] == fit.report.restart_logliks
    assert res.nit == fit.report.iterations
    # the restarts share their calls, from the first simplex on
    n = res.x.shape[1]
    assert sizes[:n + 1] == [3] * (n + 1)
    assert len(sizes) < res.nfev / 2


@pytest.mark.parametrize("model", ["vasicek", "g2pp"])
def test_forced_maxiter_matches_scipy(monkeypatch, panels, model):
    monkeypatch.setattr(estimation, "_MAXITER", 40)
    _, res, _ = checked_fit(monkeypatch, panels, model, restarts=2)
    assert list(res.restart_nit) == [40, 40] and list(res.restart_status) == [2, 2]
    assert (res.nit, res.status) == (80, 2)


def test_seventeen_restarts_cross_the_batch_cap(monkeypatch, panels):
    _, res, sizes = checked_fit(monkeypatch, panels, "vasicek", restarts=17)
    cap = estimation._BATCH_POINTS
    assert cap < 17
    # the first simplex goes one vertex index at a time: 17 points, split
    # at the cap
    assert sizes[:2] == [cap, 17 - cap]
    assert res.status == 0


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_rosenbrock_in_five_dimensions():
    got, _ = assert_lockstep(rosen, [[1.3, 0.0, 0.8, -1.9, 1.2]])
    assert got.status == 0 and got.nit > 100
    np.testing.assert_allclose(got.x[0], 1.0, atol=1e-3)


def test_rosenbrock_from_seventeen_starts():
    starts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(17, 5))
    got, sizes = assert_lockstep(rosen, starts)
    # five shrink points per search cross the cap too
    assert max(sizes) == estimation._BATCH_POINTS
    assert got.status == 0


@pytest.mark.parametrize("x0", [[-1.2], [0.0], [3.0]])
def test_rosenbrock_in_one_dimension(x0):
    # scipy's rosen is constant in one dimension; this is its slice y = 1
    got, _ = assert_lockstep(lambda x: rosen(np.array([x[0], 1.0])), [x0])
    # the slice has local minima at 1 and near -0.995
    assert got.status == 0
    assert abs(abs(got.x[0, 0]) - 1.0) < 1e-2


def boxed(x):
    if np.max(np.abs(x)) > _THETA_BOX:
        return np.inf
    return -x[0] + (x[1] - 1.0) ** 2 + 0.1 * x[2] ** 2


def test_infinite_outside_the_theta_box():
    got, _ = assert_lockstep(boxed, [[17.0, 0.5, -2.0]])
    assert got.status == 0 and np.isfinite(got.fun[0])
    assert _THETA_BOX - 1e-4 < got.x[0, 0] <= _THETA_BOX


def test_constant_objective_ties_every_vertex():
    got, _ = assert_lockstep(lambda x: 1.0, [[0.3, -2.0, 0.0]])
    assert got.fun[0] == 1.0
    assert got.status == 0 and got.nit > 10


def test_objective_infinite_everywhere_hits_maxiter():
    # the package subtracts inf - inf in its stopping test without a
    # warning, as Python floats do; only scipy's side warns (filtered above)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = assert_lockstep(lambda x: np.inf, [[0.5, 0.5]])
    assert (got.nit, got.status) == (estimation._MAXITER, 2)
    assert got.fun[0] == np.inf


def test_an_infinite_search_beside_finite_ones():
    # the second start lies outside the box with every vertex: its search
    # shrinks on inf until _MAXITER, while the others converge as they
    # would alone
    starts = [[17.0, 0.5, -2.0], [40.0, 1.0, 1.0], [3.0, -1.0, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = assert_lockstep(boxed, starts)
    assert list(got.restart_status) == [0, 2, 0]
    assert got.restart_nit[1] == estimation._MAXITER
    assert got.fun[1] == np.inf and np.isfinite(got.fun[[0, 2]]).all()
    assert got.status == 2
