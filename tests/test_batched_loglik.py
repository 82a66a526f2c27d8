"""The likelihood over a batch of parameter points against the same
likelihood one point at a time.

``fit_ml``'s objective ``estimation._negloglik`` takes an (m, n) array of
search coordinates and gives m values.  Each must equal, bit for bit, the
value of ``serial_negloglik`` below: a copy of the one-point objective
``fit_ml`` searched before its restarts ran in lockstep, which screened the
box, built the parameters and took any ValueError of the one-point
likelihood as inf.  The batch screens its points instead: a point outside
the box, with a singular price map or with a degenerate step reads inf
without a warning, and an error that is not one of those propagates.
"""

import datetime as dt
import math
import warnings

import numpy as np
import pytest

from curveforge import estimation
from curveforge.curve import flat_curve
from curveforge.errors import DegenerateStepError, SingularInversionError
from curveforge.estimation import _THETA_BOX, FitConfig, _ML_MODELS, fit_ml
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import G2Params, VasicekParams

START = dt.date(2010, 1, 4)


def panels():
    """The lockstep reference tests' fit panels (120 weekly dates) and the
    README's 300-date two-factor example."""
    weekly = [START + dt.timedelta(weeks=k) for k in range(120)]
    steep = flat_curve(0.08, span=80.0)
    readme_curve = flat_curve(0.04, span=30.0, asof=dt.date(2013, 1, 7))
    return {
        "vasicek": (synth_panel(
            "vasicek", VasicekParams(a=1.7051, b=0.0937, sigma=0.3721), weekly,
            [("Z", dt.date(2044, 1, 4))], seed=6), None),
        "g2pp": (synth_panel(
            "g2pp", G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
            weekly, [("L", dt.date(2041, 1, 4)), ("XL", dt.date(2051, 1, 4))],
            curve=steep, seed=14), steep),
        "g2pp-readme": (synth_panel(
            "g2pp", G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4),
            [dt.date(2013, 1, 7) + dt.timedelta(weeks=k) for k in range(300)],
            [("12Y", dt.date(2025, 1, 6)), ("20Y", dt.date(2033, 1, 3))],
            curve=readme_curve, seed=0), readme_curve),
    }


@pytest.fixture(scope="module", params=["vasicek", "g2pp", "g2pp-readme"])
def case(request):
    panel, curve = panels()[request.param]
    spec = _ML_MODELS[request.param.split("-")[0]]
    return spec, estimation._panel_data(spec, panel, curve), spec.moment_guess(panel)


def serial_negloglik(spec, data, theta):
    if np.max(np.abs(theta)) > _THETA_BOX:
        return np.inf
    p = spec.model.params(*spec.from_theta(theta))
    try:
        ll, _ = estimation._loglik(spec, p, data)
    except (ValueError, FloatingPointError, OverflowError):
        return np.inf
    return -ll if math.isfinite(ll) else np.inf


def assert_rows_are_serial(spec, data, thetas):
    """The batch's values are the serial values, bit for bit, whether the
    points come all at once, 16 at a time or one by one; no warning."""
    want = np.array([serial_negloglik(spec, data, t) for t in thetas])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = estimation._negloglik(spec, data, thetas)
        by_16 = np.concatenate([
            estimation._negloglik(spec, data, thetas[s:s + 16])
            for s in range(0, len(thetas), 16)])
        alone = np.concatenate([estimation._negloglik(spec, data, t[None]) for t in thetas])
    for got in (whole, by_16, alone):
        assert got.tobytes() == want.tobytes()
    return want


def test_random_points_equal_the_serial_objective(case):
    spec, data, guess = case
    thetas = guess + np.random.default_rng(5).uniform(-1.5, 1.5, size=(64, guess.size))
    values = assert_rows_are_serial(spec, data, thetas)
    assert np.isfinite(values).sum() >= 60


def test_refused_points_read_inf_beside_good_ones(case):
    spec, data, guess = case
    rng = np.random.default_rng(8)
    good = guess + rng.uniform(-0.5, 0.5, size=(6, guess.size))
    outside = good[:3].copy()
    outside[0, 0] = _THETA_BOX + 0.5
    outside[1, -1] = -_THETA_BOX - 1.0
    outside[2, :] = 40.0
    rows = [good[:2], outside[:2], good[2:4], outside[2:]]
    if guess.size == 5:
        # equal reversion speeds: the two-factor price map is singular
        equal = good[4:].copy()
        equal[:, 1] = equal[:, 0]
        rows.append(equal)
    rows.append(good[4:])
    thetas = np.concatenate(rows)
    values = assert_rows_are_serial(spec, data, thetas)
    refused = np.isinf(values)
    assert refused.sum() == len(thetas) - len(good)
    assert np.isfinite(values[~refused]).all()
    # a batch of refused points only
    assert_rows_are_serial(spec, data, thetas[refused])


def random_g2pp_points(rng, n):
    """A third with b equal to a or within 1e-12 of it (a singular price
    map), a third with volatilities down to 1e-170 (a degenerate step: the
    variance underflows), a third ordinary."""
    out = []
    for k in range(n):
        a = math.exp(rng.uniform(-4.0, 2.0))
        b = math.exp(rng.uniform(-4.0, 2.0))
        if k % 3 == 0:
            b = a * (1.0 + (0.0 if rng.random() < 0.5 else 1e-12))
        low = 1e-170 if k % 3 == 1 else 1e-3
        sigma, eta = np.exp(rng.uniform(math.log(low), math.log(0.5), size=2)).tolist()
        out.append((a, b, sigma, eta, rng.uniform(-0.9999, 0.9999)))
    return out


def test_the_likelihood_of_points_equals_the_one_point_likelihood():
    """``_loglik`` over points, each row against the one-point call: equal
    bits where that returns, -inf where it raises SingularInversionError or
    DegenerateStepError."""
    panel, curve = panels()["g2pp"]
    spec = _ML_MODELS["g2pp"]
    data = estimation._panel_data(spec, panel, curve)
    rows = random_g2pp_points(np.random.default_rng(11), 48)
    want, raised = [], set()
    for row in rows:
        try:
            want.append(estimation._loglik(spec, G2Params(*row), data)[0])
        except (SingularInversionError, DegenerateStepError) as exc:
            raised.add(type(exc))
            want.append(-math.inf)
    assert raised == {SingularInversionError, DegenerateStepError}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, X = estimation._loglik(
            spec, estimation._Points(["a", "b", "sigma", "eta", "rho"], np.array(rows)), data)
    assert got.tobytes() == np.array(want).tobytes()
    # the factor series are those of the points left
    assert len(X[0]) == np.isfinite(want).sum()


@pytest.mark.parametrize("error", [TypeError("a bug"), ValueError("a bug")])
def test_a_programming_error_in_the_likelihood_propagates(monkeypatch, error):
    panel, curve = panels()["g2pp"]

    def broken(*args):
        raise error

    monkeypatch.setattr(estimation, "affine_invert", broken)
    with pytest.raises(type(error)) as info:
        fit_ml("g2pp", panel, curve=curve, config=FitConfig(restarts=2))
    assert info.value is error
