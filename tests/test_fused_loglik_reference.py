"""The fused two-factor likelihood against a frozen copy of the per-instrument
path it replaced.

The ``_ref_*`` functions below are verbatim copies of the earlier
``shortrate.g2pp_variance``, ``decay_loading`` and ``g2pp_affine`` and of
``estimation._g2pp_gap_moments`` and ``_loglik``: three curve lookups, five
variance calls and four loading calls per evaluation, and the transition
moments over every gap (or one gap when all are equal).  The fused path
takes the curve terms once per panel, one variance call over the distinct
horizons and the moments over the distinct gaps.  Log-likelihoods and
states must be equal bit for bit, and every error the reference raises
must be raised with the same type.
"""

import datetime as dt
import math

import numpy as np
import pytest

import curveforge.estimation as estimation
from curveforge.curve import DiscountCurve, flat_curve
from curveforge.errors import (
    BoundaryError,
    DegenerateStepError,
    OrderingError,
    SingularInversionError,
)
from curveforge.estimation import (
    _ML_MODELS,
    FitConfig,
    PricePanel,
    _gaussian_logpdf,
    _PanelData,
    _states,
    fit_ml,
    loglik_g2pp,
)
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import G2Params, affine_invert

G2PP = _ML_MODELS["g2pp"]
START = dt.date(2013, 1, 7)
README_G2 = G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4)
# a humped, non-flat curve, so the market terms are not one straight line
CURVE = DiscountCurve(
    tuple(
        (t, math.exp(-(0.02 + 0.03 * (1.0 - math.exp(-t / 4.0))) * t))
        for t in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 45.0)
    ),
    asof=START,
)


# ---------------------------------------------------------------------------
# frozen reference: the per-instrument path
# ---------------------------------------------------------------------------


def _ref_decay_loading(k, tau):
    out = -np.expm1(-k * np.asarray(tau, dtype=float)) / k
    return out if out.ndim else float(out)


def _ref_g2pp_variance(params, t, T):
    t_arr = np.asarray(t, dtype=float)
    T_arr = np.asarray(T, dtype=float)
    if np.any(T_arr < t_arr):
        raise OrderingError("maturity precedes valuation time")
    a, b, sigma, eta, rho = params.a, params.b, params.sigma, params.eta, params.rho
    tau = T_arr - t_arr

    ea = np.expm1(-a * tau)          # exp(-a tau) - 1
    e2a = np.expm1(-2.0 * a * tau)
    eb = np.expm1(-b * tau)
    e2b = np.expm1(-2.0 * b * tau)
    eab = np.expm1(-(a + b) * tau)

    term_x = (sigma / a) ** 2 * (tau + (2.0 * ea - 0.5 * e2a) / a)
    term_y = (eta / b) ** 2 * (tau + (2.0 * eb - 0.5 * e2b) / b)
    term_xy = (
        2.0 * rho * sigma * eta / (a * b)
        * (tau + ea / a + eb / b - eab / (a + b))
    )
    out = term_x + term_y + term_xy
    return out if out.ndim else float(out)


def _ref_g2pp_affine(params, curve, t, taus):
    log_t = curve.log_discount(t)
    v0t = _ref_g2pp_variance(params, 0.0, t)
    alpha, beta = [], []
    for tau in taus:
        T = t + tau
        adjust = 0.5 * (
            _ref_g2pp_variance(params, 0.0, tau)  # V(t,T) depends on tau only
            - _ref_g2pp_variance(params, 0.0, T)
            + v0t
        )
        alpha.append(curve.log_discount(T) - log_t + adjust)
        beta.append([_ref_decay_loading(params.a, tau), _ref_decay_loading(params.b, tau)])
    return alpha, beta


def _ref_ou_variance(speed, vol, gaps):
    return vol**2 * (-np.expm1(-2.0 * speed * gaps)) / (2.0 * speed)


def _ref_g2pp_gap_moments(p, gaps):
    if abs(p.rho) >= 1.0:
        raise BoundaryError("|rho| = 1 makes the factor covariance singular")
    a, b = p.a, p.b
    c12 = p.rho * p.sigma * p.eta * (-np.expm1(-(a + b) * gaps)) / (a + b)
    cov = [[_ref_ou_variance(a, p.sigma, gaps), c12], [c12, _ref_ou_variance(b, p.eta, gaps)]]
    return [np.exp(-a * gaps), np.exp(-b * gaps)], None, cov


def _ref_data(panel, price_scale=1.0):
    """The earlier _PanelData arrays: one gap when every gap is equal."""
    names = [name for name, _ in panel.instruments]
    prices = [panel.prices(name) for name in names]
    gaps = panel.gaps
    return {
        "times": panel.times,
        "gaps": gaps[:1] if np.all(gaps == gaps[0]) else gaps,
        "taus": [panel.taus(name) for name in names],
        "log_prices": [np.log(p) - math.log(price_scale) for p in prices],
        "price_product": prices[0][1:] * prices[1][1:],
    }


def _ref_states(params, curve, data):
    alpha, beta = _ref_g2pp_affine(params, curve, data["times"], data["taus"])
    return affine_invert(alpha, beta, data["log_prices"])


def _ref_loglik(params, curve, data):
    X, det = _ref_states(params, curve, data)
    decay, drift, cov = _ref_g2pp_gap_moments(params, data["gaps"])
    resid = []
    for i, x in enumerate(X):
        mean = x[:-1] * decay[i]
        resid.append(x[1:] - (mean if drift is None else mean + drift[i]))
    density = _gaussian_logpdf(resid, cov)
    jacobian = np.log(data["price_product"] * np.abs(det[1:]))
    return float(np.sum(density) - np.sum(jacobian)), X


# ---------------------------------------------------------------------------
# panels and parameters
# ---------------------------------------------------------------------------


def _schedule(kind):
    if kind == "uniform":
        # 365-day gaps are exactly 1.0 years apart under ACT/365
        return [START + dt.timedelta(days=365 * k) for k in range(12)]
    if kind == "weekly":
        # 7-day gaps, which ACT/365 float times turn into several values
        return [START + dt.timedelta(weeks=k) for k in range(80)]
    rng = np.random.default_rng(4)
    days = np.cumsum(rng.integers(1, 40, size=60))
    return [START + dt.timedelta(days=int(d)) for d in days]


def _panel(kind, scale):
    """The synthetic panel with every price multiplied by ``scale``."""
    instruments = [("L", dt.date(2038, 1, 4)), ("XL", dt.date(2054, 1, 5))]
    base = synth_panel("g2pp", README_G2, _schedule(kind), instruments, curve=CURVE, seed=9)
    return PricePanel(
        observations=[(d, {k: scale * v for k, v in q.items()}) for d, q in base.observations],
        instruments=list(base.instruments),
    )


def _random_params(rng, n):
    """Speeds log-uniform on [e^-4, e^2]; a quarter with b within 1e-12 to
    1e-4 of a, or equal to it (a singular or near-singular inversion);
    |rho| up to 0.9999; a quarter with volatilities down to 1e-170, whose
    transition variances underflow (a degenerate step)."""
    out = []
    for _ in range(n):
        a = math.exp(rng.uniform(-4.0, 2.0))
        b = math.exp(rng.uniform(-4.0, 2.0))
        kind = rng.integers(4)
        if kind == 0:
            b = a * (1.0 + (0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-12, -4)))
        rho = rng.uniform(-0.9999, 0.9999)
        if kind == 1:
            rho = math.copysign(0.9999, rho)
        low = 1e-170 if kind == 2 else 1e-3
        vols = np.exp(rng.uniform(math.log(low), math.log(0.5), size=2))
        out.append(G2Params(a=a, b=b, sigma=float(vols[0]), eta=float(vols[1]), rho=rho))
    return out


def _outcome(fn):
    try:
        return fn(), None
    except ValueError as exc:
        return None, type(exc)


def _assert_same_value(got, want):
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 0.01])
@pytest.mark.parametrize("kind", ["uniform", "weekly", "irregular"])
def test_loglik_and_states_bit_identical_on_random_params(kind, scale):
    # scale 0.01 lowers every log price by log 100
    panel = _panel(kind, scale)
    gaps = panel.gaps
    distinct = np.unique(gaps).size
    assert (distinct == 1) == (kind == "uniform")
    if kind == "weekly":
        assert distinct < gaps.size
    ref = _ref_data(panel)
    fused = _PanelData.of(panel, 2, CURVE)
    outcomes = {}
    for params in _random_params(np.random.default_rng(17), 1000):
        want, want_err = _outcome(lambda: _ref_loglik(params, CURVE, ref))
        got, got_err = _outcome(lambda: estimation._loglik(G2PP, params, fused))
        assert got_err is want_err, (params, got_err, want_err)
        public, public_err = _outcome(
            lambda: loglik_g2pp(params, CURVE, panel))
        assert public_err is want_err, (params, public_err, want_err)
        outcomes[want_err] = outcomes.get(want_err, 0) + 1
        if want_err is None:
            _assert_same_value(got[0], want[0])
            _assert_same_value(public, want[0])
            for g, w in zip(got[1], want[1]):
                np.testing.assert_array_equal(g, w)
        states, states_err = _outcome(lambda: _states(G2PP, params, fused))
        ref_states, ref_states_err = _outcome(lambda: _ref_states(params, CURVE, ref))
        assert states_err is ref_states_err
        if ref_states_err is None:
            for g, w in zip(states[0], ref_states[0]):
                np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(states[1], ref_states[1])
    # the draws reach finite values and both error paths
    assert outcomes.get(None, 0) > 500
    assert outcomes.get(SingularInversionError, 0) > 0
    assert outcomes.get(DegenerateStepError, 0) > 0


def test_distinct_gaps_gather_back_to_the_panel_gaps():
    for kind in ("uniform", "weekly", "irregular"):
        panel = _panel(kind, 1.0)
        data = _PanelData.of(panel, 2, curve=CURVE)
        np.testing.assert_array_equal(data.gaps[data.gap_index], panel.gaps)
        assert np.all(np.diff(data.gaps) > 0)
        (n1, _), (n2, _) = panel.instruments
        rows = data.horizons[data.horizon_index]
        t, tau1, tau2 = panel.times, panel.taus(n1), panel.taus(n2)
        for got, want in zip(rows, (t, tau1, tau2, t + tau1, t + tau2)):
            np.testing.assert_array_equal(got, want)


def test_whole_fit_equals_the_fit_through_the_reference(monkeypatch):
    # the README example: 300 weekly dates on a 12- and a 20-year bond
    schedule = [START + dt.timedelta(weeks=k) for k in range(300)]
    instruments = [("12Y", dt.date(2025, 1, 6)), ("20Y", dt.date(2033, 1, 3))]
    curve = flat_curve(0.04, span=30.0, asof=START)
    panel = synth_panel("g2pp", README_G2, schedule, instruments, curve=curve, seed=0)
    config = FitConfig(restarts=2, seed=0)
    fused = fit_ml("g2pp", panel, curve=curve, config=config)

    ref = _ref_data(panel)
    monkeypatch.setattr(estimation, "_loglik", lambda spec, p, data: _ref_loglik(p, curve, ref))
    monkeypatch.setattr(estimation, "_states", lambda spec, p, data: _ref_states(p, curve, ref))
    want = fit_ml("g2pp", panel, curve=curve, config=config)

    assert fused.params == want.params
    assert fused.loglik == want.loglik
    assert fused.report == want.report
    assert fused.report.restart_logliks == want.report.restart_logliks
    np.testing.assert_array_equal(fused.states.values, want.states.values)
    np.testing.assert_array_equal(fused.states.times, want.states.times)
