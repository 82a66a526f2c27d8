"""The broadcast calibration objective and the curve lookups against frozen
copies of their per-quote and np.any/np.clip forms.

``ls_objective`` prices a cross-section with one broadcast call and adds the
weighted squares left to right; the per-quote loop below is the reference it
must equal bit for bit, with the same result type.  ``RefCurve`` keeps the
earlier ``log_discount`` and ``forward`` so that the reference does not lean
on the curve code under test.
"""

import datetime as dt
import math

import numpy as np
import pytest

from curveforge.calibration import (
    CrossSection,
    _model_price,
    calibrate_series,
    ls_objective,
)
from curveforge.curve import DiscountCurve
from curveforge.daycount import year_fraction
from curveforge.errors import ExtrapolationError, OrderingError
from curveforge.hjm import HoLeeParams, HullWhiteParams

ASOF0 = dt.date(2013, 1, 7)
TENORS = (1 / 12, 2 / 12, 3 / 12, 6 / 12, 9 / 12, 1.0, 2.0, 3.0, 5.0, 7.0,
          10.0, 15.0, 20.0, 25.0)


class RefCurve(DiscountCurve):
    """A DiscountCurve whose lookups are the earlier implementation."""

    def log_discount(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise OrderingError("discount requested at negative maturity")
        inside = np.minimum(t_arr, self.span)
        out = np.interp(inside, self._knots, self._logdfs)
        over = t_arr > self.span
        if np.any(over):
            if not self.flat_extrapolation:
                raise ExtrapolationError(
                    f"maturity beyond curve span {self.span:.6g} "
                    "(enable flat extrapolation to allow)"
                )
            out = out - self._fwds[-1] * np.where(over, t_arr - self.span, 0.0)
        return out if t_arr.ndim else float(out)

    def forward(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise OrderingError("forward requested at negative maturity")
        if np.any(t_arr > self.span) and not self.flat_extrapolation:
            raise ExtrapolationError(
                f"forward beyond curve span {self.span:.6g} "
                "(enable flat extrapolation to allow)"
            )
        idx = np.searchsorted(self._knots, t_arr, side="right") - 1
        idx = np.clip(idx, 0, len(self._fwds) - 1)
        out = self._fwds[idx]
        return out if t_arr.ndim else float(out)


def ref_ls_objective(model, params, xs, weights=None):
    """The per-quote objective: one scalar price per quote, summed in order."""
    t = xs.t
    if t == 0.0:
        raise OrderingError("cross-section coincides with the curve date")
    if weights is None:
        w = np.ones(len(xs.quotes))
    elif isinstance(weights, str):
        w = np.array([tau for tau, _ in xs.quotes])
    else:
        w = np.asarray(weights, dtype=float)
    err = 0.0
    for (tau, price), wi in zip(xs.quotes, w):
        model_p = _model_price(model, params, xs, t + tau)
        err += wi * (price - model_p) ** 2
    return err / float(np.sum(w))


def random_pillars(rng, span=40):
    """Pillars of a curve with piecewise-constant forwards in [-1%, 9%]."""
    taus = np.sort(rng.choice(np.arange(1, 4 * span + 1) / 4.0, size=12, replace=False))
    taus[-1] = float(span)
    fwds = rng.uniform(-0.01, 0.09, size=taus.size)
    logdf = -np.cumsum(fwds * np.diff(np.concatenate(([0.0], taus))))
    dfs = np.minimum(np.exp(logdf), 1.0)
    return tuple(zip(taus.tolist(), dfs.tolist()))


def section_pair(rng, pillars, flat, short_given=True):
    """The same random cross-section on the curve under test and on the
    reference curve; without a given short rate it is proxied from the
    quotes."""
    curve = DiscountCurve(pillars, flat_extrapolation=flat, asof=ASOF0)
    ref = RefCurve(pillars, flat_extrapolation=flat, asof=ASOF0)
    asof = ASOF0 + dt.timedelta(days=int(rng.integers(7, 8 * 365 + 1)))
    n = int(rng.integers(1, len(TENORS) + 1))
    taus = sorted(rng.choice(TENORS, size=n, replace=False).tolist())
    quotes = [(tau, float(rng.uniform(0.2, 1.0))) for tau in taus]
    short = float(rng.uniform(-0.01, 0.09)) if short_given else None
    return (CrossSection(asof=asof, quotes=quotes, curve=curve, short_rate=short),
            CrossSection(asof=asof, quotes=quotes, curve=ref, short_rate=short))


def random_params(rng, model):
    sigma = math.exp(rng.uniform(math.log(1e-5), math.log(2.0)))
    if model == "holee":
        return HoLeeParams(sigma=sigma)
    a = math.exp(rng.uniform(math.log(1e-4), math.log(5.0)))
    return HullWhiteParams(a=a, sigma=sigma)


@pytest.mark.parametrize("model", ["holee", "hullwhite"])
@pytest.mark.parametrize("weighting", ["none", "maturity", "explicit"])
def test_objective_equals_per_quote_loop(model, weighting):
    rng = np.random.default_rng(["none", "maturity", "explicit"].index(weighting)
                                + 10 * (model == "hullwhite"))
    for i in range(1500):
        xs, xs_ref = section_pair(rng, random_pillars(rng), flat=rng.random() < 0.5,
                                  short_given=i % 2 == 0)
        if weighting == "none":
            weights = None
        elif weighting == "maturity":
            weights = "maturity"
        else:
            weights = rng.uniform(0.1, 10.0, size=len(xs.quotes)).tolist()
        params = random_params(rng, model)
        got = ls_objective(model, params, xs, weights=weights)
        want = ref_ls_objective(model, params, xs_ref, weights=weights)
        assert type(got) is type(want) is np.float64
        assert got == want, (xs, params, weights)


def test_dates_span_one_week_to_eight_years():
    rng = np.random.default_rng(5)
    pillars = random_pillars(rng)
    for days in (7, 8, 365, 8 * 365):
        for model in ("holee", "hullwhite"):
            xs, xs_ref = section_pair(rng, pillars, flat=False, short_given=False)
            xs.asof = xs_ref.asof = ASOF0 + dt.timedelta(days=days)
            params = random_params(rng, model)
            got = ls_objective(model, params, xs)
            assert got == ref_ls_objective(model, params, xs_ref)
            assert type(got) is np.float64


def overflowing_sections():
    """A quote of 1e200 (the square of its residual overflows) and a short
    rate of -100 (the model price's exponential overflows)."""
    pillars = tuple((float(k), math.exp(-0.04 * k)) for k in range(1, 41))
    out = []
    for cls in (DiscountCurve, RefCurve):
        curve = cls(pillars, asof=ASOF0)
        asof = ASOF0 + dt.timedelta(weeks=60)
        out.append((
            CrossSection(asof=asof, quotes=[(1.0, 0.96), (5.0, 1e200)], curve=curve),
            CrossSection(asof=asof, quotes=[(1.0, 0.96), (25.0, 0.4)], curve=curve,
                         short_rate=-100.0),
        ))
    return out


def ref_error(model, params, xs):
    with pytest.raises(Exception) as info:
        ref_ls_objective(model, params, xs)
    return info.value


@pytest.mark.parametrize("model", ["holee", "hullwhite"])
@pytest.mark.parametrize("which", [0, 1])
def test_overflow_raises_what_the_loop_raises(model, which):
    (new, ref) = (pair[which] for pair in overflowing_sections())
    params = HoLeeParams(sigma=0.01) if model == "holee" else HullWhiteParams(0.1, 0.01)
    want = ref_error(model, params, ref)
    with pytest.raises(type(want)) as got:
        ls_objective(model, params, new)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)
    assert str(want) == ("(34, 'Numerical result out of range')" if which == 0
                         else "math range error")


@pytest.mark.parametrize("model", ["holee", "hullwhite"])
def test_overflow_error_text_reaches_the_calibration_record(model):
    (new_bad, _), (ref_bad, _) = overflowing_sections()
    t = year_fraction(ASOF0, new_bad.asof)
    good = CrossSection(
        asof=new_bad.asof + dt.timedelta(weeks=1),
        quotes=[(1.0, new_bad.curve.discount(t + 1.0) / new_bad.curve.discount(t)),
                (5.0, new_bad.curve.discount(t + 5.0) / new_bad.curve.discount(t))],
        curve=new_bad.curve,
    )
    series = calibrate_series(model, [new_bad, good])
    params = HoLeeParams(sigma=0.01) if model == "holee" else HullWhiteParams(0.1, 0.01)
    want = ref_error(model, params, ref_bad)
    assert series.records[0].params is None
    assert series.records[0].error == str(want)
    assert series.records[1].params is not None


# -- curve lookups -------------------------------------------------------------


def curve_pair(pillars, flat):
    return (DiscountCurve(pillars, flat_extrapolation=flat),
            RefCurve(pillars, flat_extrapolation=flat))


@pytest.mark.parametrize("flat", [False, True])
def test_lookups_equal_on_scalars_arrays_and_knots(flat):
    rng = np.random.default_rng(7 + flat)
    for _ in range(20):
        pillars = random_pillars(rng, span=int(rng.integers(4, 50)))
        curve, ref = curve_pair(pillars, flat)
        span = curve.span
        hi = 1.5 * span if flat else span
        knots = [0.0] + [t for t, _ in pillars]
        points = rng.uniform(0.0, hi, size=250).tolist() + knots
        for name in ("log_discount", "forward"):
            new_fn, ref_fn = getattr(curve, name), getattr(ref, name)
            for x in points:
                got, want = new_fn(x), ref_fn(x)
                assert type(got) is type(want) is float
                assert got == want, (name, x)
            for arr in (np.array(points), np.array(points[:250]).reshape(-1, 2),
                        np.array(points[0]), np.array([np.nan, 0.5 * span])):
                got, want = new_fn(arr), ref_fn(arr)
                assert type(got) is type(want)
                np.testing.assert_array_equal(got, want)


def lookup_error(fn, x):
    with pytest.raises(Exception) as info:
        fn(x)
    return info.value


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("name", ["log_discount", "forward"])
def test_lookup_errors_equal(flat, name):
    pillars = tuple((float(k), math.exp(-0.03 * k)) for k in range(1, 8))
    curve, ref = curve_pair(pillars, flat)
    bad = [-1e-12, -3.0, np.array([1.0, -0.5]), np.array([[-1.0]])]
    if not flat:
        bad += [7.0 + 1e-9, 100.0, np.array([1.0, 8.0]), np.array([[9.0]])]
    for x in bad:
        want = lookup_error(getattr(ref, name), x)
        got = lookup_error(getattr(curve, name), x)
        assert isinstance(want, (OrderingError, ExtrapolationError))
        assert type(got) is type(want)
        assert str(got) == str(want)
