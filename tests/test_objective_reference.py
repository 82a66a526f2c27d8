"""The calibration objectives, ``calibrate`` and the curve lookups against
frozen copies of their earlier forms.

``ls_objective`` prices a cross-section with one broadcast call and adds the
weighted squares left to right; the per-quote loop below is the reference it
must equal bit for bit, with the same result type.  ``section_objective``
must in turn equal ``ls_objective`` bit for bit, and ``calibrate``, which
searches with it, must find what the earlier ``calibrate`` found by
evaluating ``ls_objective`` at every step.  ``RefCurve`` keeps the earlier
``log_discount`` and ``forward`` so that the reference does not lean on the
curve code under test.
"""

import datetime as dt
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from curveforge.calibration import (
    A_BOUNDS,
    SIGMA_BOUNDS,
    CrossSection,
    _model_price,
    calibrate,
    calibrate_series,
    ls_objective,
    section_objective,
)
from curveforge.curve import DiscountCurve
from curveforge.daycount import year_fraction
from curveforge.errors import ExtrapolationError, OrderingError
from curveforge.hjm import HoLeeParams, HullWhiteParams, holee_price, hullwhite_price

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


# -- the per-section objective and calibrate -----------------------------------


def evaluate(objective, params):
    return objective(*vars(params).values())


@pytest.mark.parametrize("model", ["holee", "hullwhite"])
def test_section_objective_equals_ls_objective(model):
    rng = np.random.default_rng(20 + (model == "hullwhite"))
    for i in range(1500):
        xs, _ = section_pair(rng, random_pillars(rng), flat=rng.random() < 0.5,
                             short_given=i % 2 == 0)
        objective = section_objective(model, xs)
        for _ in range(4):
            params = random_params(rng, model)
            got = evaluate(objective, params)
            assert type(got) is float
            assert got == ls_objective(model, params, xs), (xs, params)


def failing_sections():
    """Sections on which the objective raises: on the curve date, before
    it, beyond the curve's span, and the two overflows."""
    (bad_quote, bad_rate), _ = overflowing_sections()
    curve = bad_quote.curve
    at_curve_date = CrossSection(asof=ASOF0, quotes=[(1.0, 0.96)], curve=curve)
    later_curve = DiscountCurve(curve.pillars, asof=ASOF0 + dt.timedelta(weeks=2))
    before = CrossSection(asof=ASOF0 + dt.timedelta(weeks=1), quotes=[(1.0, 0.96)],
                          curve=later_curve)
    beyond = CrossSection(asof=ASOF0 + dt.timedelta(weeks=60),
                          quotes=[(1.0, 0.96), (39.5, 0.2)], curve=curve)
    return [at_curve_date, before, beyond, bad_quote, bad_rate]


@pytest.mark.parametrize("model", ["holee", "hullwhite"])
@pytest.mark.parametrize("which", range(5))
def test_section_objective_raises_what_ls_objective_raises(model, which):
    xs = failing_sections()[which]
    params = HoLeeParams(sigma=0.01) if model == "holee" else HullWhiteParams(0.1, 0.01)
    want = lookup_error(lambda xs: ls_objective(model, params, xs), xs)
    got = lookup_error(lambda xs: evaluate(section_objective(model, xs), params), xs)
    assert isinstance(want, (OrderingError, ExtrapolationError, OverflowError))
    assert type(got) is type(want)
    assert str(got) == str(want)


def _golden_section_then_value(fun, lo, hi, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def ref_calibrate(model, xs, maxiter=4000):
    """The earlier calibrate: ls_objective at every evaluation, and a
    constant-vol search that always reports convergence.  Returns
    (params, objective, converged)."""
    if model == "holee":
        def fun(u):
            return ls_objective(model, HoLeeParams(sigma=math.exp(u)), xs)

        u, value = _golden_section_then_value(
            fun, math.log(SIGMA_BOUNDS[0]), math.log(SIGMA_BOUNDS[1]))
        return HoLeeParams(sigma=math.exp(u)), value, True
    log_a_lo, log_a_hi = math.log(A_BOUNDS[0]), math.log(A_BOUNDS[1])
    log_s_lo, log_s_hi = math.log(SIGMA_BOUNDS[0]), math.log(SIGMA_BOUNDS[1])

    def fun(theta):
        la, ls = theta
        if not (log_a_lo <= la <= log_a_hi and log_s_lo <= ls <= log_s_hi):
            return np.inf
        return ls_objective(model, HullWhiteParams(a=math.exp(la), sigma=math.exp(ls)), xs)

    best, any_success = None, False
    for a0 in (0.01, 0.08, 0.5, 2.0):
        for s0 in (0.01, 0.3):
            res = minimize(fun, np.array((math.log(a0), math.log(s0))),
                           method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": 1e-10,
                                    "fatol": 1e-22, "adaptive": False})
            if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
            any_success |= bool(res.success and math.isfinite(res.fun))
    params = HullWhiteParams(a=math.exp(best.x[0]), sigma=math.exp(best.x[1]))
    return params, float(best.fun), any_success


def model_section(rng, model):
    """A random section priced by the model itself (random curve, date,
    tenors and parameters) plus a little noise, so that most fits are
    interior and some sit on a bound."""
    xs, _ = section_pair(rng, random_pillars(rng), flat=False)
    # sigma below the box now and then, above it never: the prices would
    # underflow
    sigma = math.exp(rng.uniform(math.log(1e-7), math.log(0.3)))
    truth = (HoLeeParams(sigma=sigma) if model == "holee"
             else HullWhiteParams(a=math.exp(rng.uniform(math.log(1e-4), math.log(5.0))),
                                  sigma=sigma))
    pricer = holee_price if model == "holee" else hullwhite_price
    quotes = [(tau, pricer(truth, xs.curve, xs.short_rate, xs.t, xs.t + tau)
               * (1.0 + float(rng.normal(0.0, 1e-6))))
              for tau, _ in xs.quotes]
    if model == "hullwhite" and len(quotes) < 2:
        quotes.append((30.0, pricer(truth, xs.curve, xs.short_rate, xs.t, xs.t + 30.0)))
    return CrossSection(asof=xs.asof, quotes=quotes, curve=xs.curve,
                        short_rate=xs.short_rate)


@pytest.mark.parametrize("model, n, maxiter", [("holee", 120, 4000),
                                               ("hullwhite", 6, 150),
                                               ("hullwhite", 1, 4000)])
def test_calibrate_finds_what_the_earlier_calibrate_found(model, n, maxiter):
    rng = np.random.default_rng(30 + 7 * (model == "hullwhite") + maxiter)
    on_bound = 0
    for _ in range(n):
        xs = model_section(rng, model)
        params, value, converged = ref_calibrate(model, xs, maxiter)
        got = calibrate(model, xs, maxiter)
        assert got.params == params
        assert got.objective == value
        assert type(got.objective) is type(value)
        if model == "holee" and not got.converged:
            # the bound rule: the search did no better than an end
            on_bound += 1
            assert value >= min(ls_objective(model, HoLeeParams(sigma=s), xs)
                                for s in SIGMA_BOUNDS)
        else:
            assert got.converged == converged
    if model == "holee":
        assert 0 < on_bound < n


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
