"""Cross-sectional least-squares calibration of the forward-curve models.

A cross-section is one day's set of zero-coupon quotes.  Calibration
minimizes the unweighted mean squared error between quoted and model prices
(price residuals, not yield residuals).  The initial curve is normally held
fixed across a whole calibration window; a per-date-curve mode exists for
rolling-anchor studies.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import libm
from .curve import DiscountCurve
from .daycount import year_fraction
from .errors import DATA_ERRORS, AmbiguityError, OptimizationError, OrderingError
from .hjm import HoLeeParams, HullWhiteParams, curve_terms, holee_price, hullwhite_price
from .shortrate import decay_loading

A_BOUNDS = (1e-4, 5.0)
SIGMA_BOUNDS = (1e-5, 2.0)
SHORT_RATE_TENOR = 0.25
_GOLDEN_TOL = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class CrossSection:
    """One day's zero-coupon quotes against a fixed initial curve.

    quotes are (tau, price) with tau the time to maturity in years from
    ``asof``.  ``short_rate`` proxies r(t) at the quote date; if omitted it
    is interpolated log-linearly from the day's own quotes at a short tenor
    (0.25y by default, or the shortest quote when nothing that short
    exists).  The curve must carry its own as-of date so the section's
    offset t = years(curve.asof -> asof) is well defined.
    """

    asof: dt.date
    quotes: list[tuple[float, float]]
    curve: DiscountCurve
    short_rate: float | None = None

    def __post_init__(self):
        if not self.quotes:
            raise ValueError("cross-section has no quotes")
        taus = [t for t, _ in self.quotes]
        if any(t <= 0 for t in taus):
            raise OrderingError("quote maturities must lie strictly after asof")
        if len(set(taus)) != len(taus):
            raise AmbiguityError("two quotes share a maturity; drop one")
        if any(p <= 0 for _, p in self.quotes):
            raise ValueError("quoted prices must be positive")
        self.quotes = sorted(self.quotes, key=lambda q: q[0])
        if self.short_rate is None:
            self.short_rate = self._proxy_short_rate()

    def _proxy_short_rate(self, tenor: float = SHORT_RATE_TENOR) -> float:
        taus = np.array([t for t, _ in self.quotes])
        logp = np.log([p for _, p in self.quotes])
        if taus[0] >= tenor:
            return float(-logp[0] / taus[0])
        u = min(tenor, taus[-1])
        return float(-np.interp(u, taus, logp) / u)

    @property
    def t(self) -> float:
        """Years from the curve's as-of date to this section's date."""
        if self.curve.asof is None:
            return 0.0
        return year_fraction(self.curve.asof, self.asof)


@dataclass
class CalibrationResult:
    params: HoLeeParams | HullWhiteParams
    objective: float
    converged: bool


@dataclass
class CalibrationRecord:
    asof: dt.date
    params: HoLeeParams | HullWhiteParams | None
    objective: float | None
    converged: bool
    error: str | None = None


@dataclass
class CalibrationSeries:
    """Per-date calibration results plus mean/sd summary per parameter."""

    records: list[CalibrationRecord]
    summary: dict[str, tuple[float, float | None]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.summary:
            self.summary = self._summarize()

    def _summarize(self) -> dict[str, tuple[float, float | None]]:
        values: dict[str, list[float]] = {}
        for rec in self.records:
            if rec.params is None:
                continue
            for name, value in vars(rec.params).items():
                values.setdefault(name, []).append(value)
        out = {}
        for name, vals in values.items():
            arr = np.asarray(vals)
            mean = float(np.mean(arr))
            sd = float(np.std(arr, ddof=1)) if arr.size > 1 else None
            out[name] = (mean, sd)
        return out


def _identified_offset(xs: CrossSection) -> float:
    """The section's offset t, refused when it is 0."""
    t = xs.t
    if t == 0.0:
        raise OrderingError(
            "cross-section coincides with the curve date: the model prices "
            "reproduce the curve for any volatility, so nothing is identified"
        )
    return t


def _model_price(model: str, params, xs: CrossSection, T):
    """Model price of a zero maturing at T (a float or an array of them)."""
    if model == "holee":
        return holee_price(params, xs.curve, xs.short_rate, xs.t, T)
    if model == "hullwhite":
        return hullwhite_price(params, xs.curve, xs.short_rate, xs.t, T)
    raise ValueError(f"unknown model {model!r}")


def ls_objective(model: str, params, xs: CrossSection, weights=None) -> float:
    """Mean squared price error (1/I) sum_i (market_i - model_i)^2.

    ``weights`` switches on weighted least squares: "maturity" weights each
    residual by its quote's time to maturity, or pass one positive weight
    per quote.  The default (None) is the plain unweighted objective, which
    is also what ``calibrate`` minimizes.

    The whole cross-section is priced by one broadcast call, and the
    weighted squares are added left to right, quote by quote, so the value
    equals a per-quote loop bit for bit.  When a model price or a residual
    term is not finite the per-quote loop itself runs instead, so an
    overflow raises where and what the scalar arithmetic raises.
    """
    t = _identified_offset(xs)
    if weights is None:
        w = np.ones(len(xs.quotes))
    elif isinstance(weights, str):
        if weights != "maturity":
            raise ValueError(f"unknown weighting scheme {weights!r}")
        w = np.array([tau for tau, _ in xs.quotes])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(xs.quotes),):
            raise ValueError("need exactly one weight per quote")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
    taus, prices = np.array(xs.quotes).T
    model_p = _model_price(model, params, xs, t + taus)
    # libm.square: pow(x, 2) as a float's ** computes it, inf on overflow
    with np.errstate(over="ignore"):
        err = np.cumsum(w * libm.square(prices - model_p))[-1]
    if not math.isfinite(err):
        err = 0.0
        for (tau, price), wi in zip(xs.quotes, w):
            model_p = _model_price(model, params, xs, t + tau)
            err += wi * (price - model_p) ** 2
    return err / float(np.sum(w))


def section_objective(model: str, xs: CrossSection):
    """The unweighted ``ls_objective`` of one cross-section as a function of
    the volatility parameters alone: f(sigma) for holee, f(a, sigma) for
    hullwhite.

    The curve terms, which no parameter moves, are computed here once, as
    the arrays the broadcast pricing computes them.  Each evaluation is
    then one loop over the quotes in Python floats that repeats the
    per-quote path's operations in its order (math.exp, ** 2, a left to
    right sum), so the value equals ``ls_objective`` bit for bit, and an
    overflow raises what the per-quote path raises, at the same quote.
    """
    t = _identified_offset(xs)
    if model not in ("holee", "hullwhite"):
        raise ValueError(f"unknown model {model!r}")
    taus, prices = np.array(xs.quotes).T
    tau, market, fwd = curve_terms(xs.curve, t, t + taus)
    r, n = float(xs.short_rate), float(len(taus))

    if model == "holee":
        terms = list(zip(
            market.tolist(), (tau * fwd).tolist(), libm.square(tau).tolist(),
            (tau * r).tolist(), prices.tolist(),
        ))

        def holee(sigma: float) -> float:
            k = 0.5 * sigma**2 * t
            err = 0.0
            for m, tau_f, tau_sq, tau_r, price in terms:
                err += (price - math.exp(m + (tau_f - k * tau_sq - tau_r))) ** 2
            return err / n

        return holee

    terms = list(zip(market.tolist(), prices.tolist()))

    def hullwhite(a: float, sigma: float) -> float:
        variance = sigma**2 * (-math.expm1(-2.0 * a * t)) / (4.0 * a)
        err = 0.0
        for b, (m, price) in zip(decay_loading(a, tau).tolist(), terms):
            err += (price - math.exp(m + (b * fwd - variance * b**2 - b * r))) ** 2
        return err / n

    return hullwhite


def _golden_section(fun, lo: float, hi: float, tol: float = _GOLDEN_TOL):
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def calibrate(
    model: str, xs: CrossSection, maxiter: int = 4000
) -> CalibrationResult:
    """Fit the volatility parameters to one cross-section.

    Constant-vol model: golden-section search on log sigma over
    [1e-5, 2]; it counts as converged only when its result beats both ends
    of that range, so a search that stalls on a bound is flagged.
    Damped-vol model: Nelder-Mead on (log a, log sigma) from 8
    deterministic starts spread over the admissible box a in [1e-4, 5],
    sigma in [1e-5, 2].  Non-convergence is flagged, not raised; the best
    point found is still returned.

    The searches evaluate ``section_objective``; the objective returned
    for the chosen parameters is ``ls_objective``'s, the same value.
    """
    if model == "holee":
        objective = section_objective(model, xs)
        lo, hi = SIGMA_BOUNDS
        u = _golden_section(lambda u: objective(math.exp(u)), math.log(lo), math.log(hi))
        params = HoLeeParams(sigma=math.exp(u))
        value = ls_objective(model, params, xs)
        return CalibrationResult(
            params=params,
            objective=value,
            converged=value < objective(lo) and value < objective(hi),
        )

    if model == "hullwhite":
        if len(xs.quotes) < 2:
            raise ValueError("damped-vol calibration needs at least two quotes")
        objective = section_objective(model, xs)
        log_a_lo, log_a_hi = math.log(A_BOUNDS[0]), math.log(A_BOUNDS[1])
        log_s_lo, log_s_hi = math.log(SIGMA_BOUNDS[0]), math.log(SIGMA_BOUNDS[1])

        def fun(theta) -> float:
            la, ls = theta
            if not (log_a_lo <= la <= log_a_hi and log_s_lo <= ls <= log_s_hi):
                return np.inf
            return objective(math.exp(la), math.exp(ls))

        starts = [
            (math.log(a0), math.log(s0))
            for a0 in (0.01, 0.08, 0.5, 2.0)
            for s0 in (0.01, 0.3)
        ]
        best = None
        any_success = False
        for theta0 in starts:
            res = minimize(
                fun,
                np.array(theta0),
                method="Nelder-Mead",
                options={
                    "maxiter": maxiter,
                    "xatol": 1e-10,
                    "fatol": 1e-22,
                    "adaptive": False,
                },
            )
            if math.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
            if res.success and math.isfinite(res.fun):
                any_success = True
        if best is None:
            raise OptimizationError("all calibration starts failed")
        params = HullWhiteParams(a=math.exp(best.x[0]), sigma=math.exp(best.x[1]))
        return CalibrationResult(
            params=params,
            objective=float(ls_objective(model, params, xs)),
            converged=any_success,
        )

    raise ValueError(f"unknown model {model!r}")


def calibrate_series(
    model: str,
    sections: list[CrossSection],
    maxiter: int = 4000,
    per_date_curve: bool = False,
) -> CalibrationSeries:
    """Calibrate each dated cross-section independently.

    By default every section is re-anchored to the first section's curve
    (the fixed-initial-curve convention).  With ``per_date_curve`` each
    section keeps the curve it carries.  Single-date domain failures are
    recorded in the series; only a fully failed series raises, and any
    other exception (a bug) propagates.
    """
    if not sections:
        raise ValueError("no cross-sections supplied")
    if not per_date_curve:
        common = sections[0].curve
        sections = [
            CrossSection(
                asof=xs.asof,
                quotes=list(xs.quotes),
                curve=common,
                short_rate=xs.short_rate,
            )
            for xs in sections
        ]
    records = []
    for xs in sections:
        try:
            result = calibrate(model, xs, maxiter=maxiter)
            records.append(
                CalibrationRecord(
                    asof=xs.asof,
                    params=result.params,
                    objective=result.objective,
                    converged=result.converged,
                )
            )
        except DATA_ERRORS as exc:  # single-date failure is data, not fatal
            records.append(
                CalibrationRecord(
                    asof=xs.asof,
                    params=None,
                    objective=None,
                    converged=False,
                    error=str(exc),
                )
            )
    if all(rec.params is None for rec in records):
        raise OptimizationError("every date failed to calibrate", partial=records)
    return CalibrationSeries(records=records)
