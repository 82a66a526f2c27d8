"""Cross-sectional least-squares calibration of the forward-curve models.

A cross-section is one day's set of zero-coupon quotes.  Calibration
minimizes the unweighted mean squared error between quoted and model prices
(price residuals, not yield residuals).  Each section is calibrated on the
curve it carries; choosing that curve (one fixed initial curve for a whole
window, or a rolling anchor) is the caller's business.

Ho-Lee has one parameter, which enters the objective only through
k = sigma^2 t / 2, and is fitted by a safeguarded Newton iteration on the
objective's closed-form slope in k; only Hull-White runs
``scipy.optimize.minimize``, which is imported on its first call
(``minimize`` below), so loading this module does not load scipy.
"""

from __future__ import annotations

import datetime as dt
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import libm
from .curve import DiscountCurve
from .daycount import year_fraction
from .errors import DATA_ERRORS, AmbiguityError, OptimizationError, OrderingError
from .hjm import HoLeeParams, HullWhiteParams, curve_terms, holee_price, hullwhite_price
from .shortrate import decay_loading

A_BOUNDS = (1e-4, 5.0)
SIGMA_BOUNDS = (1e-5, 2.0)
SHORT_RATE_TENOR = 0.25
_NEWTON_RTOL = 1e-12
_NEWTON_MAXITER = 100
_HW_MAXITER = 4000
_EPS = sys.float_info.epsilon


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass
class CrossSection:
    """One day's zero-coupon quotes against a fixed initial curve.

    quotes are (tau, price) with tau the time to maturity in years from
    ``asof``.  ``short_rate`` proxies r(t) at the quote date; if omitted it
    is interpolated log-linearly from the day's own quotes at
    SHORT_RATE_TENOR (0.25y), or taken from the shortest quote when nothing
    that short exists.  The curve must carry its own as-of date so the
    section's offset t = years(curve.asof -> asof) is well defined.
    """

    asof: dt.date
    quotes: list[tuple[float, float]]
    curve: DiscountCurve
    short_rate: float | None = None
    _taus: np.ndarray = field(init=False, repr=False, compare=False)
    _prices: np.ndarray = field(init=False, repr=False, compare=False)

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
        self._taus = np.array([t for t, _ in self.quotes], dtype=float)
        self._prices = np.array([p for _, p in self.quotes], dtype=float)
        if self.short_rate is None:
            self.short_rate = self._proxy_short_rate()

    def _proxy_short_rate(self) -> float:
        taus = self._taus
        logp = np.log(self._prices)
        if taus[0] >= SHORT_RATE_TENOR:
            return float(-logp[0] / taus[0])
        u = min(SHORT_RATE_TENOR, taus[-1])
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


def ls_objective(model: str, params, xs: CrossSection) -> float:
    """Mean squared price error (1/I) sum_i (market_i - model_i)^2, the
    objective ``calibrate`` minimizes.

    The whole cross-section is priced by one broadcast call, and the
    squares are added left to right, quote by quote, so the value equals a
    per-quote loop bit for bit.  When a model price or a residual term is
    not finite the per-quote loop itself runs instead, so an overflow
    raises where and what the scalar arithmetic raises.
    """
    t = _identified_offset(xs)
    prices = xs._prices
    model_p = _model_price(model, params, xs, t + xs._taus)
    # libm.square: pow(x, 2) as a float's ** computes it, inf on overflow
    with np.errstate(over="ignore"):
        err = np.cumsum(libm.square(prices - model_p))[-1]
    if not math.isfinite(err):
        err = np.float64(0.0)  # the broadcast path's result type
        for tau, price in xs.quotes:
            err += (price - _model_price(model, params, xs, t + tau)) ** 2
    return err / float(len(xs.quotes))


def section_objective(model: str, xs: CrossSection):
    """The ``ls_objective`` of one cross-section as a function of
    the volatility parameters alone: f(sigma) for holee, f(a, sigma) for
    hullwhite.

    The curve terms, which no parameter moves, are computed here once, as
    the arrays the broadcast pricing computes them.  Each evaluation is
    then one loop over the quotes in Python floats that repeats the
    per-quote path's operations in its order (math.exp, ** 2, a left to
    right sum), so the value equals ``ls_objective`` bit for bit, and an
    overflow raises what the per-quote path raises, at the same quote.
    """
    if model == "holee":
        return _holee_loops(xs)[0]
    t = _identified_offset(xs)
    if model != "hullwhite":
        raise ValueError(f"unknown model {model!r}")
    tau, market, fwd = curve_terms(xs.curve, t, t + xs._taus)
    r, n = float(xs.short_rate), float(len(xs.quotes))
    terms = list(zip(market.tolist(), xs._prices.tolist()))

    def hullwhite(a: float, sigma: float) -> float:
        variance = sigma**2 * (-math.expm1(-2.0 * a * t)) / (4.0 * a)
        err = 0.0
        for b, (m, price) in zip(decay_loading(a, tau).tolist(), terms):
            err += (price - math.exp(m + (b * fwd - variance * b**2 - b * r))) ** 2
        return err / n

    return hullwhite


def _holee_loops(xs: CrossSection):
    """The two loops of a Ho-Lee section over one list of prepared terms.

    Returns (value, slope, t, k0).  ``value(sigma)`` is the section
    objective f.  The objective moves with sigma only through
    k = sigma^2 t / 2: the model prices are q_i = A_i exp(-k tau_i^2), so
    with d_i = p_i - q_i, f'(k) = (2/n) sum d_i q_i tau_i^2 and
    f''(k) = (2/n) sum tau_i^4 q_i (q_i - d_i).  ``slope(k)`` returns
    (f, f', f'') at k; its f is ``value``'s bit for bit when k is computed
    as ``value`` computes it.  k0 is the linearised fit
    sum tau^2 (ln A - ln p) / sum tau^4.
    """
    t = _identified_offset(xs)
    prices = xs._prices
    tau, market, fwd = curve_terms(xs.curve, t, t + xs._taus)
    r, n = float(xs.short_rate), float(len(prices))
    tau_fwd, tau2, tau_rate = tau * fwd, libm.square(tau), tau * r
    k0 = float(np.dot(tau2, market + tau_fwd - tau_rate - np.log(prices))
               / np.dot(tau2, tau2))
    terms = list(zip(
        market.tolist(), tau_fwd.tolist(), tau2.tolist(), tau_rate.tolist(), prices.tolist(),
    ))

    def value(sigma: float) -> float:
        k = 0.5 * sigma**2 * t
        err = 0.0
        for m, tau_f, tau_sq, tau_r, price in terms:
            err += (price - math.exp(m + (tau_f - k * tau_sq - tau_r))) ** 2
        return err / n

    def slope(k: float) -> tuple[float, float, float]:
        err = grad = curv = 0.0
        for m, tau_f, tau_sq, tau_r, price in terms:
            q = math.exp(m + (tau_f - k * tau_sq - tau_r))
            d = price - q
            err += d**2
            w = q * tau_sq
            grad += d * w
            curv += w * tau_sq * (q - d)
        return err / n, 2.0 * grad / n, 2.0 * curv / n

    return value, slope, t, k0


def _safeguarded_newton(slope, a: float, b: float, k: float) -> float:
    """A root of f' in [a, b], given f'(a) < 0 <= f'(b), from the start k.

    Newton steps on f' ("rtsafe", Press et al., Numerical Recipes, 9.4):
    each evaluation shrinks the bracket by the sign of f'.  A step that
    would leave the open bracket, or one where f'' <= 0, is replaced by the
    geometric midpoint of the bracket, since k spans many decades.  Stops
    after a step of at most _NEWTON_RTOL relative in k, before a step that
    could lower f by no more than f's own rounding (f'^2 / f'' <= eps f),
    when the bracket is _NEWTON_RTOL narrow, or after _NEWTON_MAXITER
    evaluations.
    """
    k = min(max(k, a), b)
    for _ in range(_NEWTON_MAXITER):
        err, grad, curv = slope(k)
        if grad < 0.0:
            a = k
        else:
            b = k
        if b - a <= _NEWTON_RTOL * b:
            break
        if curv > 0.0:
            step = grad / curv
            if abs(step) <= _NEWTON_RTOL * k:
                return k - step
            if grad * step <= _EPS * err:
                return k
            if a < k - step < b:
                k -= step
                continue
        k = math.sqrt(a * b)
    return k


def calibrate(model: str, xs: CrossSection) -> CalibrationResult:
    """Fit the volatility parameters to one cross-section.

    Constant-vol model: a safeguarded Newton iteration on the slope of the
    objective in k = sigma^2 t / 2, bracketed by the ends of sigma in
    [1e-5, 2] and started from the linearised fit; an end where the slope
    already points outwards is not searched.  The result counts as
    converged only when it beats both ends of that range.  Otherwise the
    better end is returned, unconverged, so a search that stalls on a
    bound is flagged and never returns a sigma worse than that bound.
    Damped-vol model: Nelder-Mead on (log a, log sigma) from 8
    deterministic starts spread over the admissible box a in [1e-4, 5],
    sigma in [1e-5, 2], each stopped after _HW_MAXITER iterations.
    Non-convergence is flagged, not raised; the best point found is still
    returned.

    The searches evaluate ``section_objective`` (Ho-Lee: its loop and the
    slope loop over the same prepared terms); the objective returned for
    the chosen parameters is ``ls_objective``'s, the same value.
    """
    if model == "holee":
        value, slope, t, k0 = _holee_loops(xs)
        lo, hi = SIGMA_BOUNDS
        k_lo, k_hi = 0.5 * lo**2 * t, 0.5 * hi**2 * t
        f_lo, grad_lo, _ = slope(k_lo)
        f_hi, grad_hi, _ = slope(k_hi)
        end_value, end = min((f_lo, lo), (f_hi, hi))
        converged = False
        if grad_lo < 0.0 <= grad_hi:
            k = _safeguarded_newton(slope, k_lo, k_hi, k0)
            sigma = min(max(math.sqrt(k / (0.5 * t)), lo), hi)
            converged = value(sigma) < end_value
        params = HoLeeParams(sigma=sigma if converged else end)
        return CalibrationResult(
            params=params,
            objective=ls_objective(model, params, xs),
            converged=converged,
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
                    "maxiter": _HW_MAXITER,
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


def calibrate_series(model: str, sections: list[CrossSection]) -> CalibrationSeries:
    """Calibrate each dated cross-section independently, on the curve it
    carries.

    Single-date domain failures are recorded in the series; only a fully
    failed series raises, and any other exception (a bug) propagates.
    """
    if not sections:
        raise ValueError("no cross-sections supplied")
    records = []
    for xs in sections:
        try:
            result = calibrate(model, xs)
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
