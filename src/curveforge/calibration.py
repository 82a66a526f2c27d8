"""Cross-sectional least-squares calibration of the forward-curve models.

A cross-section is one day's set of zero-coupon quotes.  Calibration
minimizes the unweighted mean squared error between quoted and model prices
(price residuals, not yield residuals).  Each section is calibrated on the
curve it carries; choosing that curve (one fixed initial curve for a whole
window, or a rolling anchor) is the caller's business.

At a fixed reversion speed a both models' prices take one form, in which
sigma enters only through a variance v, and sigma is fitted by one
safeguarded Newton iteration on the objective's closed-form slope in v.
Ho-Lee is that one search.  Hull-White profiles sigma out and searches the
profile over a; only its refine in a runs ``scipy.optimize.minimize``,
which is imported on its first call (``minimize`` below), so loading this
module does not load scipy.
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
# Hull-White's profile in a: grid points over A_BOUNDS, and the refine's
# tolerance in log a (bounded Brent adds sqrt(eps) |log a| to it)
_A_GRID = 100
_A_XTOL = 1e-10
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
        if not all(t > 0 for t in taus):
            raise OrderingError("quote maturities must lie strictly after asof")
        if len(set(taus)) != len(taus):
            raise AmbiguityError("two quotes share a maturity; drop one")
        if not all(0 < p < math.inf for _, p in self.quotes):
            raise ValueError("quoted prices must be positive and finite")
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


def _section_loops(xs: CrossSection):
    """A section's objective at a fixed reversion speed a, with its curve
    looked up once.

    Returns ``loops``; ``loops(a)`` returns (value, slope, variance, v0)
    over one list of prepared terms.  At a fixed a the model prices are
    q_i = A_i exp(-v b_i^2) with ln A_i = m_i + b_i (f - r): Hull-White's
    with loadings b = (1 - e^{-a tau}) / a and
    v = variance(sigma) = sigma^2 (1 - e^{-2at}) / (4a), and at a = 0
    Ho-Lee's, with b = tau and v = sigma^2 t / 2 (Brigo & Mercurio,
    2nd ed., 3.3).  ``value(v)`` is the section objective f.  It repeats
    the per-quote path's operations in its order (math.exp, ** 2, a left to
    right sum), so f(variance(sigma)) equals ``ls_objective`` bit for bit,
    and an overflow raises what the per-quote path raises, at the same
    quote.  With d_i = p_i - q_i, f'(v) = (2/n) sum d_i q_i b_i^2 and
    f''(v) = (2/n) sum b_i^4 q_i (q_i - d_i); ``slope(v)`` returns
    (f, f', f''), its f ``value``'s bit for bit.  v0 is the linearised fit
    sum b^2 (ln A - ln p) / sum b^4.
    """
    t = _identified_offset(xs)
    prices = xs._prices
    tau, market, fwd = curve_terms(xs.curve, t, t + xs._taus)
    r, n = float(xs.short_rate), float(len(prices))
    log_prices = np.log(prices)
    market_list, price_list = market.tolist(), prices.tolist()

    def loops(a: float):
        if a == 0.0:
            b = tau

            def variance(sigma: float) -> float:
                return 0.5 * sigma**2 * t
        else:
            b = decay_loading(a, tau)
            scale = -math.expm1(-2.0 * a * t)

            def variance(sigma: float) -> float:
                return sigma**2 * scale / (4.0 * a)

        b_fwd, b2, b_rate = b * fwd, libm.square(b), b * r
        v0 = float(np.dot(b2, market + b_fwd - b_rate - log_prices) / np.dot(b2, b2))
        terms = list(zip(
            market_list, b_fwd.tolist(), b2.tolist(), b_rate.tolist(), price_list,
        ))

        def value(v: float) -> float:
            err = 0.0
            for m, b_f, b_sq, b_r, price in terms:
                err += (price - math.exp(m + (b_f - v * b_sq - b_r))) ** 2
            return err / n

        def slope(v: float) -> tuple[float, float, float]:
            err = grad = curv = 0.0
            for m, b_f, b_sq, b_r, price in terms:
                q = math.exp(m + (b_f - v * b_sq - b_r))
                d = price - q
                err += d**2
                w = q * b_sq
                grad += d * w
                curv += w * b_sq * (q - d)
            return err / n, 2.0 * grad / n, 2.0 * curv / n

        return value, slope, variance, v0

    return loops


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


def _sigma_search(value, slope, variance, v0: float):
    """The sigma in SIGMA_BOUNDS that minimizes value(variance(sigma)).

    The arguments are what ``_section_loops`` returns for one a.  A
    safeguarded Newton iteration on the slope in v, bracketed by the ends
    of SIGMA_BOUNDS and started from v0; an end where the slope already
    points outwards is not searched.  Returns (sigma, f, converged).  The
    result counts as converged only when it beats both ends; otherwise the
    better end is returned, unconverged, so a search that stalls on a bound
    is flagged and never returns a sigma worse than that bound.
    """
    lo, hi = SIGMA_BOUNDS
    v_lo, v_hi = variance(lo), variance(hi)
    f_lo, grad_lo, _ = slope(v_lo)
    f_hi, grad_hi, _ = slope(v_hi)
    end_value, end = min((f_lo, lo), (f_hi, hi))
    if grad_lo < 0.0 <= grad_hi:
        v = _safeguarded_newton(slope, v_lo, v_hi, v0)
        sigma = min(max(math.sqrt(v / variance(1.0)), lo), hi)
        f = value(variance(sigma))
        if f < end_value:
            return sigma, f, True
    return end, end_value, False


def calibrate(model: str, xs: CrossSection) -> CalibrationResult:
    """Fit the volatility parameters to one cross-section.

    Both models go through ``_sigma_search``.  Constant-vol model: one
    search, with loadings tau.  Damped-vol model: variable projection
    (Golub & Pereyra, Inverse Problems 19, 2003).  The profile
    f(a) = min_sigma f(a, sigma), each value one search with loadings
    (1 - e^{-a tau}) / a, is evaluated on _A_GRID log-spaced a over
    A_BOUNDS, and every local minimum of that grid is refined in log a
    between its neighbours by ``minimize``: one Powell sweep, which in one
    dimension is one bounded Brent search (a second sweep would only repeat
    it over the same bracket).  The better end of A_BOUNDS
    wins unless a refined minimum beats it.  A fit is converged when its
    sigma search converged and a lies strictly inside A_BOUNDS.
    Non-convergence is flagged, not raised; the best point found is still
    returned.  The objective returned for the chosen parameters is
    ``ls_objective``'s, the value the searches minimized.
    """
    if model == "holee":
        sigma, _, converged = _sigma_search(*_section_loops(xs)(0.0))
        params = HoLeeParams(sigma=sigma)
    elif model == "hullwhite":
        if len(xs.quotes) < 2:
            raise ValueError("damped-vol calibration needs at least two quotes")
        loops = _section_loops(xs)

        def profile(a: float):
            return (a, *_sigma_search(*loops(a)))

        def profile_value(x) -> float:
            return profile(math.exp(x[0]))[2]

        fits = [profile(a) for a in np.geomspace(*A_BOUNDS, _A_GRID).tolist()]
        candidates = [fits[0], fits[-1]]
        logs = [math.log(a) for a, *_ in fits]
        values = [math.inf] + [f for _, _, f, _ in fits] + [math.inf]
        for i in range(_A_GRID):
            if values[i] > values[i + 1] <= values[i + 2]:
                res = minimize(
                    profile_value,
                    np.array([logs[i]]),
                    method="Powell",
                    bounds=[(logs[max(i - 1, 0)], logs[min(i + 1, _A_GRID - 1)])],
                    options={"xtol": _A_XTOL, "maxiter": 1},
                )
                candidates.append(profile(math.exp(res.x[0])))
        a, sigma, _, sigma_converged = min(candidates, key=lambda fit: fit[2])
        converged = sigma_converged and A_BOUNDS[0] < a < A_BOUNDS[1]
        params = HullWhiteParams(a=a, sigma=sigma)
    else:
        raise ValueError(f"unknown model {model!r}")
    return CalibrationResult(
        params=params,
        objective=ls_objective(model, params, xs),
        converged=converged,
    )


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
