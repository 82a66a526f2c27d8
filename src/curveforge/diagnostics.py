"""Static-arbitrage audits and price-surface generation.

A discount curve that is anywhere increasing in maturity hands out a free
lunch: sell the richer long bond, buy the cheaper short one.  This module
flags such inversions in any ordered price list, evaluates the closed-form
maturity derivative of the two-factor model price (whose sign makes the
same statement locally), and builds date-by-maturity price surfaces on the
standard tenor grid.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import libm
from .curve import DiscountCurve
from .errors import DATA_ERRORS, OrderingError, PriceRangeError
from .estimation import StateSeries
from .hjm import holee_price, hullwhite_price
from .models import MODELS
from .shortrate import G2Params, G2State, decay_loading, g2pp_price, vasicek_price

#: Tenor grid (year fractions) used for surfaces: 1, 2, 3, 6, 9 months and
#: 1, 2, 3, 5, 7, 10, 15, 20, 25 years.
MATURITY_GRID = (
    1.0 / 12.0,
    2.0 / 12.0,
    3.0 / 12.0,
    6.0 / 12.0,
    9.0 / 12.0,
    1.0,
    2.0,
    3.0,
    5.0,
    7.0,
    10.0,
    15.0,
    20.0,
    25.0,
)

_SIGN_SCAN_POINTS = 241
_BISECT_STEPS = 40
# bisection levels differentiated per g2pp_dPdT call: the 2^5 - 1 midpoints
# a bracket may visit in its next five steps
_BISECT_LEVELS = 5
# the grid of find_increasing_price_state: state times, and the maturities
# after each (1 to 25 years, every quarter)
_SEARCH_TIMES = (0.0, 0.5, 1.0)
_SEARCH_TAUS = np.linspace(1.0, 25.0, 97)


def check_violation(t_lo: float, t_hi: float, p_lo: float, p_hi: float) -> None:
    """Raise ValueError unless T_low < T_high and P_low < P_high."""
    if not (t_lo < t_hi and p_lo < p_hi):
        raise ValueError(
            f"malformed violation ({t_lo}, {t_hi}, {p_lo}, {p_hi}): "
            "requires T_low < T_high and P_low < P_high"
        )


class Violations(Sequence):
    """An audit's violations: the (T_low, T_high, P_low, P_high) tuples of
    the rows of an index table, in row-major order, read on demand.

    ``rows[i]`` holds the indices of violation i's four values in the float
    array ``fields``; the length is the row count.  The rows are taken as
    violations without a check, as ``check_monotone`` makes them.
    """

    __slots__ = ("fields", "rows")
    __hash__ = None

    def __init__(self, fields: np.ndarray, rows: np.ndarray):
        self.fields = fields
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [tuple(row) for row in self.fields[self.rows[i]].tolist()]
        return tuple(self.fields[self.rows[i]].tolist())

    def __iter__(self):
        return map(tuple, self.fields[self.rows].tolist())

    def __eq__(self, other):
        if isinstance(other, (list, tuple, Violations)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class ArbitrageReport:
    """Outcome of a static-arbitrage audit.

    violations lists every pair (T_low, T_high, P_low, P_high) with
    T_low < T_high and P_low < P_high — a longer bond priced strictly above
    a shorter one.  derivative_sign_changes lists maturities where the
    analytic dP/dT crosses zero (populated by the derivative scan only).

    Every report holds its violations as an index table, which the writers
    read: ``rows[i]`` gives the indices of violation i's four values in the
    float array ``fields``.  An audit's violations are a ``Violations``
    view of its table, whose fields are the audited maturities and prices.
    A list of tuples is kept as given, after every row is checked, and the
    distinct floats of its rows become the fields, told apart by bit
    pattern, so -0.0 and 0.0 each keep their own; such a list is not to be
    edited afterwards.
    """

    violations: Sequence[tuple[float, float, float, float]]
    derivative_sign_changes: list[float] = field(default_factory=list)
    fields: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.violations, Violations):
            self.fields, self.rows = self.violations.fields, self.violations.rows
            return
        table = np.asarray(self.violations, dtype=float).reshape(len(self.violations), 4)
        ok = (table[:, 0] < table[:, 1]) & (table[:, 2] < table[:, 3])
        if not ok.all():
            check_violation(*self.violations[int(np.argmin(ok))])
        bits, index = np.unique(table.view(np.int64), return_inverse=True)
        self.fields = bits.view(np.float64)
        self.rows = index.reshape(table.shape)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.derivative_sign_changes


@dataclass
class PriceSurface:
    """Zero prices per date on the standard tenor grid.

    values[i, j] is the model price at dates[i] for tenor maturities[j];
    cells whose evaluation failed hold nan and carry an entry in failures.
    The dates are all ``datetime.date`` or all numeric times, as
    ``fileio.ingest_surface`` reads them back.
    """

    dates: list[dt.date] | list[float]
    maturities: tuple[float, ...]
    values: np.ndarray
    failures: list[tuple[int, float, str]] = field(default_factory=list)

    def __post_init__(self):
        if len({isinstance(d, dt.date) for d in self.dates}) > 1:
            raise ValueError("surface dates mix calendar dates and numeric times")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.dates), len(self.maturities)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.maturities)} maturities"
            )
        finite = self.values[np.isfinite(self.values)]
        if finite.size and (np.any(finite <= 0.0) or np.any(finite > 1.0)):
            raise ValueError("surface prices must lie in (0, 1]")


def g2pp_dPdT(
    params: G2Params, curve: DiscountCurve, state: G2State, T: float
) -> float:
    """Closed-form maturity derivative dP(t,T)/dT of the two-factor price.

    d log P / dT = -f(0,T) + (D(T-t) - D(T))/2 - e^{-a tau} x - e^{-b tau} y
    with D(u) = sigma^2 B_a(u)^2 + eta^2 B_b(u)^2
                + 2 rho sigma eta B_a(u) B_b(u),
    the T-derivative of the price variance over [., T].  The market forward
    f(0,T) is the curve's own analytic (piecewise-constant) forward, so the
    result is the exact derivative of g2pp_price between curve pillars.
    D is evaluated at tau and at T in one call.  Broadcasts over array
    maturities and state fields; scalar in, scalar out.
    """
    t = state.t
    early = T <= t
    if libm.anywhere(early):
        T, t = libm.first_where(early, T, t)
        raise OrderingError(f"maturity {T} must exceed valuation time {t}")
    a, b = params.a, params.b
    sigma, eta, rho = params.sigma, params.eta, params.rho
    tau = T - t

    def dvar(u):
        ba = decay_loading(a, u)
        bb = decay_loading(b, u)
        return (
            libm.square(sigma * ba)
            + libm.square(eta * bb)
            + 2.0 * rho * sigma * eta * ba * bb
        )

    horizons, split = libm.concatenated(tau, T)
    dvar_tau, dvar_T = split(dvar(horizons))
    dlog = (
        -curve.forward(T)
        + 0.5 * (dvar_tau - dvar_T)
        - libm.exp(-a * tau) * state.x
        - libm.exp(-b * tau) * state.y
    )
    out = g2pp_price(params, curve, state, T) * dlog
    return out if isinstance(out, np.ndarray) else float(out)


def check_monotone(prices: list[tuple[float, float]]) -> ArbitrageReport:
    """Audit an ordered (maturity, price) list for price inversions.

    Reports every pair — adjacent or not — where the longer maturity is
    priced strictly above the shorter one, in row-major (shorter, longer)
    order.  One comparison of all prices against all prices finds the
    pairs; their index arrays into the maturities and prices are the
    report's table, read as tuples only on demand (``Violations``), and no
    pair is checked again.  The report is empty exactly when prices are
    non-increasing in maturity.  A price of 0 or below (a model price that
    underflowed, say) raises ``PriceRangeError`` naming the first one.
    """
    table = np.asarray(prices, dtype=float).reshape(-1, 2)
    taus, values = table[:, 0], table[:, 1]
    if np.any(taus[1:] <= taus[:-1]):
        raise OrderingError("maturities must be strictly increasing")
    nonpositive = values <= 0
    if nonpositive.any():
        price, tau = libm.first_where(nonpositive, values, taus)
        raise PriceRangeError(f"prices must be positive; price {price} at maturity {tau}")
    lo, hi = np.nonzero(np.triu(values[None, :] > values[:, None], 1))
    # the pairs index the n maturities and n prices rather than copying them
    n = len(taus)
    rows = np.column_stack((lo, hi, lo + n, hi + n))
    return ArbitrageReport(violations=Violations(table.T.ravel(), rows))


def scan_derivative_signs(
    params: G2Params,
    curve: DiscountCurve,
    state: G2State,
    tau_lo: float = 1.0 / 12.0,
    tau_hi: float = 25.0,
    n_points: int = _SIGN_SCAN_POINTS,
) -> ArbitrageReport:
    """Locate maturities where the analytic dP/dT changes sign.

    Audits the model prices at the scanned maturities for inversions and
    bisects each bracketing interval of the derivative to locate the
    crossing; both results land in one report.  The scan prices and
    differentiates all maturities in one call each.  The bisection then
    differentiates, in one call for all open brackets, every midpoint the
    next _BISECT_LEVELS steps may visit (``_midpoint_tree``) and walks the
    steps on those values, so an audit makes at most
    1 + ceil(_BISECT_STEPS / _BISECT_LEVELS) derivative calls.  A grid
    point where the derivative is exactly zero is a crossing itself, except
    the last one (``tau_hi``): a crossing is looked for in the intervals
    that start at each grid point, and the scan has none after its end.
    """
    if tau_hi <= tau_lo:
        raise OrderingError("scan interval is empty")
    taus = np.linspace(tau_lo, tau_hi, n_points)
    maturities = state.t + taus
    derivs = g2pp_dPdT(params, curve, state, maturities)
    d0, d1 = derivs[:-1], derivs[1:]
    bracket = np.flatnonzero(d0 * d1 < 0.0)
    # [lo, hi, dP/dT at lo] of each bracket, as floats
    brackets = [
        list(b)
        for b in zip(
            maturities[bracket].tolist(), maturities[bracket + 1].tolist(), d0[bracket].tolist()
        )
    ]
    open_ = brackets
    for done in range(0, _BISECT_STEPS, _BISECT_LEVELS):
        if not open_:
            break
        levels = min(_BISECT_LEVELS, _BISECT_STEPS - done)
        trees = [_midpoint_tree(lo, hi, levels) for lo, hi, _ in open_]
        derivs = g2pp_dPdT(params, curve, state, np.array(trees)).tolist()
        open_ = [b for b, mids, dms in zip(open_, trees, derivs) if _walk(b, mids, dms, levels)]
    crossings = maturities[:-1].copy()
    crossings[bracket] = [0.5 * (lo + hi) for lo, hi, _ in brackets]
    found = d0 == 0.0
    found[bracket] = True
    prices = g2pp_price(params, curve, state, maturities)
    report = check_monotone(np.column_stack((taus, prices)))
    report.derivative_sign_changes = crossings[found].tolist()
    return report


def _midpoint_tree(lo: float, hi: float, levels: int) -> list[float]:
    """The midpoints the next ``levels`` bisection steps of [lo, hi] may
    visit, in heap order: entry i halves its bracket, entry 2i + 1 halves
    the lower half of it and entry 2i + 2 the upper half.  Each is
    0.5 * (lo + hi) of its own bracket, as one step computes it."""
    ends = [(lo, hi)]
    mids = []
    for i in range(2**levels - 1):
        a, b = ends[i]
        mid = 0.5 * (a + b)
        mids.append(mid)
        ends += [(a, mid), (mid, b)]
    return mids


def _walk(bracket: list, mids: list[float], dms: list[float], levels: int) -> bool:
    """Take ``levels`` bisection steps of ``bracket`` ([lo, hi, dP/dT at
    lo], updated in place) on the derivatives ``dms`` at its midpoint tree
    ``mids``; return whether the bracket is still open.  A midpoint with the
    sign of lo replaces lo, an exact zero closes the bracket on itself, any
    other replaces hi."""
    i = 0
    for _ in range(levels):
        mid, dm = mids[i], dms[i]
        if dm == 0.0:
            bracket[:2] = mid, mid
            return False
        if (dm > 0) == (bracket[2] > 0):
            bracket[0], bracket[2] = mid, dm
            i = 2 * i + 2
        else:
            bracket[1] = mid
            i = 2 * i + 1
    return True


def find_increasing_price_state(
    params: G2Params, curve: DiscountCurve, magnitude: float = 0.2
) -> tuple[G2State, float, float] | None:
    """Deterministic grid search for a state with increasing bond prices.

    Scans the two opposite-sign factor configurations (+m, -m) and (-m, +m)
    at the state times _SEARCH_TIMES and the maturities _SEARCH_TAUS after
    each, and returns the (state, T, dP/dT) triple with the largest
    positive derivative (the first one on ties), or None when every point
    has non-positive slope.  Each state's maturities are differentiated in
    one call.
    """
    best: tuple[G2State, float, float] | None = None
    for x, y in ((magnitude, -magnitude), (-magnitude, magnitude)):
        for t in _SEARCH_TIMES:
            state = G2State(x=x, y=y, t=t)
            maturities = t + _SEARCH_TAUS
            derivs = g2pp_dPdT(params, curve, state, maturities)
            for T, deriv in zip(maturities.tolist(), derivs.tolist()):
                if deriv > 0.0 and (best is None or deriv > best[2]):
                    best = (state, T, deriv)
    return best


def _surface_pricer(model: str, params, curve, times, values):
    """price(rows, T): the model price of the state rows at maturities T.

    Rows are an index array (one broadcast call) or one index.  An unknown
    model, a params object of the wrong type or a missing curve is refused
    here, up front.
    """
    spec = MODELS.get(model)
    if spec is None:
        raise ValueError(f"unknown model {model!r}")
    if not isinstance(params, spec.params):
        raise TypeError(f"{model} surface needs {spec.params.__name__}")
    if spec.needs_curve and curve is None:
        raise ValueError(f"{model} surface needs a curve")

    def price(rows, T):
        t = times[rows]
        if model == "vasicek":
            return vasicek_price(params, values[rows], t, T)
        if model == "g2pp":
            state = G2State(x=values[rows, 0], y=values[rows, 1], t=t)
            return g2pp_price(params, curve, state, T)
        if model == "holee":
            return holee_price(params, curve, values[rows], t, T)
        return hullwhite_price(params, curve, values[rows], t, T)

    return price


def build_surface(
    model: str,
    params,
    states: StateSeries,
    curve: DiscountCurve,
) -> PriceSurface:
    """Price every date of a state series on the standard tenor grid.

    One broadcast call of the model's closed-form price fills the grid.
    A failing cell is recorded and left as nan without poisoning the rest
    of the surface.  Cells at a negative state time, cells beyond the span
    of a curve without flat extrapolation and cells whose price overflows
    are priced again one by one, so each carries the error its own scalar
    call raises; a price outside (0, 1] fails its cell too.  The failures
    are those of pricing every cell alone.  An unknown model, a params
    object of the wrong type or a missing curve fails every cell; any other
    exception is a bug and propagates.
    """
    times = np.asarray(states.times, dtype=float)
    if times.size == 0:
        raise ValueError("state series is empty")
    values = np.asarray(states.values, dtype=float)
    maturities = times[:, None] + np.asarray(MATURITY_GRID)
    grid = np.full(maturities.shape, np.nan)
    errors: dict[tuple[int, int], str] = {}
    try:
        price = _surface_pricer(model, params, curve, times, values)
    except (TypeError, ValueError) as exc:
        errors = {cell: str(exc) for cell in np.ndindex(grid.shape)}
    else:
        # cells that a negative state time or the curve's span may make fail
        # are left out of the broadcast call
        limited = curve is not None and not curve.flat_extrapolation
        span = curve.span if limited else np.inf
        alone = (times[:, None] < 0.0) | (maturities > span)
        rows, cols = np.nonzero(~alone)
        grid[rows, cols] = price(rows, maturities[rows, cols])
        alone |= np.isinf(grid)
        grid[alone] = np.nan
        for i, j in np.argwhere(alone).tolist():
            try:
                grid[i, j] = price(i, float(maturities[i, j]))
            except DATA_ERRORS as exc:
                errors[i, j] = str(exc)
        outside = ~((grid > 0.0) & (grid <= 1.0))
        for i, j in np.argwhere(outside).tolist():
            if (i, j) not in errors:
                errors[i, j] = f"price {float(grid[i, j])} outside (0, 1]"
                grid[i, j] = np.nan
    failures = [
        (i, MATURITY_GRID[j], message) for (i, j), message in sorted(errors.items())
    ]
    dates = states.dates if states.dates is not None else [float(t) for t in times]
    return PriceSurface(
        dates=dates,
        maturities=MATURITY_GRID,
        values=grid,
        failures=failures,
    )
