"""Discount curves bootstrapped from bond quotes.

A curve is a set of (maturity, discount factor) pillars interpolated
log-linearly in the discount factor, i.e. piecewise-constant instantaneous
forwards with an implicit anchor P(0) = 1.  At pillar knots the forward is
the right-hand limit.  Queries beyond the last pillar raise unless the curve
was built with flat extrapolation, in which case the final forward is held.
"""

from __future__ import annotations

import datetime as dt
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bonds import CouponBond, ytm_from_price
from .daycount import year_fraction
from .errors import AmbiguityError, ExtrapolationError, OrderingError

SHORT_ANCHOR_TENOR = 0.5


@dataclass
class DiscountCurve:
    """Log-linear discount curve over positive maturities.

    pillars: ((tau_1, P_1), ..., (tau_n, P_n)) with 0 < tau_1 < ... < tau_n
    and every P_i in (0, 1].  Pillar discount factors are not required to be
    decreasing -- a curve can legitimately represent an arbitrageable market
    so the audit tools can inspect it.
    """

    pillars: tuple[tuple[float, float], ...]
    flat_extrapolation: bool = False
    asof: dt.date | None = None
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _logdfs: np.ndarray = field(init=False, repr=False, compare=False)
    _fwds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pillars = tuple((float(t), float(p)) for t, p in self.pillars)
        if not self.pillars:
            raise ValueError("a discount curve needs at least one pillar")
        taus = np.array([t for t, _ in self.pillars])
        dfs = np.array([p for _, p in self.pillars])
        if taus[0] <= 0:
            raise OrderingError("pillar maturities must be positive")
        if np.any(np.diff(taus) <= 0):
            raise OrderingError("pillar maturities must be strictly increasing")
        if np.any(dfs <= 0) or np.any(dfs > 1):
            raise ValueError("pillar discount factors must lie in (0, 1]")
        self._knots = np.concatenate(([0.0], taus))
        self._logdfs = np.concatenate(([0.0], np.log(dfs)))
        self._fwds = -np.diff(self._logdfs) / np.diff(self._knots)

    @property
    def span(self) -> float:
        """Largest pillar maturity."""
        return float(self._knots[-1])

    def _past_span(self, t: np.ndarray, lookup: str, beyond: str) -> bool:
        """Whether any t lies past the span.  A negative t is refused first,
        then, without flat extrapolation, a t past the span; NaN passes.
        ``lookup`` and ``beyond`` open the two errors' messages."""
        # fmin and fmax skip NaN, and their initial 0 covers an empty t
        lo, hi = ((np.fmin.reduce(t, None, initial=0.0), np.fmax.reduce(t, None, initial=0.0))
                  if t.ndim else (float(t),) * 2)
        if lo < 0:
            raise OrderingError(f"{lookup} requested at negative maturity")
        past = hi > self.span
        if past and not self.flat_extrapolation:
            raise ExtrapolationError(f"{beyond} beyond curve span {self.span:.6g} "
                                     "(enable flat extrapolation to allow)")
        return past

    def log_discount(self, t):
        """log P(0, t); scalar in, scalar out (arrays broadcast)."""
        t_arr = np.asarray(t, dtype=float)
        past = self._past_span(t_arr, "discount", "maturity")
        # np.interp holds the last knot's value at and beyond the span
        out = np.interp(t_arr, self._knots, self._logdfs)
        if past:
            out = out - self._fwds[-1] * np.where(t_arr > self.span, t_arr - self.span, 0.0)
        return out if t_arr.ndim else float(out)

    def discount(self, t):
        """P(0, t) = exp(log_discount(t)); P(0, 0) = 1 exactly."""
        out = np.exp(self.log_discount(t))
        return out if np.asarray(t).ndim else float(out)

    def forward(self, t):
        """Instantaneous forward f(0, t); right-limit at pillar knots.

        At t == span the final segment's forward is returned; beyond it the
        flat-extrapolation flag governs.
        """
        t_arr = np.asarray(t, dtype=float)
        self._past_span(t_arr, "forward", "forward")
        # t's segment among the interior knots; the last holds from the span on
        out = self._fwds[self._knots[1:-1].searchsorted(t_arr, side="right")]
        return out if t_arr.ndim else float(out)


def flat_curve(
    rate: float,
    span: float = 30.0,
    n_pillars: int = 30,
    asof: dt.date | None = None,
    flat_extrapolation: bool = False,
) -> DiscountCurve:
    """Curve with a constant continuously-compounded zero rate."""
    taus = np.linspace(span / n_pillars, span, n_pillars)
    pillars = tuple((float(t), float(np.exp(-rate * t))) for t in taus)
    return DiscountCurve(pillars, flat_extrapolation=flat_extrapolation, asof=asof)


def build_initial_curve(
    quotes: list[tuple[CouponBond, dt.date, float]],
    clean: bool = False,
    flat_extrapolation: bool = False,
) -> DiscountCurve:
    """Bootstrap a discount curve from dirty bond quotes.

    Each quote (bond, settlement, price) is converted to a yield to maturity
    and then to a zero-coupon pillar exp(-y * tau) at the bond's maturity.
    All quotes must share a settlement date and have distinct maturities.
    A missing short anchor (no pillar at tau <= 0.5) and non-decreasing
    discount factors are tolerated but trigger a warning, since both leave
    the short or long end of the curve poorly pinned down.
    """
    if len(quotes) < 2:
        raise AmbiguityError("need at least two quotes to build a curve")
    settlements = {settlement for _, settlement, _ in quotes}
    if len(settlements) != 1:
        raise AmbiguityError("all quotes must share a settlement date")
    settlement = settlements.pop()

    pillars = []
    for bond, _, price in quotes:
        y = ytm_from_price(bond, settlement, price, clean=clean)
        tau = year_fraction(settlement, bond.maturity)
        pillars.append((tau, float(np.exp(-y * tau))))
    pillars.sort(key=lambda tp: tp[0])

    taus = [t for t, _ in pillars]
    if len(set(taus)) != len(taus):
        raise AmbiguityError("two quotes share a maturity; drop one")
    if taus[0] > SHORT_ANCHOR_TENOR:
        warnings.warn(
            f"no quote at or below {SHORT_ANCHOR_TENOR}y; short end of the "
            "curve is anchored only by P(0)=1",
            stacklevel=2,
        )
    dfs = [p for _, p in pillars]
    if any(b >= a for a, b in zip(dfs, dfs[1:])):
        warnings.warn(
            "bootstrapped discount factors are not strictly decreasing; "
            "curve admits static arbitrage (see diagnostics)",
            stacklevel=2,
        )
    return DiscountCurve(
        tuple(pillars), flat_extrapolation=flat_extrapolation, asof=settlement
    )
