"""Coupon bond cash flows and yield computations.

Quotes are full (dirty) prices per 100 of face value by default; a flag on
the yield solver lets clean quotes be grossed up by linearly accrued coupon.
Yields are continuously compounded throughout.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

from .daycount import add_months, year_fraction
from .errors import NoSolutionError, OrderingError

YTM_BRACKET = (-0.5, 2.0)
YTM_TOL = 1e-10
_MAX_NEWTON_ITER = 200


@dataclass(frozen=True)
class CouponBond:
    """A fixed-coupon bullet bond.

    coupon_rate is the annual rate (e.g. 0.06 for 6%); frequency is the
    number of coupon payments per year; ``schedule_anchor`` is the issue or
    first-coupon date that trims the backward-generated coupon schedule.
    A zero-coupon bond has coupon_rate 0 and frequency 0.
    """

    bond_id: str
    face: float
    coupon_rate: float
    frequency: int
    maturity: dt.date
    schedule_anchor: dt.date | None = None

    def __post_init__(self):
        if self.face <= 0:
            raise ValueError(f"face must be positive, got {self.face}")
        if self.coupon_rate < 0:
            raise ValueError(f"coupon_rate must be >= 0, got {self.coupon_rate}")
        if self.frequency < 0:
            raise ValueError(f"frequency must be >= 0, got {self.frequency}")
        if self.coupon_rate > 0 and self.frequency == 0:
            raise ValueError("coupon-bearing bond needs a positive frequency")
        if self.schedule_anchor is not None and self.schedule_anchor >= self.maturity:
            raise OrderingError(
                f"schedule anchor {self.schedule_anchor} must precede maturity {self.maturity}"
            )

    def coupon_dates(self) -> list[dt.date]:
        """Coupon dates, strictly increasing, ending exactly at maturity.

        Generated by stepping back from maturity in whole coupon periods;
        dates at or before the schedule anchor are dropped.
        """
        if self.frequency == 0 or self.coupon_rate == 0.0:
            return [self.maturity]
        step = 12 // self.frequency
        if step * self.frequency != 12:
            raise ValueError(f"frequency {self.frequency} does not divide 12 months")
        dates = []
        k = 0
        while True:
            d = add_months(self.maturity, -step * k)
            if self.schedule_anchor is not None and d <= self.schedule_anchor:
                break
            if d <= self.maturity:
                dates.append(d)
            k += 1
            if k > 200 * self.frequency:  # two centuries of coupons is plenty
                break
        dates.reverse()
        return dates

    def cash_flows(self, settlement: dt.date) -> list[tuple[dt.date, float]]:
        """(date, amount) pairs strictly after settlement.

        The final flow is face plus the final coupon.  Raises OrderingError
        if settlement is on or after maturity.
        """
        if settlement >= self.maturity:
            raise OrderingError(
                f"settlement {settlement} is not before maturity {self.maturity}"
            )
        coupon = self.face * self.coupon_rate / self.frequency if self.frequency else 0.0
        flows = []
        for d in self.coupon_dates():
            if d <= settlement:
                continue
            amount = coupon
            if d == self.maturity:
                amount += self.face
            flows.append((d, amount))
        return flows

    def accrued_interest(self, settlement: dt.date) -> float:
        """Coupon accrued linearly from the previous coupon date (or the
        schedule anchor) to settlement."""
        if self.frequency == 0 or self.coupon_rate == 0.0:
            return 0.0
        dates = self.coupon_dates()
        nxt = None
        prev = self.schedule_anchor
        for d in dates:
            if d > settlement:
                nxt = d
                break
            prev = d
        if nxt is None or prev is None:
            return 0.0
        period = year_fraction(prev, nxt)
        if period <= 0:
            return 0.0
        coupon = self.face * self.coupon_rate / self.frequency
        return coupon * year_fraction(prev, settlement) / period


def present_value(bond: CouponBond, settlement: dt.date, y: float) -> float:
    """Dirty price of ``bond`` at a flat continuously-compounded yield."""
    pv = 0.0
    for d, amount in bond.cash_flows(settlement):
        pv += amount * math.exp(-y * year_fraction(settlement, d))
    return pv


def ytm_from_price(
    bond: CouponBond,
    settlement: dt.date,
    price: float,
    clean: bool = False,
) -> float:
    """Continuously compounded yield to maturity of a dirty quote.

    Solves sum_i c_i exp(-y tau_i) = price with a bisection-secured Newton
    iteration on the bracket [-0.5, 2.0], to |f(y)| < 1e-10.  With
    ``clean=True`` the accrued coupon is added to the quote first.
    """
    if price <= 0:
        raise NoSolutionError(f"price must be positive, got {price}")
    if clean:
        price = price + bond.accrued_interest(settlement)

    flows = [
        (year_fraction(settlement, d), amount)
        for d, amount in bond.cash_flows(settlement)
    ]

    def f(y: float) -> float:
        return sum(a * math.exp(-y * t) for t, a in flows) - price

    def fprime(y: float) -> float:
        return sum(-t * a * math.exp(-y * t) for t, a in flows)

    lo, hi = YTM_BRACKET
    flo, fhi = f(lo), f(hi)
    if flo < 0 or fhi > 0:
        # f is strictly decreasing in y, so no root can hide inside.
        raise NoSolutionError(
            f"no yield in [{lo}, {hi}] reproduces price {price} "
            f"(f({lo})={flo:.6g}, f({hi})={fhi:.6g})"
        )
    y = 0.5 * (lo + hi)
    for _ in range(_MAX_NEWTON_ITER):
        fy = f(y)
        if abs(fy) < YTM_TOL:
            return y
        if fy > 0:
            lo = y
        else:
            hi = y
        dfy = fprime(y)
        if dfy != 0.0:
            step = y - fy / dfy
        else:
            step = y
        # fall back to bisection whenever Newton leaves the bracket
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        y = step
    raise NoSolutionError(f"yield iteration did not converge for price {price}")
