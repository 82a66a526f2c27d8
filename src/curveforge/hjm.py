"""Forward-curve models driven by deterministic volatility.

Under the no-arbitrage restriction the forward drift is pinned to the
volatility,

    alpha(s, t) = sigma(s, t) * integral_s^t sigma(s, u) du,

so a model is fully specified by its volatility shape.  Two shapes are
supported: a constant sigma (parallel forward shocks) and an exponentially
damped sigma * exp(-a (t - s)).  Both yield Gaussian short rates and
closed-form zero prices expressed relative to an observed initial curve,
which is therefore reproduced exactly at time zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import libm
from .curve import DiscountCurve
from .errors import OrderingError
from .shortrate import decay_loading


@dataclass(frozen=True)
class HoLeeParams:
    """Constant forward-rate volatility."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class HullWhiteParams:
    """Damped forward-rate volatility sigma * exp(-a (t - s))."""

    a: float
    sigma: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class ShortRateState:
    """Short rate r observed at time t (years from the curve date)."""

    r: float
    t: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise OrderingError(f"state time must be >= 0, got {self.t}")


def hjm_drift(params: HoLeeParams | HullWhiteParams, s: float, t: float) -> float:
    """No-arbitrage forward drift alpha(s, t) for t >= s.

    The volatility integral is analytic for both supported shapes:
    constant vol gives sigma^2 (t - s); damped vol gives
    (sigma^2 / a) exp(-a(t-s)) (1 - exp(-a(t-s))).
    """
    if t < s:
        raise OrderingError(f"t={t} precedes s={s}")
    u = t - s
    if isinstance(params, HoLeeParams):
        return params.sigma**2 * u
    if isinstance(params, HullWhiteParams):
        a, sigma = params.a, params.sigma
        damp = math.exp(-a * u)
        return (sigma**2 / a) * damp * (1.0 - damp)
    raise TypeError(f"unsupported volatility parameters: {type(params).__name__}")


def curve_terms(curve: DiscountCurve, t, T):
    """The parts of a price P(t, T) that no volatility parameter moves.

    Returns tau = T - t, the market log ratio log P(0, T) - log P(0, t) and
    the forward f(0, t), after checking 0 <= t <= T.  Broadcasts like the
    prices.
    """
    if libm.anywhere(t < 0):
        raise OrderingError(f"valuation time must be >= 0, got {t}")
    if libm.anywhere(T < t):
        raise OrderingError(f"maturity {T} precedes valuation time {t}")
    tau = T - t
    market = curve.log_discount(T) - curve.log_discount(t)
    return tau, market, curve.forward(t)


def holee_price(
    params: HoLeeParams, curve: DiscountCurve, r: float, t: float, T: float
) -> float:
    """Zero price P(t, T) under constant forward volatility.

    At t = 0 with r equal to the curve's instantaneous short end this
    reproduces the initial curve exactly.  Broadcasts over array arguments;
    scalar in, scalar out.  On arrays a price whose exponent overflows reads
    inf instead of raising.
    """
    tau, market, fwd = curve_terms(curve, t, T)
    exponent = tau * fwd - 0.5 * params.sigma**2 * t * libm.square(tau) - tau * r
    return libm.exp(market + exponent)


def hullwhite_price(
    params: HullWhiteParams, curve: DiscountCurve, r: float, t: float, T: float
) -> float:
    """Zero price P(t, T) under damped forward volatility.

    The variance factor is (1 - exp(-2 a t)); as a -> 0 the price collapses
    to the constant-vol price.  Broadcasts over array arguments; scalar in,
    scalar out.  On arrays a price whose exponent overflows reads inf
    instead of raising.
    """
    tau, market, fwd = curve_terms(curve, t, T)
    a, sigma = params.a, params.sigma
    B = decay_loading(a, tau)
    variance = sigma**2 * (-libm.expm1(-2.0 * a * t)) / (4.0 * a)
    exponent = B * fwd - variance * libm.square(B) - B * r
    return libm.exp(market + exponent)
