"""Gaussian short-rate models with closed-form zero-coupon prices.

Two models live here:

* a one-factor mean-reverting model,
      dr = a (b - r) dt + sigma dW,
  with price P(t,T) = A(t,T) exp(-B(t,T) r_t);

* a two-additive-factor model, r(t) = x(t) + y(t) + phi(t), with
      dx = -a x dt + sigma dW1,   dy = -b y dt + eta dW2,
      dW1 dW2 = rho dt,
  where the deterministic shift phi is never materialized: prices are
  expressed relative to an observed initial discount curve, so the curve is
  reproduced exactly at time zero by construction.

Both models' log-prices are affine in the k-factor state X (k = 1 or 2),
log P(t, T) = alpha(t, T) - beta(t, T) . X.  k prices at distinct maturities
therefore give X exactly, from the one k x k solve in ``affine_invert`` --
which is what makes exact likelihood work possible.  Every model's factors
take exact k-factor Ornstein-Uhlenbeck steps, whose moments over arrays of
gaps ``ou_moments`` gives (``step_gaps`` makes and checks the gaps).  The
two-factor Cholesky factor and alpha and beta (``g2pp_affine``) take one
step or date, or arrays of them.

The likelihood evaluates m parameter points at once.  Its parameters are
then (m, 1) columns instead of floats, and ``ou_moments``,
``vasicek_affine``, ``g2pp_variance_expm1``, ``g2pp_affine`` and
``affine_invert`` return arrays with a leading axis over the points.  Each
row equals the one-point result bit for bit: squares of parameters go
through ``libm.square`` (libm's pow, as Python floats square), and gathers
along the last axis through ``take``, which keeps rows C-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import libm
from .curve import DiscountCurve
from .errors import BoundaryError, DegenerateStepError, OrderingError, SingularInversionError

INVERSION_DET_TOL = 1e-14  # |det beta| below this makes a price map singular
_ONE_CALL_HORIZONS = 4096  # see _price_terms


def decay_loading(k: float, tau):
    """Affine loading (1 - exp(-k tau)) / k, computed stably for small k.

    Broadcasts over array arguments; scalar in, scalar out.
    """
    out = -np.expm1(-k * np.asarray(tau, dtype=float)) / k
    return out if out.ndim else float(out)


def step_gaps(times) -> np.ndarray:
    """The gaps between consecutive times of a grid.  Raises
    DegenerateStepError on a gap that is not positive."""
    gaps = np.diff(times)
    if gaps.min(initial=np.inf) <= 0:
        raise DegenerateStepError(f"step must be positive, got {gaps.min()}")
    return gaps


def ou_moments(speeds, vols, rho, gaps):
    """Exact step moments of the k-factor Ornstein-Uhlenbeck process
    dx_i = -a_i x_i dt + sigma_i dW_i (dW_1 dW_2 = rho dt) over an array of
    gaps g, for k = 1 or 2.

    Returns the decays e^{-a_i g} and the covariance
    rho_ij sigma_i sigma_j (1 - e^{-(a_i + a_j) g}) / (a_i + a_j), with
    rho_ii = 1, as lists decay[i] and cov[i][j] of arrays over the gaps.
    A zero speed, given as a float, takes the limit sigma^2 g of a Brownian
    motion; (m, 1) columns of speeds must be positive.  The gaps must be
    positive: ``step_gaps`` checks them once, where a panel or a simulation
    makes them, not on every evaluation.
    """
    gaps = np.asarray(gaps, dtype=float)

    def cov(i, j):
        scale = libm.square(vols[i]) if i == j else rho * vols[i] * vols[j]
        speed = speeds[i] + speeds[j]
        if np.ndim(speed) == 0 and speed == 0.0:
            return scale * gaps
        return scale * (-np.expm1(-speed * gaps)) / speed

    decay = [np.exp(-a * gaps) for a in speeds]
    if len(speeds) == 1:
        return decay, [[cov(0, 0)]]
    c = cov(0, 1)
    return decay, [[cov(0, 0), c], [c, cov(1, 1)]]


# ---------------------------------------------------------------------------
# one-factor model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VasicekParams:
    """Mean-reversion speed a, long-run level b, volatility sigma."""

    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def vasicek_ab(params: VasicekParams, t: float, T: float) -> tuple[float, float]:
    """Price coefficients (A, B) with P(t,T) = A exp(-B r).

    Broadcasts over array arguments; scalar in, scalar out.
    """
    early = T < t
    if libm.anywhere(early):
        T, t = libm.first_where(early, T, t)
        raise OrderingError(f"maturity {T} precedes valuation time {t}")
    a, b, sigma = params.a, params.b, params.sigma
    tau = T - t
    B = decay_loading(a, tau)
    lnA = (b - sigma**2 / (2.0 * a**2)) * (B - tau) - sigma**2 * libm.square(B) / (4.0 * a)
    return libm.exp(lnA), B


def vasicek_price(params: VasicekParams, r: float, t: float, T: float) -> float:
    """Zero-coupon price P(t, T) given the short rate r at t.

    Broadcasts over array arguments; scalar in, scalar out.  On arrays a
    price whose exponent overflows reads inf instead of raising.
    """
    A, B = vasicek_ab(params, t, T)
    return A * libm.exp(-B * r)


def vasicek_affine(params: VasicekParams, taus):
    """Intercepts alpha_j and loadings beta_j = [B(tau_j)] of log P at the
    remaining maturities ``taus`` (floats or arrays over dates), in the form
    ``affine_invert`` takes."""
    a, b, sigma = params.a, params.b, params.sigma
    sigma2 = libm.square(sigma)
    alpha, beta = [], []
    for tau in taus:
        B = decay_loading(a, tau)
        alpha.append((b - sigma2 / (2.0 * libm.square(a))) * (B - tau) - sigma2 * B**2 / (4.0 * a))
        beta.append([B])
    return alpha, beta


# ---------------------------------------------------------------------------
# two-factor model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G2Params:
    """Factor reversion speeds a, b; volatilities sigma, eta; correlation rho."""

    a: float
    b: float
    sigma: float
    eta: float
    rho: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"reversion speeds must be positive, got a={self.a}, b={self.b}")
        if self.sigma <= 0 or self.eta <= 0:
            raise ValueError(
                f"volatilities must be positive, got sigma={self.sigma}, eta={self.eta}"
            )
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class G2State:
    """Factor values (x, y) observed at time t (years from the curve date).

    The fields may be arrays of one shape (or broadcastable ones): the
    closed-form prices then price every state at once.
    """

    x: float
    y: float
    t: float = 0.0

    def __post_init__(self):
        negative = self.t < 0
        if libm.anywhere(negative):
            (t,) = libm.first_where(negative, self.t)
            raise OrderingError(f"state time must be >= 0, got {t}")


def g2pp_variance(params: G2Params, t, T):
    """Variance of the integrated factor sum over (t, T].

    This is the V(t,T) entering the price exponent.  Each term is arranged
    as tau + (...)/speed with the parenthesis built from expm1, so the value
    is exactly zero at tau = 0 and remains accurate for tiny speeds.
    Broadcasts over array arguments; scalar in, scalar out.
    """
    t_arr = np.asarray(t, dtype=float)
    T_arr = np.asarray(T, dtype=float)
    if np.any(T_arr < t_arr):
        raise OrderingError("maturity precedes valuation time")
    out, _, _ = g2pp_variance_expm1(params, T_arr - t_arr)
    return out if out.ndim else float(out)


def g2pp_variance_expm1(params: G2Params, tau: np.ndarray):
    """V(0, tau) over an array of horizons tau >= 0, with the
    expm1(-a tau) and expm1(-b tau) it is built from.

    The loadings at the same horizons are -expm1(-a tau) / a and
    -expm1(-b tau) / b, bit for bit what ``decay_loading`` computes, so a
    caller that needs both pays for each exponential once.
    """
    a, b, sigma, eta, rho = params.a, params.b, params.sigma, params.eta, params.rho

    ea = np.expm1(-a * tau)          # exp(-a tau) - 1
    eb = np.expm1(-b * tau)
    # the x, y and cross terms, summed in place as they come: over m
    # parameter points fewer (m, len(tau)) arrays are alive at once
    v = libm.square(sigma / a) * (tau + (2.0 * ea - 0.5 * np.expm1(-2.0 * a * tau)) / a)
    v += libm.square(eta / b) * (tau + (2.0 * eb - 0.5 * np.expm1(-2.0 * b * tau)) / b)
    v += (
        2.0 * rho * sigma * eta / (a * b)
        * (tau + ea / a + eb / b - np.expm1(-(a + b) * tau) / (a + b))
    )
    return v, ea, eb


def g2pp_log_price(
    params: G2Params, curve: DiscountCurve, state: G2State, T: float
) -> float:
    """log P(t, T) under the curve-fitted two-factor model.

    The variance adjustment and the loadings come from ``_price_terms``.
    Broadcasts over array maturities and state fields; scalar in, scalar
    out.
    """
    t = state.t
    early = T < t
    if libm.anywhere(early):
        T, t = libm.first_where(early, T, t)
        raise OrderingError(f"maturity {T} precedes state time {t}")
    tau = T - t
    market = curve.log_discount(T) - curve.log_discount(t)
    adjust, ea, eb = _price_terms(params, tau, T, t)
    loadings = (-ea / params.a) * state.x + (-eb / params.b) * state.y
    out = market + adjust - loadings
    return out if isinstance(out, np.ndarray) else float(out)


def _price_terms(params: G2Params, tau, T, t):
    """The variance adjustment 0.5 (V(t, T) - V(0, T) + V(0, t)) of
    log P(t, T) and expm1(-a tau), expm1(-b tau), from which the loadings at
    tau = T - t follow.

    V(t, T) is V(0, T - t), so every V is V(0, .) of one horizon.  While the
    horizon arrays tau, T and t hold at most _ONE_CALL_HORIZONS elements,
    one ``g2pp_variance_expm1`` call over their concatenation gives them
    all, each at its own shape: there the call's fixed cost is most of its
    time (an audit's scan and bisection).  Past that, one call per array
    costs the same per element and keeps a surface's temporaries a third
    the size.
    """
    if np.size(tau) + np.size(T) + np.size(t) <= _ONE_CALL_HORIZONS:
        flat, split = libm.concatenated(tau, T, t)
        (v_tau, v_T, v_t), (ea, _, _), (eb, _, _) = map(
            split, g2pp_variance_expm1(params, flat)
        )
    else:
        v_T, v_t = (g2pp_variance_expm1(params, np.asarray(h, dtype=float))[0] for h in (T, t))
        v_tau, ea, eb = g2pp_variance_expm1(params, np.asarray(tau, dtype=float))
    return 0.5 * (v_tau - v_T + v_t), ea, eb


def g2pp_price(params: G2Params, curve: DiscountCurve, state: G2State, T: float) -> float:
    """Zero-coupon price P(t, T); reproduces the curve exactly at t = 0 with
    zero factors.

    Broadcasts like g2pp_log_price; on arrays a price whose exponent
    overflows reads inf instead of raising.
    """
    return libm.exp(g2pp_log_price(params, curve, state, T))


def g2pp_horizons(curve: DiscountCurve, t, taus):
    """The parameter-free terms of ``g2pp_affine`` for states at times ``t``
    and remaining maturities ``taus`` (floats or arrays over dates).

    Returns the market log ratios log D(t + tau_j) - log D(t), the distinct
    values of the stacked horizons [t, tau_1..k, t + tau_1..k], and the
    index into them that gives those rows back.
    """
    maturities = [t + tau for tau in taus]
    log_t = curve.log_discount(t)
    market = [curve.log_discount(T) - log_t for T in maturities]
    stacked = np.stack([t, *taus, *maturities])
    horizons, index = np.unique(stacked.ravel(), return_inverse=True)
    return market, horizons, index.reshape(stacked.shape)


def g2pp_affine(params: G2Params, market, horizons, horizon_index):
    """Intercepts alpha_j and loadings beta_j = [B_a(tau_j), B_b(tau_j)] of
    log P(t, t + tau_j), in the form ``affine_invert`` takes, from the terms
    of ``g2pp_horizons`` and one variance call over the distinct horizons.

    alpha_j = market_j + 0.5 (V(tau_j) - V(t + tau_j) + V(t)): V(t, T)
    depends on T - t only, and every V is V(0, .) of one horizon.
    """
    v, ea, eb = g2pp_variance_expm1(params, horizons)
    k = len(market)

    def at(values, row):
        return values.take(horizon_index[row], axis=-1)

    v_t = at(v, 0)
    alpha, beta = [], []
    for j, m in enumerate(market):
        tau, T = 1 + j, 1 + k + j
        alpha.append(m + 0.5 * (at(v, tau) - at(v, T) + v_t))
        beta.append([-at(ea, tau) / params.a, -at(eb, tau) / params.b])
    return alpha, beta


def g2pp_cholesky(cov) -> np.ndarray:
    """Lower Cholesky factor of a 2x2 transition covariance ``cov[i][j]``,
    entry by entry when the entries are arrays over steps.

    Tiny negative Schur complements from rounding are clamped to zero;
    anything materially negative means |rho| reached 1 and is an error.
    """
    v1, c = cov[0][0], cov[0][1]
    v2 = cov[1][1]
    if libm.anywhere((v1 <= 0) | (v2 <= 0)):
        raise BoundaryError("transition covariance is degenerate")
    l11 = np.sqrt(v1)
    l21 = c / l11
    rem = v2 - l21 * l21
    if libm.anywhere(rem < -1e-12 * v2):
        raise BoundaryError("transition covariance is not positive semi-definite")
    return np.array([[l11, np.zeros_like(l11)], [l21, np.sqrt(np.maximum(rem, 0.0))]])


# ---------------------------------------------------------------------------
# k-factor state inversion
# ---------------------------------------------------------------------------


def factor_det(m):
    """Determinant of a 1x1 or 2x2 matrix given as rows m[i][j], whose
    entries may be floats or arrays of one shape."""
    if len(m) == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[1][0] * m[0][1]


def affine_invert(alpha, beta, log_prices):
    """Factor values X solving beta . X = alpha - log P, for k = 1 or 2.

    Price j has intercept alpha[j], log-price log_prices[j] and loading
    beta[j][i] on factor i; entries are floats or arrays over dates, with a
    leading axis over parameter points if the loadings have one.  Returns
    (X, det beta) with X[i] the values of factor i.  Raises
    SingularInversionError where |det beta| < INVERSION_DET_TOL: a price at
    its own maturity, two equal maturities or two equal reversion speeds
    carry too little information to fix the state.
    """
    det = factor_det(beta)
    if libm.anywhere(abs(det) < INVERSION_DET_TOL):
        raise SingularInversionError(
            "factor loadings are singular to working precision; need "
            "distinct maturities after the state time and distinct "
            "reversion speeds"
        )
    rhs = [a - lp for a, lp in zip(alpha, log_prices)]
    if len(rhs) == 1:
        return [rhs[0] / det], det
    (b00, b01), (b10, b11) = beta
    x = (rhs[0] * b11 - rhs[1] * b01) / det
    y = (b00 * rhs[1] - b10 * rhs[0]) / det
    return [x, y], det
