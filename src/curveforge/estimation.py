"""Exact maximum likelihood from bond-price panels.

Because log-prices are affine in the latent state, an observed panel of
zero-coupon prices can be inverted date by date into an exact state series
(one price series for the one-factor model, two for the two-factor model).
The joint density of the panel is then the product of Gaussian transition
densities of the states times the change-of-variables Jacobian of the
price map, evaluated over the actual -- possibly irregular -- observation
gaps.

Estimated parameters are taken straight from the historical series and used
unchanged for pricing: no market-price-of-risk adjustment is applied, so
time-series dynamics and pricing dynamics are deliberately identified.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .curve import DiscountCurve
from .daycount import year_fraction
from .errors import (
    BoundaryError,
    DegenerateStepError,
    OptimizationError,
    OrderingError,
    PriceRangeError,
    SingularInversionError,
)
from .shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    decay_loading,
    g2pp_variance,
)

LOG2PI = math.log(2.0 * math.pi)
RHO_CLIP = 0.9999
_DET_TOL = 1e-14
_THETA_BOX = 18.0          # |transformed parameter| beyond this is rejected
_BOUNDARY_MARGIN = 1.0     # final coordinates this close to the box are flagged


# ---------------------------------------------------------------------------
# panel container
# ---------------------------------------------------------------------------


@dataclass
class PricePanel:
    """Observed zero-coupon prices: a date x instrument table.

    observations: ordered (date, {instrument_id: price}) pairs;
    instruments: (id, maturity date) pairs;
    negotiated: optional per-date flags for traded (vs reference) quotes.
    """

    observations: list[tuple[dt.date, dict[str, float]]]
    instruments: list[tuple[str, dt.date]]
    negotiated: list[bool] | None = None

    def __post_init__(self):
        if not self.observations:
            raise ValueError("panel has no observations")
        ids = [name for name, _ in self.instruments]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate instrument ids")
        maturity = dict(self.instruments)
        dates = [d for d, _ in self.observations]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise OrderingError("observation dates must be strictly increasing")
        for d, quotes in self.observations:
            for name, price in quotes.items():
                if name not in maturity:
                    raise ValueError(f"quote for unknown instrument {name!r} on {d}")
                if not 0.0 < price <= 1.0:
                    raise PriceRangeError(
                        f"price {price} for {name!r} on {d} outside (0, 1]"
                    )
                if maturity[name] <= d:
                    raise OrderingError(
                        f"instrument {name!r} matured before quote date {d}"
                    )
        if self.negotiated is not None and len(self.negotiated) != len(self.observations):
            raise ValueError("negotiated flags must align with observations")

    @property
    def dates(self) -> list[dt.date]:
        return [d for d, _ in self.observations]

    @property
    def times(self) -> np.ndarray:
        """Observation times in years from the first date (ACT/365)."""
        d0 = self.observations[0][0]
        return np.array([year_fraction(d0, d) for d, _ in self.observations])

    @property
    def gaps(self) -> np.ndarray:
        """Year fractions between consecutive observations."""
        return np.diff(self.times)

    def prices(self, instrument: str) -> np.ndarray:
        try:
            return np.array([quotes[instrument] for _, quotes in self.observations])
        except KeyError as exc:
            raise ValueError(
                f"instrument {instrument!r} is not quoted on every date"
            ) from exc

    def taus(self, instrument: str) -> np.ndarray:
        """Remaining time to maturity of one instrument at each date."""
        maturity = dict(self.instruments)[instrument]
        return np.array(
            [year_fraction(d, maturity) for d, _ in self.observations]
        )

    def filter_negotiated(self) -> "PricePanel":
        """Sub-panel of dates flagged as negotiated (traded) quotes."""
        if self.negotiated is None:
            raise ValueError("panel carries no negotiated flags")
        obs = [o for o, keep in zip(self.observations, self.negotiated) if keep]
        return PricePanel(observations=obs, instruments=list(self.instruments))


@dataclass
class StateSeries:
    """Latent states recovered date by date from observed prices."""

    times: np.ndarray
    values: np.ndarray  # (n,) short rates or (n, 2) factor pairs
    dates: list[dt.date] | None = None


@dataclass
class OptimizerReport:
    restarts: int
    iterations: int
    converged: bool
    boundary: bool = False
    restart_logliks: list[float] = field(default_factory=list)


@dataclass
class FitResult:
    params: VasicekParams | G2Params
    loglik: float
    states: StateSeries
    report: OptimizerReport


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for fit_ml."""

    restarts: int = 16
    seed: int = 0
    maxiter: int = 2000
    xatol: float = 1e-6
    fatol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")


# ---------------------------------------------------------------------------
# one-factor likelihood
# ---------------------------------------------------------------------------


def _vasicek_states(a, b, sigma, taus, prices, price_scale):
    B = decay_loading(a, taus)
    lnA = (b - sigma**2 / (2.0 * a**2)) * (B - taus) - sigma**2 * B**2 / (4.0 * a)
    r = (lnA - (np.log(prices) - math.log(price_scale))) / B
    return r, B


def _gaussian_loglik_terms(resid, var):
    return -0.5 * (LOG2PI + np.log(var) + resid * resid / var)


def _loglik_vasicek_core(a, b, sigma, taus, prices, gaps, uniform, price_scale):
    r, B = _vasicek_states(a, b, sigma, taus, prices, price_scale)
    if uniform:
        h = float(gaps[0])
        decay = math.exp(-a * h)
        var = sigma**2 * (-math.expm1(-2.0 * a * h)) / (2.0 * a)
        if not (var > 0 and math.isfinite(var)):
            raise DegenerateStepError(f"transition variance degenerate at gap {h}")
        mean = r[:-1] * decay + b * (1.0 - decay)
        density = _gaussian_loglik_terms(r[1:] - mean, var)
    else:
        decay = np.exp(-a * gaps)
        var = sigma**2 * (-np.expm1(-2.0 * a * gaps)) / (2.0 * a)
        if not (np.all(var > 0) and np.all(np.isfinite(var))):
            raise DegenerateStepError("transition variance degenerate at some gap")
        mean = r[:-1] * decay + b * (1.0 - decay)
        density = _gaussian_loglik_terms(r[1:] - mean, var)
    # Jacobian of the observed-price map: |dP/dr| = B * P at each kept date
    jacobian = np.log(B[1:] * prices[1:])
    return float(np.sum(density) - np.sum(jacobian)), r


def loglik_vasicek(
    params: VasicekParams, panel: PricePanel, price_scale: float = 1.0
) -> float:
    """Exact log-likelihood of a single-instrument panel.

    The first observation is conditioned on; every later one contributes a
    Gaussian transition density over its own gap minus the log-Jacobian of
    the price map.  ``price_scale`` declares that observed quotes are that
    multiple of a unit zero price (e.g. per-100 quotes): states are inverted
    from price/scale while the Jacobian keeps the observed scale, shifting
    the likelihood by -n*log(scale) without moving the optimum.
    """
    if len(panel.instruments) != 1:
        raise ValueError("one-factor likelihood needs exactly one instrument")
    if len(panel.observations) < 2:
        raise ValueError("need at least two observations")
    name = panel.instruments[0][0]
    taus = panel.taus(name)
    prices = panel.prices(name)
    gaps = panel.gaps
    uniform = bool(np.all(gaps == gaps[0]))
    ll, _ = _loglik_vasicek_core(
        params.a, params.b, params.sigma, taus, prices, gaps, uniform, price_scale
    )
    return ll


# ---------------------------------------------------------------------------
# two-factor likelihood
# ---------------------------------------------------------------------------


def _g2pp_invert_panel(params, curve, times, taus1, taus2, p1, p2, price_scale):
    """Vectorized exact inversion of a two-instrument panel into factors."""
    T1 = times + taus1
    T2 = times + taus2
    ba1 = decay_loading(params.a, taus1)
    ba2 = decay_loading(params.a, taus2)
    bb1 = decay_loading(params.b, taus1)
    bb2 = decay_loading(params.b, taus2)
    det = ba1 * bb2 - ba2 * bb1
    if np.any(np.abs(det) < _DET_TOL):
        raise SingularInversionError(
            "factor loadings are singular on some date "
            "(coincident maturities or a == b)"
        )
    log_t = curve.log_discount(times)
    v0t = g2pp_variance(params, 0.0, times)

    def rhs(prices, T, taus):
        market = curve.log_discount(T) - log_t
        adjust = 0.5 * (
            g2pp_variance(params, 0.0, taus)  # V(t,T) depends on tau only
            - g2pp_variance(params, 0.0, T)
            + v0t
        )
        return market + adjust - (np.log(prices) - math.log(price_scale))

    k1 = rhs(p1, T1, taus1)
    k2 = rhs(p2, T2, taus2)
    x = (k1 * bb2 - k2 * bb1) / det
    y = (ba1 * k2 - ba2 * k1) / det
    return x, y, det


def _loglik_g2pp_core(
    params, curve, times, taus1, taus2, p1, p2, gaps, uniform, price_scale
):
    x, y, det = _g2pp_invert_panel(
        params, curve, times, taus1, taus2, p1, p2, price_scale
    )
    a, b, sigma, eta, rho = params.a, params.b, params.sigma, params.eta, params.rho
    if uniform:
        h = float(gaps[0])
        gaps = np.array([h])
    decay_x = np.exp(-a * gaps)
    decay_y = np.exp(-b * gaps)
    v1 = sigma**2 * (-np.expm1(-2.0 * a * gaps)) / (2.0 * a)
    v2 = eta**2 * (-np.expm1(-2.0 * b * gaps)) / (2.0 * b)
    c12 = rho * sigma * eta * (-np.expm1(-(a + b) * gaps)) / (a + b)
    det_cov = v1 * v2 - c12 * c12
    if not (np.all(det_cov > 0) and np.all(np.isfinite(det_cov))):
        raise BoundaryError(
            "transition covariance is singular (|rho| at 1 or degenerate step)"
        )
    dx = x[1:] - x[:-1] * decay_x
    dy = y[1:] - y[:-1] * decay_y
    quad = (v2 * dx * dx - 2.0 * c12 * dx * dy + v1 * dy * dy) / det_cov
    density = -LOG2PI - 0.5 * np.log(det_cov) - 0.5 * quad
    jacobian = np.log(p1[1:] * p2[1:] * np.abs(det[1:]))
    return float(np.sum(density) - np.sum(jacobian)), x, y


def loglik_g2pp(
    params: G2Params,
    curve: DiscountCurve,
    panel: PricePanel,
    price_scale: float = 1.0,
) -> float:
    """Exact log-likelihood of a two-instrument panel.

    States come from the exact 2x2 inversion each date; transitions are
    bivariate Gaussian over the actual gaps; the Jacobian of the price map
    is P1 * P2 * |B_a(tau1) B_b(tau2) - B_a(tau2) B_b(tau1)| per date.
    See loglik_vasicek for the price_scale convention.
    """
    if len(panel.instruments) != 2:
        raise ValueError("two-factor likelihood needs exactly two instruments")
    if len(panel.observations) < 2:
        raise ValueError("need at least two observations")
    if abs(params.rho) >= 1.0:
        raise BoundaryError("|rho| = 1 makes the factor covariance singular")
    (name1, _), (name2, _) = panel.instruments
    times = panel.times
    gaps = panel.gaps
    uniform = bool(np.all(gaps == gaps[0]))
    ll, _, _ = _loglik_g2pp_core(
        params,
        curve,
        times,
        panel.taus(name1),
        panel.taus(name2),
        panel.prices(name1),
        panel.prices(name2),
        gaps,
        uniform,
        price_scale,
    )
    return ll


# ---------------------------------------------------------------------------
# maximum-likelihood driver
# ---------------------------------------------------------------------------


def _moment_guess_vasicek(panel: PricePanel) -> np.ndarray:
    name = panel.instruments[0][0]
    taus = panel.taus(name)
    yields_ = -np.log(panel.prices(name)) / taus
    gaps = panel.gaps
    mean_gap = float(np.mean(gaps))
    b0 = float(np.clip(np.mean(yields_), 1e-4, 10.0))
    inc = np.diff(yields_)
    s = float(np.std(inc))
    sigma0 = max(s / math.sqrt(mean_gap), 1e-6)
    if inc.size >= 3 and np.std(yields_) > 0:
        rho1 = float(np.corrcoef(yields_[1:], yields_[:-1])[0, 1])
    else:
        rho1 = 0.5
    rho1 = float(np.clip(rho1, 0.01, 0.99))
    a0 = float(np.clip(-math.log(rho1) / mean_gap, 1e-2, 30.0))
    return np.array([math.log(a0), math.log(b0), math.log(sigma0)])


def _moment_guess_g2pp(panel: PricePanel) -> np.ndarray:
    (name1, _), (name2, _) = panel.instruments
    y1 = -np.log(panel.prices(name1)) / panel.taus(name1)
    y2 = -np.log(panel.prices(name2)) / panel.taus(name2)
    mean_gap = float(np.mean(panel.gaps))
    d1, d2 = np.diff(y1), np.diff(y2)
    sigma0 = max(float(np.std(d1)) / math.sqrt(mean_gap), 1e-5)
    eta0 = max(float(np.std(d2)) / math.sqrt(mean_gap), 1e-5)
    if d1.size >= 3 and np.std(d1) > 0 and np.std(d2) > 0:
        rho0 = float(np.clip(np.corrcoef(d1, d2)[0, 1], -0.95, 0.95))
    else:
        rho0 = -0.5
    # distinct reversion speeds keep the inversion well conditioned
    return np.array(
        [math.log(0.3), math.log(1.0), math.log(sigma0), math.log(eta0),
         math.atanh(rho0 / RHO_CLIP)]
    )


def _vasicek_from_theta(theta: np.ndarray) -> VasicekParams:
    return VasicekParams(
        a=math.exp(theta[0]), b=math.exp(theta[1]), sigma=math.exp(theta[2])
    )


def _g2pp_from_theta(theta: np.ndarray) -> G2Params:
    return G2Params(
        a=math.exp(theta[0]),
        b=math.exp(theta[1]),
        sigma=math.exp(theta[2]),
        eta=math.exp(theta[3]),
        rho=RHO_CLIP * math.tanh(theta[4]),
    )


def fit_ml(
    model: str,
    panel: PricePanel,
    curve: DiscountCurve | None = None,
    config: FitConfig | None = None,
) -> FitResult:
    """Maximize the exact panel likelihood by multi-start Nelder-Mead.

    The search runs in transformed coordinates (log for positive parameters,
    atanh for the correlation) so every visited point is admissible.  The
    first start is a moment-matched guess; the rest jitter it uniformly over
    [0.5x, 2x] per coordinate.  The convergence flag is lowered when the two
    best restarts disagree by more than 1e-4 in log-likelihood; the boundary
    flag marks solutions that ran into the edge of the search box (e.g.
    sigma -> 0 on a constant panel).
    """
    config = config or FitConfig()
    if model == "vasicek":
        guess = _moment_guess_vasicek(panel)
        from_theta = _vasicek_from_theta
        name = panel.instruments[0][0]
        taus, prices = panel.taus(name), panel.prices(name)
        gaps, times = panel.gaps, panel.times
        uniform = bool(np.all(gaps == gaps[0]))

        def negloglik(theta):
            if np.max(np.abs(theta)) > _THETA_BOX:
                return np.inf
            p = from_theta(theta)
            try:
                ll, _ = _loglik_vasicek_core(
                    p.a, p.b, p.sigma, taus, prices, gaps, uniform, 1.0
                )
            except (ValueError, FloatingPointError, OverflowError):
                return np.inf
            return -ll if math.isfinite(ll) else np.inf

    elif model == "g2pp":
        if curve is None:
            raise ValueError("the two-factor fit needs the market curve")
        guess = _moment_guess_g2pp(panel)
        from_theta = _g2pp_from_theta
        (name1, _), (name2, _) = panel.instruments
        taus1, taus2 = panel.taus(name1), panel.taus(name2)
        p1, p2 = panel.prices(name1), panel.prices(name2)
        gaps, times = panel.gaps, panel.times
        uniform = bool(np.all(gaps == gaps[0]))

        def negloglik(theta):
            if np.max(np.abs(theta)) > _THETA_BOX:
                return np.inf
            p = from_theta(theta)
            try:
                ll, _, _ = _loglik_g2pp_core(
                    p, curve, times, taus1, taus2, p1, p2, gaps, uniform, 1.0
                )
            except (ValueError, FloatingPointError, OverflowError):
                return np.inf
            return -ll if math.isfinite(ll) else np.inf

    else:
        raise ValueError(f"unknown model {model!r}")

    rng = np.random.default_rng(config.seed)
    best = None
    lls = []
    total_iter = 0
    for restart in range(config.restarts):
        theta0 = guess.copy()
        if restart > 0:
            theta0 = theta0 + np.log(rng.uniform(0.5, 2.0, size=guess.size))
        res = minimize(
            negloglik,
            theta0,
            method="Nelder-Mead",
            options={
                "maxiter": config.maxiter,
                "xatol": config.xatol,
                "fatol": config.fatol,
                "adaptive": True,
            },
        )
        total_iter += int(res.nit)
        ll = -float(res.fun)
        lls.append(ll)
        if math.isfinite(ll) and (best is None or ll > best[0]):
            best = (ll, np.asarray(res.x))

    if best is None:
        raise OptimizationError(
            "every restart failed to produce a finite likelihood",
            partial=lls,
        )
    ll_best, theta_best = best
    finite = sorted((v for v in lls if math.isfinite(v)), reverse=True)
    converged = len(finite) < 2 or (finite[0] - finite[1]) <= 1e-4
    boundary = bool(np.max(np.abs(theta_best)) > _THETA_BOX - _BOUNDARY_MARGIN)
    params = from_theta(theta_best)

    if model == "vasicek":
        r, _ = _vasicek_states(
            params.a, params.b, params.sigma, taus, prices, 1.0
        )
        states = StateSeries(times=times, values=r, dates=panel.dates)
    else:
        x, y, _ = _g2pp_invert_panel(
            params, curve, times, taus1, taus2, p1, p2, 1.0
        )
        states = StateSeries(
            times=times, values=np.column_stack([x, y]), dates=panel.dates
        )
    report = OptimizerReport(
        restarts=config.restarts,
        iterations=total_iter,
        converged=converged,
        boundary=boundary,
        restart_logliks=lls,
    )
    return FitResult(params=params, loglik=ll_best, states=states, report=report)
