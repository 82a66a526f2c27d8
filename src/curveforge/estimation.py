"""Exact maximum likelihood from bond-price panels.

Both models share one affine form, log P(t,T) = alpha(t,T) - beta(t,T) . X,
for a state X of k = 1 (vasicek) or k = 2 (g2pp) factors.  An observed panel
of k zero-coupon price series is therefore inverted date by date into an
exact state series by one k x k solve, beta . X = alpha - log P.  The joint
density of the panel is the product of the Gaussian transition densities of
the states over the actual -- possibly irregular -- observation gaps, divided
by the Jacobian P_1 ... P_k |det beta| of the price map.  The factor
count and the transition moments come from the model's record in
``models.MODELS``, the one the simulators read; ``_ML_MODELS`` adds the
parameter map, the moment guess, and alpha and beta.  The rest of the
likelihood and of ``fit_ml`` is shared.

Estimated parameters are taken straight from the historical series and used
unchanged for pricing: no market-price-of-risk adjustment is applied, so
time-series dynamics and pricing dynamics are deliberately identified.

``fit_ml`` runs all its restarts through one call of ``minimize`` below,
the package's own adaptive Nelder-Mead, in lockstep: each round asks the
likelihood for the pending points of every live restart at once, one call
per phase (reflections, then expansions and contractions, then shrinks),
and the likelihood takes those points along a leading axis of its arrays.
Each restart still reproduces scipy's iterates bit for bit, and ``nfev``
counts points, not calls.  A call carries at most _BATCH_POINTS = 16
points, because the batch sets the likelihood's peak memory: ~43 KB per
g2pp point on a 260-date panel (tracemalloc: 0.69 MB at 16 points, 1.38 MB
at 32), while the whole first simplex of 16 g2pp restarts would be 96
points (4.1 MB) against the ~58 MB a benchmarked fit peaks at.  A fit loads
no scipy module; ``numpy.random`` is loaded by the first fit, for the
restarts' start jitter.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .curve import DiscountCurve
from .daycount import year_fraction
from .errors import (
    BoundaryError,
    DegenerateStepError,
    OptimizationError,
    OrderingError,
    PanelShapeError,
    PriceRangeError,
)
from .models import MODELS, Model
from .shortrate import (
    G2Params,
    VasicekParams,
    INVERSION_DET_TOL,
    affine_invert,
    factor_det,
    g2pp_affine,
    g2pp_horizons,
    step_gaps,
    vasicek_affine,
)

LOG2PI = math.log(2.0 * math.pi)
RHO_CLIP = 0.9999
_THETA_BOX = 18.0          # |transformed parameter| beyond this is rejected
_BOUNDARY_MARGIN = 1.0     # final coordinates this close to the box are flagged
# Nelder-Mead stopping rule of every restart
_MAXITER = 2000
_XATOL = 1e-6
_FATOL = 1e-8
# points per objective call: the batch sets the likelihood's peak memory
_BATCH_POINTS = 16


@dataclass(frozen=True)
class SimplexResult:
    """The end of R Nelder-Mead searches run in lockstep.

    Search r ends at its best vertex x[r] with value fun[r], after
    restart_nit[r] iterations and restart_nfev[r] evaluations, with status
    restart_status[r]: 0 (converged) or 2 (_MAXITER reached), scipy's codes.
    nit and nfev are the sums over the searches, nfev counting points, not
    objective calls; status is 2 when any search reached _MAXITER.
    """

    x: np.ndarray
    fun: np.ndarray
    nit: int
    nfev: int
    status: int
    restart_nit: np.ndarray
    restart_nfev: np.ndarray
    restart_status: np.ndarray


def minimize(fun: Callable[[np.ndarray], np.ndarray], x0) -> SimplexResult:
    """Minimize ``fun`` from each row of ``x0``, R starts of n coordinates,
    by adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012),
    every search stopping on _XATOL and _FATOL or after _MAXITER iterations.

    ``fun`` maps an (m, n) array of points to their m values, and gets a
    copy of at most _BATCH_POINTS points per call.  The R searches run in
    lockstep: the first simplex is evaluated one vertex index at a time
    across them, and each round evaluates the pending points of every live
    search together, phase by phase -- the reflections, then the expansions
    and contractions, then the shrinks.  Within its own search every point
    still comes from scipy 1.17's ``minimize(method="Nelder-Mead",
    options={"adaptive": True, ...})`` operations in scipy's order, so each
    search visits the points and returns the bits of a run on its own.
    With reflection coefficient 1 the expansion, contraction and shrink
    coefficients of dimension n are 1 + 2/n, 3/4 - 1/(2n) and 1 - 1/n.
    """
    x0 = np.asarray(x0, dtype=float)
    R, n = x0.shape
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    nfev = np.zeros(R, dtype=int)
    nit = np.ones(R, dtype=int)

    def f(points):
        values = np.empty(len(points))
        for s in range(0, len(points), _BATCH_POINTS):
            values[s:s + _BATCH_POINTS] = fun(points[s:s + _BATCH_POINTS].copy())
        return values

    def sort(rows, sim_rows, fsim_rows):
        order = np.argsort(fsim_rows, axis=1)
        each = np.arange(len(order))[:, None]
        sim[rows], fsim[rows] = sim_rows[each, order], fsim_rows[each, order]

    # the start, and one vertex per coordinate moved by 5% (or to 0.00025)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for k in range(n):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    fsim = np.empty((R, n + 1))
    for k in range(n + 1):
        fsim[:, k] = f(sim[:, k])
    nfev += n + 1
    # scipy sorts the first simplex twice; argsort need not keep tied
    # vertices in place, so the second sort counts
    every = np.arange(R)
    for _ in range(2):
        sort(every, sim, fsim)
    live = every
    while True:
        live = live[nit[live] < _MAXITER]
        s, fs = sim[live], fsim[live]
        # sorted, scipy's max |fsim[0] - fsim[1:]| is fsim[-1] - fsim[0]; on
        # an all-inf simplex inf - inf is nan, which fails the test, quietly
        # as on the Python floats the serial search took it on
        with np.errstate(invalid="ignore", over="ignore"):
            done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _XATOL)
                    & (fs[:, -1] - fs[:, 0] <= _FATOL))
        if done.any():
            live, s, fs = live[~done], s[~done], fs[~done]
        if not live.size:
            break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = 2 * xbar - worst
        fxr = f(xr)
        nfev[live] += 1
        expand = fxr < fs[:, 0]
        contract = ~expand & ~(fxr < fs[:, -2])
        outside = contract & (fxr < fs[:, -1])
        # every second point is (1 + c) xbar - c worst: c = chi expands,
        # psi contracts outside, and -psi gives scipy's inside contraction
        # (1 - psi) xbar + psi worst to the bit
        second = expand | contract
        c = np.where(expand, chi, np.where(outside, psi, -psi))[second, None]
        x2, f2 = xr.copy(), fxr.copy()
        x2[second] = (1 + c) * xbar[second] - c * worst[second]
        f2[second] = f(x2[second])
        nfev[live[second]] += 1
        # an expansion or an outside contraction is kept if no worse than
        # the reflection (the expansion only if better), an inside one if
        # better than the worst vertex; a contraction not kept shrinks
        take = second & np.where(
            expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < fs[:, -1]))
        shrink = contract & ~take
        new = ~shrink
        s[new, -1] = np.where(take[:, None], x2, xr)[new]
        fs[new, -1] = np.where(take, f2, fxr)[new]
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + sigma * (s[shrink, 1:] - best)
            fs[shrink, 1:] = f(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
            nfev[live[shrink]] += n
        nit[live] += 1
        sort(live, s, fs)
    status = np.where(nit >= _MAXITER, 2, 0)
    return SimplexResult(
        x=sim[:, 0].copy(), fun=np.min(fsim, axis=1),
        nit=int(nit.sum()), nfev=int(nfev.sum()), status=int(status.max()),
        restart_nit=nit, restart_nfev=nfev, restart_status=status,
    )


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
            raise PanelShapeError("panel has no observations")
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
        """Year fractions between consecutive observations.

        These are float differences of the ACT/365 ``times``, so equal day
        gaps need not give equal floats: a weekly panel's 7-day gaps come
        out as several values a few ulps apart.
        """
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
            raise PanelShapeError("panel carries no negotiated flags")
        obs = [o for o, keep in zip(self.observations, self.negotiated) if keep]
        if not obs:
            raise PanelShapeError("no date of the panel is flagged as negotiated")
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
    """Restart count and start-jitter seed of fit_ml; every restart stops by
    the module's fixed Nelder-Mead rule (_MAXITER, _XATOL, _FATOL)."""

    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")


# ---------------------------------------------------------------------------
# k-factor likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PanelData:
    """The parameter-free arrays of a panel observed through k instruments,
    computed once per fit.

    Gaps are float differences of ACT/365 times, so the equal 7-day gaps of
    a weekly panel come out as a handful of distinct floats, not one (the
    259 gaps of a 260-date weekly panel take 10 values).  The transition
    moments are therefore taken once per distinct gap and gathered:
    ``gaps[gap_index]`` are the consecutive gaps.  A model priced off a
    curve also gets the panel's curve terms: ``market[j]`` is
    log D(t + tau_j) - log D(t), and ``horizons`` the distinct values of
    the stacked horizons [t, tau_1..k, t + tau_1..k], with
    ``horizons[horizon_index]`` giving those rows back.
    """

    times: np.ndarray
    gaps: np.ndarray  # the distinct gaps, ascending
    gap_index: np.ndarray
    taus: list[np.ndarray]
    log_prices: list[np.ndarray]
    price_product: np.ndarray  # product of the observed prices after date 0
    market: list[np.ndarray] | None = None
    horizons: np.ndarray | None = None
    horizon_index: np.ndarray | None = None

    @classmethod
    def of(cls, panel: PricePanel, factors: int, curve: DiscountCurve | None = None):
        if len(panel.instruments) != factors:
            raise PanelShapeError(
                f"the {factors}-factor likelihood needs exactly {factors} "
                f"instrument(s), got {len(panel.instruments)}"
            )
        if len(panel.observations) < 2:
            raise PanelShapeError("need at least two observations")
        names = [name for name, _ in panel.instruments]
        prices = [panel.prices(name) for name in names]
        times = panel.times
        taus = [panel.taus(name) for name in names]
        gaps, gap_index = np.unique(step_gaps(times), return_inverse=True)
        product = prices[0][1:]
        for p in prices[1:]:
            product = product * p[1:]
        market = horizons = horizon_index = None
        if curve is not None:
            market, horizons, horizon_index = g2pp_horizons(curve, times, taus)
        return cls(
            times=times,
            gaps=gaps,
            gap_index=gap_index,
            taus=taus,
            log_prices=[np.log(p) for p in prices],
            price_product=product,
            market=market,
            horizons=horizons,
            horizon_index=horizon_index,
        )


def _degenerate(det_cov):
    """Where a step covariance has a determinant that is not positive and
    finite."""
    return ~((det_cov > 0) & np.isfinite(det_cov))


def _gaussian_logpdf(resid, cov):
    """log N(resid; 0, cov) date by date, for k = 1 or 2 factors."""
    det_cov = factor_det(cov)
    if _degenerate(det_cov).any():
        raise DegenerateStepError(
            "transition covariance is degenerate at some gap "
            "(a vanishing variance or |rho| at 1)"
        )
    if len(resid) == 1:
        quad = resid[0] * resid[0] / det_cov
    else:
        dx, dy = resid
        quad = (cov[1][1] * dx * dx - 2.0 * cov[0][1] * dx * dy + cov[0][0] * dy * dy) / det_cov
    return -0.5 * len(resid) * LOG2PI - 0.5 * np.log(det_cov) - 0.5 * quad


@dataclass(frozen=True)
class _MLModel:
    """One model's part in the likelihood and in fit_ml, beside its record
    (factor count, curve, transition moments) in ``models.MODELS``."""

    model: Model
    # search coordinates -> the parameter fields, as floats
    from_theta: Callable[[np.ndarray], tuple]
    moment_guess: Callable[[PricePanel], np.ndarray]
    # (params, panel data) -> intercepts alpha[j], loadings beta[j][i]
    affine: Callable


def _panel_data(spec: _MLModel, panel: PricePanel, curve):
    """The panel's parameter-free terms, with its curve terms when the model
    is priced off a curve (a curve too short for the panel fails here)."""
    model = spec.model
    return _PanelData.of(panel, model.factors, curve if model.needs_curve else None)


class _Points:
    """m parameter points of one model, read like one point: each parameter
    field is an (m, 1) column of the points' values (``values[:, j]``)."""

    def __init__(self, names, values: np.ndarray):
        self.names = names
        self.values = values
        for j, name in enumerate(names):
            setattr(self, name, values[:, j:j + 1])

    def __len__(self):
        return len(self.values)

    def __getitem__(self, rows):
        return _Points(self.names, self.values[rows])


def _points(spec: _MLModel, thetas: np.ndarray) -> _Points:
    """The parameter points of the rows of ``thetas``, mapped one by one."""
    names = [f.name for f in fields(spec.model.params)]
    return _Points(names, np.array([spec.from_theta(t) for t in thetas.tolist()]))


def _cut(part, keep):
    """``part`` (an array, _Points, a list of them or None) on the points
    in ``keep`` only."""
    if part is None:
        return None
    if isinstance(part, list):
        return [_cut(p, keep) for p in part]
    return part[keep]


def _screen(rows, bad, *parts):
    """The points left in a batch after one domain check, and ``parts``
    cut to them: a point leaves where ``bad`` holds on any date or gap.

    ``rows`` indexes the batch's points still in it, or is None for one
    point, which is not screened here: it raises at the check itself.
    """
    if rows is None:
        return rows, *parts
    keep = ~bad.any(axis=-1)
    if keep.all():
        return rows, *parts
    return rows[keep], *(_cut(p, keep) for p in parts)


def _states(model: _MLModel, params, data: _PanelData):
    """Exact factor series X[i] and det beta at every date."""
    alpha, beta = model.affine(params, data)
    return affine_invert(alpha, beta, data.log_prices)


def _loglik(model: _MLModel, params, data: _PanelData):
    """Exact log-likelihood of the panel and its factor series.

    The first date is conditioned on; every later date adds the Gaussian
    transition density of the states over its gap minus the log-Jacobian
    log(P_1 ... P_k |det beta|) of the price map.  The transition moments
    are computed on the distinct gaps and gathered date by date.

    ``params`` is one point, or m points as ``_Points``: every array then
    gains a leading axis over the points, and the log-likelihood is an (m,)
    array whose rows equal the one-point values bit for bit.  One point
    whose price map is singular or whose step covariance is degenerate
    raises (SingularInversionError, DegenerateStepError).  Among m points
    such a point reads -inf instead: it leaves the batch at that check,
    before anything else is computed on it, and X holds the points left.
    """
    points = len(params) if isinstance(params, _Points) else None
    rows = None if points is None else np.arange(points)
    alpha, beta = model.affine(params, data)
    rows, params, alpha, beta = _screen(
        rows, abs(factor_det(beta)) < INVERSION_DET_TOL, params, alpha, beta)
    X, det = affine_invert(alpha, beta, data.log_prices)
    decay, drift, cov = model.model.moments(params, data.gaps)
    rows, X, det, decay, drift, cov = _screen(
        rows, _degenerate(factor_det(cov)), X, det, decay, drift, cov)
    at = data.gap_index

    def gathered(values):
        return values.take(at, axis=-1)

    resid = []
    for i, x in enumerate(X):
        mean = x[..., :-1] * gathered(decay[i])
        resid.append(x[..., 1:] - (mean if drift is None else mean + gathered(drift[i])))
    density = _gaussian_logpdf(resid, [[gathered(c) for c in row] for row in cov])
    jacobian = np.log(data.price_product * np.abs(det[..., 1:]))
    # row sums of C-ordered arrays: each is the pairwise sum of one point
    ll = np.sum(density, axis=-1) - np.sum(jacobian, axis=-1)
    if rows is None:
        return float(ll), X
    out = np.full(points, -np.inf)
    out[rows] = ll
    return out, X


def _panel_loglik(model: str, params, curve, panel: PricePanel):
    spec = _ML_MODELS[model]
    return _loglik(spec, params, _panel_data(spec, panel, curve))[0]


def loglik_vasicek(params: VasicekParams, panel: PricePanel) -> float:
    """Exact log-likelihood of a single-instrument panel of unit zero
    prices (``PricePanel`` refuses any price above 1).

    The first observation is conditioned on; every later one contributes a
    Gaussian transition density over its own gap minus the log-Jacobian
    log(B P) of the price map.
    """
    return _panel_loglik("vasicek", params, None, panel)


def loglik_g2pp(params: G2Params, curve: DiscountCurve, panel: PricePanel) -> float:
    """Exact log-likelihood of a two-instrument panel of unit zero prices.

    States come from the exact 2x2 inversion each date; transitions are
    bivariate Gaussian over the actual gaps; the Jacobian of the price map
    is P1 * P2 * |B_a(tau1) B_b(tau2) - B_a(tau2) B_b(tau1)| per date.
    Raises BoundaryError at |rho| = 1, where the factor covariance is
    singular.
    """
    if abs(params.rho) >= 1.0:
        raise BoundaryError("|rho| = 1 makes the factor covariance singular")
    return _panel_loglik("g2pp", params, curve, panel)


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


def _negloglik(spec: _MLModel, data: _PanelData, thetas: np.ndarray) -> np.ndarray:
    """-log-likelihood at each row of ``thetas``, the search coordinates of
    fit_ml: inf outside _THETA_BOX, where the panel has no likelihood, and
    where it is not finite."""
    values = np.full(len(thetas), np.inf)
    inside = np.max(np.abs(thetas), axis=1) <= _THETA_BOX
    if inside.any():
        ll, _ = _loglik(spec, _points(spec, thetas[inside]), data)
        values[inside] = np.where(np.isfinite(ll), -ll, np.inf)
    return values


# The maps from search coordinates go through the math module, value by
# value: numpy's vectorised exp and tanh round differently on part of the
# inputs (see libm).


def _vasicek_from_theta(theta) -> tuple:
    """(a, b, sigma)"""
    return math.exp(theta[0]), math.exp(theta[1]), math.exp(theta[2])


def _g2pp_from_theta(theta) -> tuple:
    """(a, b, sigma, eta, rho)"""
    return (
        math.exp(theta[0]),
        math.exp(theta[1]),
        math.exp(theta[2]),
        math.exp(theta[3]),
        RHO_CLIP * math.tanh(theta[4]),
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
    spec = _ML_MODELS.get(model)
    if spec is None:
        raise ValueError(f"unknown model {model!r}")
    if spec.model.needs_curve and curve is None:
        raise ValueError(f"the {model} fit needs the market curve")
    data = _panel_data(spec, panel, curve)
    guess = spec.moment_guess(panel)
    rng = np.random.default_rng(config.seed)
    starts = [guess] + [
        guess + np.log(rng.uniform(0.5, 2.0, size=guess.size))
        for _ in range(config.restarts - 1)
    ]
    res = minimize(functools.partial(_negloglik, spec, data), np.array(starts))
    best = None
    lls = []
    for x, fun in zip(res.x, res.fun):
        ll = -float(fun)
        lls.append(ll)
        if math.isfinite(ll) and (best is None or ll > best[0]):
            best = (ll, x)

    if best is None:
        raise OptimizationError(
            "every restart failed to produce a finite likelihood",
            partial=lls,
        )
    ll_best, theta_best = best
    finite = sorted((v for v in lls if math.isfinite(v)), reverse=True)
    converged = len(finite) < 2 or (finite[0] - finite[1]) <= 1e-4
    boundary = bool(np.max(np.abs(theta_best)) > _THETA_BOX - _BOUNDARY_MARGIN)
    params = spec.model.params(*spec.from_theta(theta_best))

    X, _ = _states(spec, params, data)
    states = StateSeries(
        times=data.times,
        values=X[0] if len(X) == 1 else np.column_stack(X),
        dates=panel.dates,
    )
    report = OptimizerReport(
        restarts=config.restarts,
        iterations=res.nit,
        converged=converged,
        boundary=boundary,
        restart_logliks=lls,
    )
    return FitResult(params=params, loglik=ll_best, states=states, report=report)


_ML_MODELS = {
    "vasicek": _MLModel(
        model=MODELS["vasicek"],
        from_theta=_vasicek_from_theta,
        moment_guess=_moment_guess_vasicek,
        affine=lambda p, data: vasicek_affine(p, data.taus),
    ),
    "g2pp": _MLModel(
        model=MODELS["g2pp"],
        from_theta=_g2pp_from_theta,
        moment_guess=_moment_guess_g2pp,
        affine=lambda p, data: g2pp_affine(p, data.market, data.horizons, data.horizon_index),
    ),
}
