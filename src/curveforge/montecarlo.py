"""Monte-Carlo pricing oracle and synthetic panel generation.

State paths use the exact Gaussian transition over each grid step (no Euler
bias), so the only discretization left is the trapezoidal rule for the
integrated short rate in the discount factor.  Every model runs through one
k-factor kernel: each step takes factor i to x_i decay_i (+ drift_i) plus
its row of the lower Cholesky factor of the step covariance times the
step's normals (k = 1 for vasicek and for the stochastic part of the
forward-curve models, k = 2 for g2pp).  Per-path counter-based
seeding makes every estimate reproducible bit for bit and independent of
block decomposition; accumulation relies on numpy's pairwise summation.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .curve import DiscountCurve
from .daycount import year_fraction
from .errors import OrderingError, ResolutionError, SingularInversionError
from .hjm import ShortRateState
from .models import PARAM_TYPES
from .rng import normal_block, path_generator, standard_normals
from .shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    g2pp_cholesky,
    g2pp_price,
    g2pp_transition,
    g2pp_variance,
    vasicek_price,
)

MIN_STEPS_PER_HORIZON = 50
# 2^24 doubles (128 MiB) per normals block; normal_block inverts its uniforms
# in place, so one block is resident per call
_BLOCK_ELEMENTS = 2**24
# fewest paths in a block, whatever the draws per path
_MIN_BLOCK_PATHS = 256
# the most normals one block may hold: the memory cap, apart from the block
# size above, which only sets how paths are split
_MAX_BLOCK_ELEMENTS = 2**24


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: path count, grid step (years), optional horizon
    for commands that do not get an explicit maturity, and master seed."""

    n_paths: int
    step: float = 1.0 / 252.0
    horizon: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"need at least 1 path, got {self.n_paths}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.horizon is not None and self.step > self.horizon:
            raise ResolutionError(
                f"step {self.step} exceeds horizon {self.horizon}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error."""

    value: float
    stderr: float
    n_paths: int


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if grid[0] != 0.0:
        raise OrderingError("grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise OrderingError("grid must be strictly increasing")
    return grid


def simulate_ou(a, mean_level, sigma, x0, grid, rng) -> np.ndarray:
    """One mean-reverting path sampled exactly on ``grid``.

    dx = a (mean_level - x) dt + sigma dW; sigma = 0 gives the
    deterministic mean curve.  Handles irregular grids.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    grid = _check_grid(grid)
    steps = np.diff(grid)
    z = standard_normals(rng, steps.size)
    path = np.empty(grid.size)
    path[0] = x0
    x = float(x0)
    for k, h in enumerate(steps):
        decay = math.exp(-a * h)
        sd = sigma * math.sqrt(-math.expm1(-2.0 * a * h) / (2.0 * a))
        x = x * decay + mean_level * (1.0 - decay) + sd * z[k]
        path[k + 1] = x
    return path


def simulate_correlated_ou(a, b, sigma, eta, rho, x0, y0, grid, rng):
    """Two zero-mean-reverting factor paths with correlated shocks.

    Exact sampling from the joint Gaussian transition per step; sigma or
    eta equal to zero degenerates that factor to deterministic decay.
    """
    if a <= 0 or b <= 0:
        raise ValueError("reversion speeds must be positive")
    if sigma < 0 or eta < 0:
        raise ValueError("volatilities must be >= 0")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    grid = _check_grid(grid)
    steps = np.diff(grid)
    z = standard_normals(rng, 2 * steps.size).reshape(steps.size, 2)
    xs = np.empty(grid.size)
    ys = np.empty(grid.size)
    xs[0], ys[0] = x0, y0
    x, y = float(x0), float(y0)
    for k, h in enumerate(steps):
        sx = sigma * math.sqrt(-math.expm1(-2.0 * a * h) / (2.0 * a))
        sy = eta * math.sqrt(-math.expm1(-2.0 * b * h) / (2.0 * b))
        # correlation of the integrated shocks over one exact step
        if sx > 0 and sy > 0:
            cov = rho * sigma * eta * (-math.expm1(-(a + b) * h)) / (a + b)
            corr = cov / (sx * sy)
        else:
            corr = 0.0
        corr_c = math.sqrt(max(1.0 - corr * corr, 0.0))
        x = x * math.exp(-a * h) + sx * z[k, 0]
        y = y * math.exp(-b * h) + sy * (corr * z[k, 0] + corr_c * z[k, 1])
        xs[k + 1], ys[k + 1] = x, y
    return xs, ys


def simulate_g2(params: G2Params, state0: G2State, grid, rng):
    """Factor paths for the two-factor model from ``state0`` along ``grid``
    (grid times are offsets from state0.t)."""
    return simulate_correlated_ou(
        params.a, params.b, params.sigma, params.eta, params.rho,
        state0.x, state0.y, grid, rng,
    )


# ---------------------------------------------------------------------------
# discounted-payoff estimation
# ---------------------------------------------------------------------------


def _check_block_size(n_paths: int, n_draws: int) -> None:
    """Refuse a simulation whose first block of normals (``_blocked`` puts
    at least min(n_paths, _MIN_BLOCK_PATHS) paths in one) would hold more
    than _MAX_BLOCK_ELEMENTS draws, before anything is allocated."""
    paths = min(n_paths, _MIN_BLOCK_PATHS)
    if paths * n_draws > _MAX_BLOCK_ELEMENTS:
        raise ResolutionError(
            f"{paths} paths x {n_draws} draws per path exceed one block of "
            f"{_MAX_BLOCK_ELEMENTS} normals; use fewer steps or a shorter maturity"
        )


def _blocked(n_paths: int, n_draws: int):
    block = max(_MIN_BLOCK_PATHS, min(n_paths, _BLOCK_ELEMENTS // max(n_draws, 1)))
    start = 0
    while start < n_paths:
        yield start, min(block, n_paths - start)
        start += block


def _ou_steps(a, sigma, steps):
    """Per-step decay and shock sd of dg = -a g dt + sigma dW; a = 0 gives
    the Brownian motion sigma W."""
    if a > 0:
        return np.exp(-a * steps), sigma * np.sqrt(-np.expm1(-2.0 * a * steps) / (2.0 * a))
    return np.ones_like(steps), sigma * np.sqrt(steps)


def _g2pp_steps(params: G2Params, state0: G2State, steps):
    """Per-step factor decays and lower Cholesky rows of the two-factor
    shock covariance."""
    chols = [g2pp_cholesky(g2pp_transition(params, state0, float(h))[1]) for h in steps]
    l11, l21, l22 = (np.array([c[i, j] for c in chols]) for i, j in ((0, 0), (1, 0), (1, 1)))
    return [np.exp(-params.a * steps), np.exp(-params.b * steps)], [[l11], [l21, l22]]


def _trapezoid_discounts(decay, drift, chol, x0, steps, seed, n_paths):
    """exp(-trapz of the factor sum) over exactly sampled k-factor paths.

    Over step s, factor i moves to x_i decay[i][s] (+ drift[i][s] unless
    drift is None) + sum_{j <= i} chol[i][j][s] z_j, where chol is the lower
    Cholesky factor of the step's shock covariance and z_j the path's
    normal j of that step.
    """
    k, n_steps = len(x0), steps.size
    out = np.empty(n_paths)
    for first, count in _blocked(n_paths, k * n_steps):
        z = normal_block(seed, first, count, k * n_steps).reshape(count, n_steps, k)
        x = [np.full(count, float(v)) for v in x0]
        integral = np.zeros(count)
        for s in range(n_steps):
            x_new = []
            for i in range(k):
                v = x[i] * decay[i][s]
                if drift is not None:
                    v = v + drift[i][s]
                for j in range(i + 1):
                    v = v + chol[i][j][s] * z[:, s, j]
                x_new.append(v)
            integral += 0.5 * steps[s] * (sum(x[1:], x[0]) + sum(x_new[1:], x_new[0]))
            x = x_new
        out[first : first + count] = np.exp(-integral)
    return out


def _estimate(discounts: np.ndarray, scale: float = 1.0) -> McEstimate:
    n = discounts.size
    value = float(np.mean(discounts)) * scale
    stderr = float(np.std(discounts, ddof=1)) / math.sqrt(n) * scale
    return McEstimate(value=value, stderr=stderr, n_paths=n)


def mc_zero_price(
    model: str,
    params,
    state0,
    T: float,
    config: SimConfig,
    curve: DiscountCurve | None = None,
) -> McEstimate:
    """Monte-Carlo zero-coupon price E[exp(-int r)] for any supported model.

    The short-rate path is sampled exactly on a uniform grid from the state
    time to T (ceil(horizon / step) equal steps, none longer than the
    configured step) and discounted by the trapezoidal rule.  Models quoted off a market curve absorb their
    deterministic shift analytically, so only the stochastic part is
    simulated.  Raises ResolutionError when the step is coarser than a 50th
    of the horizon.
    """
    if model == "vasicek":
        # a raw (a, b, sigma) triple is accepted so degenerate volatility
        # (sigma = 0) can be priced, matching the wider simulate_ou domain
        if isinstance(params, VasicekParams):
            vas_abc = (params.a, params.b, params.sigma)
        elif np.shape(params) == (3,):
            vas_abc = (float(params[0]), float(params[1]), float(params[2]))
            if vas_abc[0] <= 0 or vas_abc[2] < 0:
                raise ValueError("need a > 0 and sigma >= 0")
        else:
            raise TypeError("vasicek model needs VasicekParams or (a, b, sigma)")
        r0 = state0.r if isinstance(state0, ShortRateState) else float(state0)
        t0 = state0.t if isinstance(state0, ShortRateState) else 0.0
    elif model in PARAM_TYPES:
        state_type = G2State if model == "g2pp" else ShortRateState
        if not isinstance(params, PARAM_TYPES[model]):
            raise TypeError(f"{model} model needs {PARAM_TYPES[model].__name__}")
        if not isinstance(state0, state_type):
            raise TypeError(f"{model} model needs a {state_type.__name__} starting state")
        t0 = state0.t
    else:
        raise ValueError(f"unknown model {model!r}")

    if T <= t0:
        raise OrderingError(f"maturity {T} must lie after the state time {t0}")
    if config.n_paths < 2:
        raise ValueError("a standard error needs at least 2 paths")
    if config.horizon is not None and T > config.horizon:
        raise OrderingError(
            f"maturity {T} exceeds the configured horizon {config.horizon}"
        )
    horizon = T - t0
    if config.step > horizon / MIN_STEPS_PER_HORIZON:
        raise ResolutionError(
            f"step {config.step:.6g} too coarse for horizon {horizon:.6g}; "
            f"need at least {MIN_STEPS_PER_HORIZON} steps"
        )
    n_steps = int(math.ceil(horizon / config.step))
    _check_block_size(config.n_paths, (2 if model == "g2pp" else 1) * n_steps)
    times = np.linspace(t0, T, n_steps + 1)
    steps = np.diff(times)

    if model == "vasicek":
        a, mean_level, sigma = vas_abc
        decay, sd = _ou_steps(a, sigma, steps)
        discounts = _trapezoid_discounts(
            [decay], [mean_level * (1.0 - decay)], [[sd]], [r0],
            steps, config.seed, config.n_paths,
        )
        return _estimate(discounts)

    if curve is None:
        raise ValueError(f"{model} model needs the market curve")

    if model == "g2pp":
        # deterministic shift, absorbed via the observed curve:
        # P(t,T) = ratio * exp((V(0,t)-V(0,T))/2) * E[exp(-int (x+y))]
        log_det = (
            curve.log_discount(T)
            - curve.log_discount(t0)
            + 0.5 * (g2pp_variance(params, 0.0, t0) - g2pp_variance(params, 0.0, T))
        )
        decay, chol = _g2pp_steps(params, state0, steps)
        discounts = _trapezoid_discounts(
            decay, None, chol, [state0.x, state0.y], steps, config.seed, config.n_paths
        )
        return _estimate(discounts, scale=math.exp(log_det))

    # forward-curve models: r(t) = deterministic(t) + convolution(t)
    fwd = curve.forward(times)
    if model == "holee":
        deterministic = fwd + 0.5 * params.sigma**2 * times**2
        a_conv = 0.0
    else:
        loading = -np.expm1(-params.a * times) / params.a
        deterministic = fwd + 0.5 * params.sigma**2 * loading**2
        a_conv = params.a
    g0 = state0.r - deterministic[0]
    det_integral = float(np.trapezoid(deterministic, times))
    decay, sd = _ou_steps(a_conv, params.sigma, steps)
    discounts = _trapezoid_discounts(
        [decay], None, [[sd]], [g0], steps, config.seed, config.n_paths
    )
    return _estimate(discounts, scale=math.exp(-det_integral))


# ---------------------------------------------------------------------------
# synthetic panels
# ---------------------------------------------------------------------------


def synth_panel(
    model: str,
    params,
    schedule: list[dt.date],
    instruments: list[tuple[str, dt.date]],
    curve: DiscountCurve | None = None,
    state0=None,
    seed: int = 0,
):
    """Simulate a state history on ``schedule`` (exact transitions, gaps may
    be irregular) and price every instrument closed-form at each date.

    Instruments must have distinct maturities strictly after the last
    observation date -- equal maturities would defeat state inversion later,
    so they are rejected here rather than at estimation time.
    """
    from .estimation import PricePanel  # local import; estimation depends on us not

    if len(schedule) < 2:
        raise ValueError("schedule needs at least two dates")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise OrderingError("schedule dates must be strictly increasing")
    maturities = [m for _, m in instruments]
    if len(set(maturities)) != len(maturities):
        raise SingularInversionError(
            "instruments share a maturity; the panel could never be inverted"
        )
    if min(maturities, default=None) is not None and min(maturities) <= schedule[-1]:
        raise OrderingError("instrument maturities must lie after the last observation")

    if model not in ("vasicek", "g2pp"):
        raise ValueError(f"unknown model {model!r}")
    if not isinstance(params, PARAM_TYPES[model]):
        raise TypeError(f"{model} model needs {PARAM_TYPES[model].__name__}")
    times = np.array([year_fraction(schedule[0], d) for d in schedule])
    grid = times - times[0]
    rng = path_generator(seed, 0)

    observations = []
    if model == "vasicek":
        if len(instruments) < 1:
            raise ValueError("need at least one instrument")
        r0 = params.b if state0 is None else float(state0)
        path = simulate_ou(params.a, params.b, params.sigma, r0, grid, rng)
        for k, date in enumerate(schedule):
            quotes = {}
            for name, mat in instruments:
                tau = year_fraction(date, mat)
                quotes[name] = vasicek_price(params, float(path[k]), 0.0, tau)
            observations.append((date, quotes))
    else:
        if curve is None:
            raise ValueError("g2pp model needs the market curve")
        if len(instruments) != 2:
            raise ValueError("the two-factor panel needs exactly two instruments")
        s0 = G2State(0.0, 0.0, 0.0) if state0 is None else state0
        xs, ys = simulate_g2(params, s0, grid, rng)
        for k, date in enumerate(schedule):
            state = G2State(float(xs[k]), float(ys[k]), float(grid[k]))
            quotes = {}
            for name, mat in instruments:
                T = float(grid[k]) + year_fraction(date, mat)
                quotes[name] = g2pp_price(params, curve, state, T)
            observations.append((date, quotes))

    return PricePanel(observations=observations, instruments=list(instruments))
