"""Monte-Carlo pricing oracle and synthetic panel generation.

State paths use the exact Gaussian transition over each grid step (no Euler
bias), with the step moments of the model's record in ``models.MODELS``:
each step takes factor i to x_i decay_i (+ drift_i) plus its row of the
lower Cholesky factor of the step covariance times the step's normals
(k = 1 for vasicek and for the stochastic part of the forward-curve
models, whose row is the shock sd; k = 2 for g2pp, whose rows come from
one ``g2pp_cholesky`` call over all steps).  A synthetic panel steps one
path (``_exact_steps``) and prices it closed-form at each observation date.
The oracle integrates the short rate along many paths by the trapezoidal
rule, the only discretization left in its discount factor.  On an exactly
stepped path that integral is a fixed linear form D + w.z in the path's
normals z, so the oracle never steps the factor values:
``_trapezoid_weights`` gives each normal its weight and the form its
constant once per price, and each path's integral is the constant plus
its weighted normals.  The paths come in antithetic pairs: the mirror
path -z has integral 2D - I and needs no draws of its own, and the
estimate and its standard error are those of the pair means (the two
discounts of a pair are not independent, so a standard error over the n
discounts would be wrong).  A path count is therefore even, and at least
two pairs.
The oracle runs in tiles of at most _TILE_PATHS pairs by as many steps as
keep a tile within _BLOCK_ELEMENTS normals (128 pairs and 1 MiB, a tile
one core's L2 cache holds); each pair tile carries only its integral from
one step chunk to the next, and a tile's normals are released before the
next tile is drawn, so memory does not grow with the path count or the
maturity.  Per-pair counter-based seeding, and sums that add each pair's
draws one at a time in draw order, make every estimate reproducible bit
for bit and independent of the tiling; the mean and standard deviation
over pairs rely on numpy's pairwise summation.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .curve import DiscountCurve
from .daycount import year_fraction
from .errors import OrderingError, ResolutionError, SingularInversionError
from .models import MODELS, fitted_by, record
from .rng import normal_block, path_generator, shared_streams, standard_normals
from .shortrate import (
    G2State,
    decay_loading,
    g2pp_cholesky,
    g2pp_price,
    g2pp_variance,
    step_gaps,
    vasicek_price,
)

MIN_STEPS_PER_HORIZON = 50
# normals per tile (one normal_block call): at most 2^17 doubles, 1 MiB, so
# a tile fits in one core's L2 cache, unless the 4-step floor of a chunk
# exceeds it.  normal_block inverts its uniforms in place and a tile is
# released before the next is drawn, so one tile is resident at a time.  A
# 2^22-normal (32 MiB) tile raised the oracle's peak by ~24 MB
_BLOCK_ELEMENTS = 2**17
# antithetic pairs per tile; the steps per tile follow from _BLOCK_ELEMENTS.
# A price's tiles share one bit generator, but every tile pays a state reset
# and a random call per row, so smaller tiles run slower
_TILE_PATHS = 128
# the run-length limit of _check_block_size: min(n_paths, _MIN_BLOCK_PATHS)
# paths of all their draws may hold at most _MAX_BLOCK_ELEMENTS normals
_MIN_BLOCK_PATHS = 256
_MAX_BLOCK_ELEMENTS = 2**24


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: path count, grid step (years) and master seed.
    The horizon is each price's own time to maturity."""

    n_paths: int
    step: float = 1.0 / 252.0
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 4 or self.n_paths % 2:
            raise ValueError(
                f"need an even path count of at least 4 (two antithetic pairs "
                f"for a standard error), got {self.n_paths}"
            )
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error."""

    value: float
    stderr: float
    n_paths: int


# ---------------------------------------------------------------------------
# exact steps and discounted-payoff estimation
# ---------------------------------------------------------------------------


def _check_block_size(n_paths: int, n_draws: int) -> None:
    """Refuse an overlong run before anything is drawn: one "block" of
    min(n_paths, _MIN_BLOCK_PATHS) paths of all their n_draws normals may
    hold at most _MAX_BLOCK_ELEMENTS.

    The tiles bound memory at any run length, so this is a limit on run
    length alone, which ``oracle --maturity/--step`` take from the user:
    without it, ``--maturity 1e6 --paths 10`` would start 252M steps.
    """
    paths = min(n_paths, _MIN_BLOCK_PATHS)
    if paths * n_draws > _MAX_BLOCK_ELEMENTS:
        raise ResolutionError(
            f"{paths} paths x {n_draws} draws per path exceed one block of "
            f"{_MAX_BLOCK_ELEMENTS} normals; use fewer steps or a shorter maturity"
        )


def _tile_steps(n_pairs: int, k: int) -> int:
    """Steps per tile: as many as keep min(n_pairs, _TILE_PATHS) pairs of k
    normals per step within _BLOCK_ELEMENTS, rounded down to an odd
    multiple of 4, and at least 4.

    A multiple of 4 starts every chunk on a Philox counter (four draws).
    An odd one keeps the tile's row stride, 8 k steps bytes, free of large
    powers of two: the kernel's running sums read one draw of every row at
    a time, and at a power-of-two stride (2^13 bytes for 2^17 // (128 k)
    steps) those reads share a few cache sets (at 2^14 bytes, a 30-year
    two-factor oracle ran its steps about a quarter slower).
    """
    pairs = min(n_pairs, _TILE_PATHS)
    steps = max(4, _BLOCK_ELEMENTS // (pairs * k) // 4 * 4)
    return steps - 4 if steps % 8 == 0 else steps


def _cholesky_rows(cov):
    """Lower Cholesky rows chol[i][j] of the step covariances cov[i][j]:
    the shock sd for one factor, ``g2pp_cholesky`` for two."""
    if len(cov) == 1:
        return [[np.sqrt(cov[0][0])]]
    return g2pp_cholesky(cov)


def _check_state(model: str, state0) -> None:
    state = MODELS[model].state
    if not isinstance(state0, state):
        raise TypeError(f"{model} model needs a {state.__name__} starting state")


def _exact_steps(decay, drift, chol, x0, z):
    """Yield the k factor values, one array over paths each, after every
    exact step, from the values x0 (k floats) and the normals z of shape
    (paths, steps, k).

    Over step s, factor i moves to x_i decay[i][s] (+ drift[i][s] unless
    drift is None) + sum_{j <= i} chol[i][j][s] z[:, s, j], where chol is
    the lower Cholesky factor of the step's shock covariance.
    """
    x = [np.full(z.shape[0], v, dtype=float) for v in x0]
    for s in range(z.shape[1]):
        x_new = []
        for i in range(len(x)):
            v = x[i] * decay[i][s]
            if drift is not None:
                v = v + drift[i][s]
            for j in range(i + 1):
                v = v + chol[i][j][s] * z[:, s, j]
            x_new.append(v)
        x = x_new
        yield x


def _trapezoid_weights(decay, drift, chol, x0, steps):
    """(D, w) such that the trapezoid integral of the factor sum along an
    exactly stepped path (``_exact_steps``) is D + sum_c w[c] z_c over the
    path's normals z_c in draw order (step-major, factor-minor).

    The rule weighs node q by W_0 = h_0/2, W_q = (h_{q-1} + h_q)/2 and
    W_n = h_{n-1}/2.  A shock to factor i at step s reaches every later
    node q through the decays of steps s+1 .. q-1, so its weight is
    G_i(s) = W_{s+1} + decay_i(s+1) G_i(s+1), with G_i(n-1) = W_n; normal j
    of step s weighs sum_{i >= j} chol[i][j][s] G_i(s).  D collects x0 and
    the drifts the same way.
    """
    k, n = len(x0), steps.size
    h = steps.tolist()
    node = [0.5 * h[0]] + [0.5 * (a + b) for a, b in zip(h, h[1:])] + [0.5 * h[-1]]
    D = 0.0
    G = []
    for i in range(k):
        d = decay[i].tolist()
        g = [0.0] * n
        acc = g[-1] = node[n]
        for s in range(n - 2, -1, -1):
            acc = g[s] = node[s + 1] + d[s + 1] * acc
        g = np.array(g)
        D += x0[i] * (node[0] + d[0] * g[0])
        if drift is not None:
            D += float(np.dot(drift[i], g))
        G.append(g)
    w = np.empty((n, k))
    for j in range(k):
        w[:, j] = sum(chol[i][j] * G[i] for i in range(j, k))
    return float(D), w.ravel()


def _trapezoid_discounts(decay, drift, chol, x0, steps, seed, n_pairs):
    """exp(-trapz of the factor sum) over antithetic pairs of exactly
    sampled k-factor paths, one row per pair: pair p's path draws the
    normals z of stream (seed, p), its mirror takes -z.

    The integral is the linear form D + w.z of ``_trapezoid_weights``:
    each tile's normals are scaled by their weights in place and summed
    along each row one draw at a time, after the integral the pair carries
    from its earlier chunks, so every pair adds its draws in draw order
    whatever the tiling.  The mirror's integral is then 2D - I.  Pairs run
    in tiles of at most _TILE_PATHS, each pair tile its steps in chunks of
    ``_tile_steps``, all tiles drawn through one shared bit generator.
    """
    k, n_steps = len(x0), steps.size
    D, weights = _trapezoid_weights(decay, drift, chol, x0, steps)
    chunk = _tile_steps(n_pairs, k)
    out = np.empty((n_pairs, 2))
    with shared_streams():
        for first in range(0, n_pairs, _TILE_PATHS):
            count = min(_TILE_PATHS, n_pairs - first)
            integral = np.full(count, D)
            for s0 in range(0, n_steps, chunk):
                m = min(chunk, n_steps - s0)
                z = normal_block(seed, first, count, k * m, k * s0)
                z *= weights[k * s0 : k * (s0 + m)]
                z[:, 0] += integral
                # a running sum along each row, one draw at a time
                np.add.accumulate(z, axis=1, out=z)
                integral = z[:, -1].copy()
                # release this tile before the next one is drawn
                del z
            out[first : first + count, 0] = np.exp(-integral)
            out[first : first + count, 1] = np.exp(integral - 2.0 * D)
    return out


def _estimate(discounts: np.ndarray, scale: float) -> McEstimate:
    """The mean and standard error of the pair means of ``discounts``
    (one row per antithetic pair), times ``scale``."""
    pairs = 0.5 * (discounts[:, 0] + discounts[:, 1])
    value = float(np.mean(pairs)) * scale
    stderr = float(np.std(pairs, ddof=1)) / math.sqrt(pairs.size) * scale
    return McEstimate(value=value, stderr=stderr, n_paths=2 * pairs.size)


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
    configured step) and discounted by the trapezoidal rule, in
    ``config.n_paths / 2`` antithetic pairs (``SimConfig`` holds the path
    count to an even number of at least 4).  Models quoted off a market
    curve absorb their deterministic shift analytically, so only the
    stochastic part is simulated.  Raises ResolutionError when the step is
    coarser than a 50th of the horizon.
    """
    spec = record(model, params)
    _check_state(model, state0)
    t0 = state0.t

    if T <= t0:
        raise OrderingError(f"maturity {T} must lie after the state time {t0}")
    horizon = T - t0
    if config.step > horizon / MIN_STEPS_PER_HORIZON:
        raise ResolutionError(
            f"step {config.step:.6g} too coarse for horizon {horizon:.6g}; "
            f"need at least {MIN_STEPS_PER_HORIZON} steps"
        )
    n_steps = int(math.ceil(horizon / config.step))
    _check_block_size(config.n_paths, spec.factors * n_steps)
    times = np.linspace(t0, T, n_steps + 1)
    steps = step_gaps(times)
    if spec.needs_curve and curve is None:
        raise ValueError(f"{model} model needs the market curve")

    x0 = spec.factor_values(state0)
    log_scale = 0.0
    if spec.needs_curve:
        # the market forward, absorbed exactly through the observed curve
        log_scale = curve.log_discount(T) - curve.log_discount(t0)
    if model == "g2pp":
        # P(t,T) = ratio * exp((V(0,t)-V(0,T))/2) * E[exp(-int (x+y))]
        log_scale += 0.5 * (g2pp_variance(params, 0.0, t0) - g2pp_variance(params, 0.0, T))
    elif spec.needs_curve:
        # forward-curve models: r(t) = f(0,t) + sigma^2 B(t)^2 / 2 + x(t),
        # B(t) = t for Ho-Lee.  The curve is log-linear, so its forward is
        # piecewise constant and a trapezoid over it would err by h/2 times
        # the jump at every pillar; only the smooth convexity term is left
        # to the trapezoid rule
        loading = times if model == "holee" else decay_loading(params.a, times)
        convexity = 0.5 * params.sigma**2 * loading**2
        x0 = [x0[0] - (curve.forward(t0) + convexity[0])]
        log_scale -= float(np.trapezoid(convexity, times))
    decay, drift, cov = spec.moments(params, steps)
    discounts = _trapezoid_discounts(
        decay, drift, _cholesky_rows(cov), x0, steps, config.seed, config.n_paths // 2
    )
    return _estimate(discounts, scale=math.exp(log_scale))


# ---------------------------------------------------------------------------
# synthetic panels
# ---------------------------------------------------------------------------


def _synth_path(decay, drift, chol, x0, seed):
    """The one path a panel prices: the factor values x0, then those after
    each exact step, driven by the normals of stream (seed, 0)."""
    k, n_steps = len(x0), len(decay[0])
    z = standard_normals(path_generator(seed, 0), k * n_steps).reshape(1, n_steps, k)
    return [x0] + [[float(v[0]) for v in x] for x in _exact_steps(decay, drift, chol, x0, z)]


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

    if model not in fitted_by("ml"):
        raise ValueError(f"unknown model {model!r}")
    spec = record(model, params)
    if spec.needs_curve and curve is None:
        raise ValueError(f"{model} model needs the market curve")
    if not instruments:
        raise ValueError("need at least one instrument")
    if spec.factors > 1 and len(instruments) != spec.factors:
        raise ValueError(
            f"the {spec.factors}-factor panel needs exactly {spec.factors} instruments"
        )
    state0 = spec.default_state(params, curve) if state0 is None else state0
    _check_state(model, state0)

    times = np.array([year_fraction(schedule[0], d) for d in schedule])
    decay, drift, cov = spec.moments(params, step_gaps(times))
    path = _synth_path(
        decay, drift, _cholesky_rows(cov), spec.factor_values(state0), seed
    )
    observations = []
    for t, date, x in zip(times.tolist(), schedule, path):
        if model == "vasicek":
            quotes = {
                name: vasicek_price(params, x[0], 0.0, year_fraction(date, mat))
                for name, mat in instruments
            }
        else:
            state = G2State(*x, t)
            quotes = {
                name: g2pp_price(params, curve, state, t + year_fraction(date, mat))
                for name, mat in instruments
            }
        observations.append((date, quotes))

    return PricePanel(observations=observations, instruments=list(instruments))
