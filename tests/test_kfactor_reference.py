"""The k-factor likelihood, state inversion and Monte-Carlo kernel against
frozen copies of the separate one- and two-factor code they replaced.

The ``_ref_*`` functions below are verbatim copies of the earlier
per-model implementations, kept here as differential oracles.  The
two-factor likelihood and states and the one-factor states must be equal
bit for bit.  The one-factor log-likelihood may differ in the last bits on
equal gaps, where its single transition now comes from numpy's exp and
expm1 instead of the math module's.

The simulators' step moments now come from the model records
(``models.MODELS``), the ones the likelihood uses, and are checked against
frozen copies of the per-model step code they replaced: the scalar
``g2pp_transition`` and ``g2pp_cholesky``, the per-step loop of
``_g2pp_steps`` that called them, and ``_ou_steps``.  Decays, drifts and
error types must agree on every step.  The one-factor shock sd is now
sqrt(sigma^2 q / 2a) instead of sigma sqrt(q / 2a), and the two-factor
covariance takes numpy's expm1 instead of the math module's, so those
agree to a rounding bound derived below.

The references integrate each path by stepping its factor values; the
merged kernel sums the path's normals with fixed weights instead, and
returns each antithetic pair's path and its mirror.  Given the
reference's steps, the kernel's first column agrees with the reference's
discounts, and its second with the reference's driven by the negated
normals, to rounding bounds derived below from the step count.

The scalar one-date inversions the package once exported
(``vasicek_invert_state``, ``g2pp_invert_states``) are kept here as frozen
copies too; the panel states must match them to 1e-12.
"""

import dataclasses
import datetime as dt
import math
import sys

import numpy as np
import pytest

from curveforge import montecarlo
from curveforge.curve import flat_curve
from curveforge.errors import (
    BoundaryError,
    DegenerateStepError,
    OrderingError,
    SingularInversionError,
)
from curveforge.estimation import (
    _ML_MODELS,
    LOG2PI,
    PricePanel,
    _PanelData,
    _states,
    loglik_g2pp,
    loglik_vasicek,
)
from curveforge.hjm import HoLeeParams, HullWhiteParams, ShortRateState
from curveforge.models import MODELS
from curveforge.montecarlo import (
    SimConfig,
    _cholesky_rows,
    _trapezoid_discounts,
    mc_zero_price,
    synth_panel,
)
from curveforge.rng import normal_block
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    affine_invert,
    decay_loading,
    g2pp_affine,
    g2pp_cholesky,
    g2pp_horizons,
    g2pp_variance,
    vasicek_affine,
)

START = dt.date(2010, 1, 4)
CURVE = flat_curve(0.05, span=80.0)
README_G2 = G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4)
FAST_VAS = VasicekParams(a=5.0, b=0.05, sigma=0.1)


# ---------------------------------------------------------------------------
# frozen references: the per-model likelihoods
# ---------------------------------------------------------------------------


def _ref_vasicek_states(a, b, sigma, taus, prices, price_scale):
    B = decay_loading(a, taus)
    lnA = (b - sigma**2 / (2.0 * a**2)) * (B - taus) - sigma**2 * B**2 / (4.0 * a)
    r = (lnA - (np.log(prices) - math.log(price_scale))) / B
    return r, B


def _ref_gaussian_loglik_terms(resid, var):
    return -0.5 * (LOG2PI + np.log(var) + resid * resid / var)


def _ref_loglik_vasicek_core(a, b, sigma, taus, prices, gaps, uniform, price_scale):
    r, B = _ref_vasicek_states(a, b, sigma, taus, prices, price_scale)
    if uniform:
        h = float(gaps[0])
        decay = math.exp(-a * h)
        var = sigma**2 * (-math.expm1(-2.0 * a * h)) / (2.0 * a)
        if not (var > 0 and math.isfinite(var)):
            raise DegenerateStepError(f"transition variance degenerate at gap {h}")
        mean = r[:-1] * decay + b * (1.0 - decay)
        density = _ref_gaussian_loglik_terms(r[1:] - mean, var)
    else:
        decay = np.exp(-a * gaps)
        var = sigma**2 * (-np.expm1(-2.0 * a * gaps)) / (2.0 * a)
        if not (np.all(var > 0) and np.all(np.isfinite(var))):
            raise DegenerateStepError("transition variance degenerate at some gap")
        mean = r[:-1] * decay + b * (1.0 - decay)
        density = _ref_gaussian_loglik_terms(r[1:] - mean, var)
    jacobian = np.log(B[1:] * prices[1:])
    return float(np.sum(density) - np.sum(jacobian)), r


def _ref_g2pp_invert_panel(params, curve, times, taus1, taus2, p1, p2, price_scale):
    T1 = times + taus1
    T2 = times + taus2
    ba1 = decay_loading(params.a, taus1)
    ba2 = decay_loading(params.a, taus2)
    bb1 = decay_loading(params.b, taus1)
    bb2 = decay_loading(params.b, taus2)
    det = ba1 * bb2 - ba2 * bb1
    if np.any(np.abs(det) < 1e-14):
        raise SingularInversionError("factor loadings are singular on some date")
    log_t = curve.log_discount(times)
    v0t = g2pp_variance(params, 0.0, times)

    def rhs(prices, T, taus):
        market = curve.log_discount(T) - log_t
        adjust = 0.5 * (
            g2pp_variance(params, 0.0, taus)
            - g2pp_variance(params, 0.0, T)
            + v0t
        )
        return market + adjust - (np.log(prices) - math.log(price_scale))

    k1 = rhs(p1, T1, taus1)
    k2 = rhs(p2, T2, taus2)
    x = (k1 * bb2 - k2 * bb1) / det
    y = (ba1 * k2 - ba2 * k1) / det
    return x, y, det


def _ref_loglik_g2pp_core(
    params, curve, times, taus1, taus2, p1, p2, gaps, uniform, price_scale
):
    x, y, det = _ref_g2pp_invert_panel(
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
        raise BoundaryError("transition covariance is singular")
    dx = x[1:] - x[:-1] * decay_x
    dy = y[1:] - y[:-1] * decay_y
    quad = (v2 * dx * dx - 2.0 * c12 * dx * dy + v1 * dy * dy) / det_cov
    density = -LOG2PI - 0.5 * np.log(det_cov) - 0.5 * quad
    jacobian = np.log(p1[1:] * p2[1:] * np.abs(det[1:]))
    return float(np.sum(density) - np.sum(jacobian)), x, y


# ---------------------------------------------------------------------------
# frozen references: the scalar one-date inversions
# ---------------------------------------------------------------------------


def _ref_vasicek_invert_state(params, price, t, T):
    """Short rate implied by an observed zero price: r = (ln A - ln P)/B."""
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    if T < t:
        raise OrderingError(f"maturity {T} precedes valuation time {t}")
    alpha, beta = vasicek_affine(params, [T - t])
    (r,), _ = affine_invert(alpha, beta, [math.log(price)])
    return r


def _ref_g2pp_invert_states(params, curve, prices, t, maturities):
    """Recover (x, y) from two observed zero prices at distinct maturities.

    Solves the 2x2 linear system given by the affine log-price at both
    maturities.  Raises SingularInversionError when the loading matrix is
    numerically singular (equal maturities, or a == b making the factors
    indistinguishable).
    """
    T1, T2 = maturities
    p1, p2 = prices
    if p1 <= 0 or p2 <= 0:
        raise ValueError("prices must be positive")
    if T1 <= t or T2 <= t:
        raise OrderingError("both maturities must lie strictly after t")
    alpha, beta = g2pp_affine(params, *g2pp_horizons(curve, t, [T1 - t, T2 - t]))
    (x, y), _ = affine_invert(alpha, beta, [math.log(p1), math.log(p2)])
    return G2State(x=float(x), y=float(y), t=t)


# ---------------------------------------------------------------------------
# frozen references: the per-model Monte-Carlo kernels
# ---------------------------------------------------------------------------


def _ref_g2pp_transition(params, state, dt):
    if dt <= 0:
        raise DegenerateStepError(f"step must be positive, got {dt}")
    a, b, sigma, eta, rho = params.a, params.b, params.sigma, params.eta, params.rho
    mean = np.array([state.x * math.exp(-a * dt), state.y * math.exp(-b * dt)])
    var_x = sigma**2 * (-math.expm1(-2.0 * a * dt)) / (2.0 * a)
    var_y = eta**2 * (-math.expm1(-2.0 * b * dt)) / (2.0 * b)
    cov_xy = rho * sigma * eta * (-math.expm1(-(a + b) * dt)) / (a + b)
    cov = np.array([[var_x, cov_xy], [cov_xy, var_y]])
    return mean, cov


def _ref_g2pp_cholesky(cov):
    v1, c = cov[0, 0], cov[0, 1]
    v2 = cov[1, 1]
    if v1 <= 0 or v2 <= 0:
        raise BoundaryError("transition covariance is degenerate")
    l11 = math.sqrt(v1)
    l21 = c / l11
    rem = v2 - l21 * l21
    if rem < -1e-12 * v2:
        raise BoundaryError("transition covariance is not positive semi-definite")
    return np.array([[l11, 0.0], [l21, math.sqrt(max(rem, 0.0))]])


def _ref_g2pp_steps(params, state0, steps):
    chols = [_ref_g2pp_cholesky(_ref_g2pp_transition(params, state0, float(h))[1]) for h in steps]
    l11, l21, l22 = (np.array([c[i, j] for c in chols]) for i, j in ((0, 0), (1, 0), (1, 1)))
    return [np.exp(-params.a * steps), np.exp(-params.b * steps)], [[l11], [l21, l22]]


def _ref_ou_steps(a, sigma, steps):
    if a > 0:
        return np.exp(-a * steps), sigma * np.sqrt(-np.expm1(-2.0 * a * steps) / (2.0 * a))
    return np.ones_like(steps), sigma * np.sqrt(steps)


def _ref_blocked(n_paths, n_draws):
    block = max(256, min(n_paths, 2**24 // max(n_draws, 1)))
    start = 0
    while start < n_paths:
        yield start, min(block, n_paths - start)
        start += block


def _ref_trapezoid_discounts_ou(a, mean_level, sigma, x0, steps, seed, n_paths):
    n_steps = steps.size
    decay = np.exp(-a * steps)
    drift = mean_level * (1.0 - decay)
    sd = sigma * np.sqrt(-np.expm1(-2.0 * a * steps) / (2.0 * a))
    out = np.empty(n_paths)
    for first, count in _ref_blocked(n_paths, n_steps):
        z = normal_block(seed, first, count, n_steps)
        x = np.full(count, float(x0))
        integral = np.zeros(count)
        for k in range(n_steps):
            x_new = x * decay[k] + drift[k] + sd[k] * z[:, k]
            integral += 0.5 * steps[k] * (x + x_new)
            x = x_new
        out[first : first + count] = np.exp(-integral)
    return out


def _ref_trapezoid_discounts_g2(params, state0, steps, seed, n_paths):
    n_steps = steps.size
    decay_x = np.exp(-params.a * steps)
    decay_y = np.exp(-params.b * steps)
    chols = [_ref_g2pp_cholesky(_ref_g2pp_transition(params, state0, float(h))[1]) for h in steps]
    l11 = np.array([c[0, 0] for c in chols])
    l21 = np.array([c[1, 0] for c in chols])
    l22 = np.array([c[1, 1] for c in chols])
    out = np.empty(n_paths)
    for first, count in _ref_blocked(n_paths, 2 * n_steps):
        z = normal_block(seed, first, count, 2 * n_steps).reshape(count, n_steps, 2)
        x = np.full(count, state0.x)
        y = np.full(count, state0.y)
        integral = np.zeros(count)
        for k in range(n_steps):
            x_new = x * decay_x[k] + l11[k] * z[:, k, 0]
            y_new = y * decay_y[k] + l21[k] * z[:, k, 0] + l22[k] * z[:, k, 1]
            integral += 0.5 * steps[k] * ((x + y) + (x_new + y_new))
            x, y = x_new, y_new
        out[first : first + count] = np.exp(-integral)
    return out


def _ref_trapezoid_discounts_brownian_conv(a, sigma, g0, steps, seed, n_paths):
    n_steps = steps.size
    if a > 0:
        decay = np.exp(-a * steps)
        sd = sigma * np.sqrt(-np.expm1(-2.0 * a * steps) / (2.0 * a))
    else:
        decay = np.ones_like(steps)
        sd = sigma * np.sqrt(steps)
    out = np.empty(n_paths)
    for first, count in _ref_blocked(n_paths, n_steps):
        z = normal_block(seed, first, count, n_steps)
        g = np.full(count, float(g0))
        integral = np.zeros(count)
        for k in range(n_steps):
            g_new = g * decay[k] + sd[k] * z[:, k]
            integral += 0.5 * steps[k] * (g + g_new)
            g = g_new
        out[first : first + count] = np.exp(-integral)
    return out


# ---------------------------------------------------------------------------
# panels
# ---------------------------------------------------------------------------


def _schedule(kind, n):
    if kind == "uniform":
        # 365-day gaps are exactly 1.0 years apart under ACT/365
        return [START + dt.timedelta(days=365 * k) for k in range(n)]
    rng = np.random.default_rng(4)
    days = np.cumsum(rng.integers(2, 15, size=n))
    return [START + dt.timedelta(days=int(d)) for d in days]


def _scaled(panel, scale):
    return PricePanel(
        observations=[
            (d, {k: scale * v for k, v in quotes.items()}) for d, quotes in panel.observations
        ],
        instruments=list(panel.instruments),
    )


@pytest.fixture(scope="module", params=["uniform", "irregular"])
def gaps_kind(request):
    return request.param


def _g2_panel(kind):
    instruments = [("L", dt.date(2023, 1, 4)), ("XL", dt.date(2030, 1, 4))]
    return synth_panel(
        "g2pp", README_G2, _schedule(kind, 12), instruments, curve=CURVE, seed=3
    )


def _vas_panel(kind):
    return synth_panel(
        "vasicek", FAST_VAS, _schedule(kind, 24), [("Z", dt.date(2050, 1, 4))], seed=3
    )


def _random_g2(rng):
    a = float(rng.uniform(0.05, 0.6))
    return G2Params(
        a=a,
        b=a + float(rng.uniform(0.1, 0.8)),
        sigma=float(rng.uniform(0.005, 0.3)),
        eta=float(rng.uniform(0.005, 0.3)),
        rho=float(rng.uniform(-0.99, 0.99)),
    )


def _random_vas(rng):
    return VasicekParams(
        a=float(rng.uniform(0.1, 8.0)),
        b=float(rng.uniform(0.005, 0.2)),
        sigma=float(rng.uniform(0.005, 0.8)),
    )


# ---------------------------------------------------------------------------
# likelihoods and states
# ---------------------------------------------------------------------------


class TestLikelihoodAgainstReference:
    # scale 100 divides every price by 100, lowering every log price by log 100
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_g2pp_loglik_and_states_bit_identical(self, gaps_kind, scale):
        base = _g2_panel(gaps_kind)
        panel = base if scale == 1.0 else _scaled(base, 1.0 / scale)
        gaps = panel.gaps
        assert bool(np.all(gaps == gaps[0])) == (gaps_kind == "uniform")
        (n1, _), (n2, _) = panel.instruments
        rng = np.random.default_rng(11)
        for _ in range(40):
            params = _random_g2(rng)
            want, x, y = _ref_loglik_g2pp_core(
                params, CURVE, panel.times, panel.taus(n1), panel.taus(n2),
                panel.prices(n1), panel.prices(n2), gaps,
                gaps_kind == "uniform", 1.0,  # the references' unit price scale
            )
            assert loglik_g2pp(params, CURVE, panel) == want
            data = _PanelData.of(panel, 2, CURVE)
            (gx, gy), _ = _states(_ML_MODELS["g2pp"], params, data)
            np.testing.assert_array_equal(gx, x)
            np.testing.assert_array_equal(gy, y)

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_vasicek_loglik_close_and_states_bit_identical(self, gaps_kind, scale):
        base = _vas_panel(gaps_kind)
        panel = base if scale == 1.0 else _scaled(base, 1.0 / scale)
        gaps = panel.gaps
        name = panel.instruments[0][0]
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = _random_vas(rng)
            want, r = _ref_loglik_vasicek_core(
                p.a, p.b, p.sigma, panel.taus(name), panel.prices(name), gaps,
                gaps_kind == "uniform", 1.0,  # the references' unit price scale
            )
            got = loglik_vasicek(p, panel)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            data = _PanelData.of(panel, 1)
            (got_r,), _ = _states(_ML_MODELS["vasicek"], p, data)
            np.testing.assert_array_equal(got_r, r)

    def test_one_transition_for_equal_gaps(self):
        assert _PanelData.of(_g2_panel("uniform"), 2).gaps.size == 1
        irregular = _g2_panel("irregular")
        data = _PanelData.of(irregular, 2)
        np.testing.assert_array_equal(data.gaps[data.gap_index], irregular.gaps)

    def test_scalar_inversions_match_panel_states(self):
        panel = _g2_panel("irregular")
        (n1, _), (n2, _) = panel.instruments
        (x, y), _ = _states(_ML_MODELS["g2pp"], README_G2, _PanelData.of(panel, 2, curve=CURVE))
        for k, t in enumerate(panel.times.tolist()):
            tau1, tau2 = panel.taus(n1)[k], panel.taus(n2)[k]
            state = _ref_g2pp_invert_states(
                README_G2, CURVE, (panel.prices(n1)[k], panel.prices(n2)[k]),
                t, (t + tau1, t + tau2),
            )
            assert state.x == pytest.approx(x[k], abs=1e-12)
            assert state.y == pytest.approx(y[k], abs=1e-12)
        vas = _vas_panel("irregular")
        (r,), _ = _states(_ML_MODELS["vasicek"], FAST_VAS, _PanelData.of(vas, 1))
        for k, tau in enumerate(vas.taus("Z").tolist()):
            got = _ref_vasicek_invert_state(FAST_VAS, vas.prices("Z")[k], 0.0, tau)
            assert got == pytest.approx(r[k], abs=1e-12)

    def test_degenerate_two_factor_step_is_a_value_error(self):
        panel = _g2_panel("irregular")
        tiny = dataclasses.replace(README_G2, sigma=1e-200)
        with pytest.raises(DegenerateStepError):
            loglik_g2pp(tiny, CURVE, panel)


# ---------------------------------------------------------------------------
# Monte-Carlo discounts
# ---------------------------------------------------------------------------


# Rounding bounds, in units of EPS = 2^-52, the spacing of floats in [1, 2)
# (one correctly rounded operation errs by at most EPS / 2, relative).
EPS = 2.0**-52
# The one-factor shock sd: the reference takes q = -expm1(-2 a h) (or
# q = h at a = 0) and rounds q / 2a, its sqrt and the product with sigma,
# each within EPS / 2, and the sqrt halves the error of its argument:
# 1.25 EPS in all.  The record rounds sigma^2, its product with q, the
# division and the sqrt: 2 EPS.  Both start from the same q.
SD_RTOL = 3.25 * EPS
# The two-factor covariance entries are s (-expm1(-k h)) / k.  numpy's
# expm1 errs by at most 4 ulp (the SVML bound of AVX-512 hosts), the math
# module's by under 1 ulp, and an ulp of a float is at most EPS times it;
# the product and the division add EPS / 2 each on both sides: 7 EPS.
COV_RTOL = 7 * EPS
# Cholesky rows: l11 = sqrt(v1) keeps half of COV_RTOL and adds EPS;
# l21 = c / l11 adds the two and EPS more, under 3 COV_RTOL.  The Schur
# complement v2 - l21^2 then differs by at most
# (COV_RTOL + 2 * 3 COV_RTOL + 3 EPS) v2 < 8 COV_RTOL v2, since l21^2 <= v2,
# and |sqrt(u) - sqrt(w)| <= sqrt(|u - w|) for u, w >= 0 (the clamp at 0
# only shrinks the gap), so l22 differs by at most sqrt(8 COV_RTOL v2) plus
# the sqrt's rounding: under sqrt(16 COV_RTOL v2).
L22_SCALE = math.sqrt(16 * COV_RTOL)


def _assert_discounts_close(got, want, decay, drift, chol, x0, steps, seed, mirror=False):
    """The kernel's discounts ``got`` within rounding of the reference's
    ``want`` for the same steps, paths 0, 1, ... of ``seed``; with
    ``mirror``, the kernel's mirror paths against the reference driven by
    the negated normals.

    Both integrals are one linear form in x0, the drifts and the normals z:
    the reference steps the factor values and adds h/2 (level + new level)
    per step, the kernel adds weighted normals to a constant.  A computed
    sum of terms, each of which passes through at most m roundings, differs
    from the exact sum by at most gamma_m = m u / (1 - m u) (u = EPS / 2)
    times the sum of the terms' magnitudes (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 3.1-3.3).  That sum is the
    integral of a path stepped from |x0| with |drift|, |chol| and |z|, all
    other inputs being non-negative; it is computed below with at most
    gamma_m relative error of its own.  Roundings per term, n steps of k
    factors:
    - reference: the shock's product (1) and its step's adds (k + 1), then
      per later step a decay product and k + 1 adds (k + 2), the level sums
      (k), the product with h/2 (1) and the adds into the integral (n):
      (k + 3) n + k + 1 at most;
    - kernel: a node weight (1) and its backward recursion (2 per step), the
      Cholesky products and their sum (k), the product with z (1) and the
      running sum over the k n draws: (k + 2) n + k; the constant's drift
      terms take 3 n - 1 before the running sum and 2 k adds into it:
      (k + 3) n + 2 k - 1 at most.
    So the integrals differ by delta <= 2 gamma_m (1 + gamma_m) I_abs with
    m = (k + 3) n + 2 k.  exp(-I) then differs by at most exp(-I) expm1(delta),
    and numpy's exp errs by at most 4 ulp (as its expm1 above) on each side.

    The kernel takes a mirror's integral as 2D - I from its constant D and
    its integral I.  D is a sum of some of I's terms, so each errs by at
    most gamma_m I_abs, and 2D - I by at most 3 gamma_m I_abs before its
    one rounding, which adds u |2D - I|.  The mirror's exact integral sums
    the same terms with z negated, so it is at most I_abs in magnitude, and
    the computed 2D - I errs by at most (3 gamma_m (1 + u) + u) I_abs.  The
    reference driven by -z errs by gamma_m I_abs as above, and |-z| = |z|,
    so there delta <= (4 gamma_m + u (1 + 3 gamma_m)) (1 + gamma_m) I_abs.
    """
    k, n, count = len(x0), steps.size, got.size
    z = np.abs(normal_block(seed, 0, count, k * n).reshape(count, n, k))
    x = [np.full(count, abs(float(v))) for v in x0]
    level = sum(x[1:], x[0])
    magnitude = np.zeros(count)
    for s in range(n):
        for i in range(k):
            v = x[i] * decay[i][s]
            if drift is not None:
                v = v + abs(drift[i][s])
            for j in range(i + 1):
                v = v + abs(chol[i][j][s]) * z[:, s, j]
            x[i] = v
        new_level = sum(x[1:], x[0])
        magnitude += 0.5 * steps[s] * (level + new_level)
        level = new_level
    m = (k + 3) * n + 2 * k
    u = EPS / 2
    gamma = m * u / (1 - m * u)
    spread = 4 * gamma + u * (1 + 3 * gamma) if mirror else 2 * gamma
    delta = spread * (1 + gamma) * magnitude
    tol = want * (np.expm1(delta) + 4 * EPS * (np.exp(delta) + 1)) / (1 - 4 * EPS)
    assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / tol)
    # the bound stays far below the effect of any wrong weight
    assert np.all(tol <= 1e-11 * want)


def _assert_pairs_close(got, want, decay, drift, chol, x0, steps, seed):
    """The kernel's (pairs, 2) discounts ``got`` within rounding of the
    reference's pair ``want`` of discounts (``_reference_pair``)."""
    plain, mirror = want
    _assert_discounts_close(got[:, 0], plain, decay, drift, chol, x0, steps, seed)
    _assert_discounts_close(got[:, 1], mirror, decay, drift, chol, x0, steps, seed, mirror=True)


def _reference_pair(monkeypatch, reference, *args):
    """A reference's discounts for the paths of its normals z, and for the
    same paths driven by -z."""
    draw = normal_block
    plain = reference(*args)
    with monkeypatch.context() as patch:
        patch.setattr(sys.modules[__name__], "normal_block", lambda *a: -draw(*a))
        mirror = reference(*args)
    return plain, mirror


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the inputs and output of every merged-kernel call that
    mc_zero_price makes."""
    calls = []

    def spy(decay, drift, chol, x0, steps, seed, n_pairs):
        out = _trapezoid_discounts(decay, drift, chol, x0, steps, seed, n_pairs)
        calls.append((decay, drift, chol, list(x0), steps, seed, n_pairs, out))
        return out

    monkeypatch.setattr(montecarlo, "_trapezoid_discounts", spy)
    return calls


def _reference_for(model, params, x0, steps, seed, n_paths, t0):
    if model == "vasicek":
        return _ref_trapezoid_discounts_ou(
            params.a, params.b, params.sigma, x0[0], steps, seed, n_paths
        )
    if model == "g2pp":
        state0 = G2State(x=x0[0], y=x0[1], t=t0)
        return _ref_trapezoid_discounts_g2(params, state0, steps, seed, n_paths)
    a = params.a if model == "hullwhite" else 0.0
    return _ref_trapezoid_discounts_brownian_conv(a, params.sigma, x0[0], steps, seed, n_paths)


def _record_steps(model, params, steps):
    """The decays, drifts and Cholesky rows the simulators take from the
    model's record."""
    decay, drift, cov = MODELS[model].moments(params, steps)
    return decay, drift, _cholesky_rows(cov)


def _assert_chol_close(got, want, v2):
    """Cholesky rows within the bounds derived above, v2 the reference's
    second variance."""
    np.testing.assert_allclose(got[0][0], want[0][0], rtol=COV_RTOL, atol=0.0)
    np.testing.assert_allclose(got[1][0], want[1][0], rtol=3 * COV_RTOL, atol=0.0)
    assert np.all(np.abs(got[1][1] - want[1][1]) <= L22_SCALE * np.sqrt(v2))


CASES = {
    "vasicek": (
        "vasicek", VasicekParams(a=0.8, b=0.05, sigma=0.02), ShortRateState(r=0.03, t=0.5), 2.5,
    ),
    "holee": ("holee", HoLeeParams(sigma=0.01), ShortRateState(r=0.045, t=0.5), 3.0),
    "hullwhite": (
        "hullwhite", HullWhiteParams(a=0.4, sigma=0.015), ShortRateState(r=0.05, t=0.0), 2.5,
    ),
    "g2pp-rho-0.99": (
        "g2pp", G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
        G2State(x=0.01, y=-0.02, t=0.25), 1.5,
    ),
}


class TestDiscountsAgainstReference:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("blocks", ["one", "several"])
    def test_mc_zero_price_discounts_match_reference(
        self, case, blocks, kernel_calls, monkeypatch
    ):
        model, params, state0, T = CASES[case]
        n_paths = 600
        if blocks == "several":
            # 4-step chunks: a normals block per chunk
            monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 1)
        config = SimConfig(n_paths=n_paths, step=0.02, seed=9)
        mc_zero_price(model, params, state0, T, config, curve=CURVE)
        ((decay, drift, chol, x0, steps, seed, count, got),) = kernel_calls
        assert (seed, count) == (9, n_paths // 2)
        assert got.shape == (count, 2)
        want = _reference_pair(
            monkeypatch, _reference_for, model, params, x0, steps, seed, count, state0.t
        )
        if model == "g2pp":
            # numpy's and the math module's expm1 agree on these steps
            _assert_pairs_close(got, want, decay, drift, chol, x0, steps, seed)
            return
        a = 0.0 if model == "holee" else params.a
        want_decay, want_sd = _ref_ou_steps(a, params.sigma, steps)
        np.testing.assert_array_equal(decay[0], want_decay)
        if model == "vasicek":
            np.testing.assert_array_equal(drift[0], params.b * (1.0 - want_decay))
        else:
            assert drift is None
        np.testing.assert_allclose(chol[0][0], want_sd, rtol=SD_RTOL, atol=0.0)
        got = _trapezoid_discounts(decay, drift, [[want_sd]], x0, steps, seed, count)
        _assert_pairs_close(got, want, decay, drift, [[want_sd]], x0, steps, seed)

    def test_shortened_last_step(self, monkeypatch):
        steps = np.full(60, 0.02)
        steps[-1] = 0.0071
        seed, n = 4, 300
        a, b, sigma, r0 = 1.7, 0.09, 0.37, 0.02
        decay, sd = _ref_ou_steps(a, sigma, steps)
        drift = [b * (1.0 - decay)]
        got = _trapezoid_discounts([decay], drift, [[sd]], [r0], steps, seed, n)
        want = _reference_pair(
            monkeypatch, _ref_trapezoid_discounts_ou, a, b, sigma, r0, steps, seed, n
        )
        _assert_pairs_close(got, want, [decay], drift, [[sd]], [r0], steps, seed)
        for a_conv in (0.0, 0.4):
            decay, sd = _ref_ou_steps(a_conv, 0.02, steps)
            got = _trapezoid_discounts([decay], None, [[sd]], [0.001], steps, seed, n)
            want = _reference_pair(
                monkeypatch, _ref_trapezoid_discounts_brownian_conv,
                a_conv, 0.02, 0.001, steps, seed, n,
            )
            _assert_pairs_close(got, want, [decay], None, [[sd]], [0.001], steps, seed)
        g2 = CASES["g2pp-rho-0.99"][1]
        state0 = G2State(x=0.01, y=-0.02, t=0.0)
        decay, chol = _ref_g2pp_steps(g2, state0, steps)
        got = _trapezoid_discounts(decay, None, chol, [0.01, -0.02], steps, seed, n)
        want = _reference_pair(
            monkeypatch, _ref_trapezoid_discounts_g2, g2, state0, steps, seed, n
        )
        _assert_pairs_close(got, want, decay, None, chol, [0.01, -0.02], steps, seed)


# ---------------------------------------------------------------------------
# two-factor step moments
# ---------------------------------------------------------------------------


def _random_steps(rng, n):
    """Step lengths log-uniform on [1e-8, 2] years."""
    return np.exp(rng.uniform(math.log(1e-8), math.log(2.0), size=n))


def _random_g2_at_the_edge(rng, k):
    """Draw k of the step tests: _random_g2 for k < 500, then rho = +-1,
    with a == b on every fourth (a singular step covariance)."""
    params = _random_g2(rng)
    if k < 500:
        return params
    b = params.a if k % 4 == 0 else params.b
    return dataclasses.replace(params, b=b, rho=float(rng.choice([-1.0, 1.0])))


def _steps_outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, type(exc)


class TestG2StepsAgainstReference:
    def test_steps_match_reference_on_random_params(self):
        # 500 draws with |rho| < 1 and 200 at rho = +-1, 60 steps each
        rng = np.random.default_rng(41)
        finite = 0
        for k in range(700):
            params = _random_g2_at_the_edge(rng, k)
            steps = _random_steps(rng, 60)
            state0 = G2State(x=float(rng.normal(0.0, 0.02)), y=float(rng.normal(0.0, 0.02)))
            want, want_err = _steps_outcome(_ref_g2pp_steps, params, state0, steps)
            got, got_err = _steps_outcome(_record_steps, "g2pp", params, steps)
            assert got_err is want_err, (params, got_err, want_err)
            if want_err is None:
                finite += 1
                (decay, drift, chol), (want_decay, want_chol) = got, want
                assert [d.tobytes() for d in decay] == [d.tobytes() for d in want_decay]
                assert drift is None
                v2 = params.eta**2 * (-np.expm1(-2.0 * params.b * steps)) / (2.0 * params.b)
                _assert_chol_close(chol, want_chol, v2)
        assert finite > 600

    def test_one_step_moments_and_cholesky_against_reference(self):
        rng = np.random.default_rng(43)
        for k in range(700):
            params = _random_g2_at_the_edge(rng, k)
            state = G2State(x=float(rng.normal(0.0, 0.02)), y=float(rng.normal(0.0, 0.02)))
            h = float(_random_steps(rng, 1)[0])
            decay, drift, cov = MODELS["g2pp"].moments(params, np.array([h]))
            want_mean, want_cov = _ref_g2pp_transition(params, state, h)
            assert drift is None
            # np.exp and math.exp differ by at most 4 + 1 ulp as expm1 do,
            # and the product with the state adds EPS / 2 on each side
            mean = np.array([state.x * decay[0][0], state.y * decay[1][0]])
            np.testing.assert_allclose(mean, want_mean, rtol=COV_RTOL, atol=0.0)
            np.testing.assert_allclose(np.array(cov)[:, :, 0], want_cov, rtol=COV_RTOL, atol=0.0)
            try:
                want_chol = _ref_g2pp_cholesky(want_cov)
            except BoundaryError:
                with pytest.raises(BoundaryError):
                    g2pp_cholesky(want_cov)
                continue
            assert g2pp_cholesky(want_cov).tobytes() == want_chol.tobytes()

    @pytest.mark.parametrize("step", [0.0, -1e-3])
    def test_non_positive_step_raises_like_the_reference(self, step):
        state = G2State(0.0, 0.0)
        with pytest.raises(DegenerateStepError):
            _ref_g2pp_transition(README_G2, state, step)
        steps = np.array([0.02, step, 0.02])
        with pytest.raises(DegenerateStepError):
            _ref_g2pp_steps(README_G2, state, steps)
        for gaps in (np.array([step]), steps):
            with pytest.raises(DegenerateStepError):
                MODELS["g2pp"].moments(README_G2, gaps)

    @pytest.mark.parametrize("cov", [
        [[1.0, 2.0], [2.0, 1.0]],  # not positive semi-definite
        [[0.0, 0.0], [0.0, 1.0]],  # a vanishing variance
        [[1.0, 0.0], [0.0, -1.0]],
    ])
    def test_bad_covariance_raises_like_the_reference(self, cov):
        for cholesky in (_ref_g2pp_cholesky, g2pp_cholesky):
            with pytest.raises(BoundaryError):
                cholesky(np.array(cov))
