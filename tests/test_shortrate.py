import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from curveforge.curve import DiscountCurve, flat_curve
from curveforge.errors import (
    BoundaryError,
    DegenerateStepError,
    OrderingError,
    SingularInversionError,
)
from curveforge.models import MODELS
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    affine_invert,
    decay_loading,
    g2pp_affine,
    g2pp_cholesky,
    g2pp_horizons,
    g2pp_log_price,
    g2pp_price,
    g2pp_variance,
    ou_moments,
    vasicek_ab,
    vasicek_affine,
    vasicek_price,
)


def vasicek_step(r, horizon):
    """Mean and variance of the short rate one gap of ``horizon`` years
    after r, from the model's record."""
    (decay,), (drift,), ((var,),) = MODELS["vasicek"].moments(VAS, np.array([horizon]))
    return float(r * decay[0] + drift[0]), float(var[0])


def g2pp_moments(horizon):
    """The two-factor step decays and covariance over one gap (or an array
    of them), from the model's record."""
    decay, _, cov = MODELS["g2pp"].moments(G2, np.atleast_1d(horizon))
    return np.array(decay), np.array(cov)

VAS = VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)
G2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)


def test_decay_loading_matches_definition():
    for k, tau in [(1.7, 2.0), (0.13, 25.0), (0.5, 0.01)]:
        assert decay_loading(k, tau) == pytest.approx((1 - math.exp(-k * tau)) / k, rel=1e-12)


def test_decay_loading_small_k_stable():
    # (1 - exp(-k tau))/k -> tau as k -> 0; naive evaluation loses digits
    assert decay_loading(1e-12, 3.0) == pytest.approx(3.0, rel=1e-9)


class TestVasicekPrice:
    def test_unit_at_maturity(self):
        assert vasicek_price(VAS, 0.05, 2.0, 2.0) == 1.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_integrated_moments_oracle(self):
        # independent route: P = exp(-E[I] + Var[I]/2) with I = int_t^T r du,
        # E and Var computed by numerical quadrature of the OU mean and
        # covariance functions rather than by the closed-form A and B
        a, b, sigma = VAS.a, VAS.b, VAS.sigma
        r0, t, T = 0.05, 0.3, 2.7

        mean_r = lambda u: b + (r0 - b) * math.exp(-a * (u - t))
        mean_I, _ = quad(mean_r, t, T, epsabs=1e-12, epsrel=1e-12)

        def cov_r(u, v):
            lo, hi = min(u, v), max(u, v)
            return sigma**2 / (2 * a) * (
                math.exp(-a * (hi - lo)) - math.exp(-a * (hi + lo - 2 * t))
            )

        var_I, _ = dblquad(cov_r, t, T, t, T, epsabs=1e-10, epsrel=1e-10)
        oracle = math.exp(-mean_I + 0.5 * var_I)
        assert vasicek_price(VAS, r0, t, T) == pytest.approx(oracle, rel=1e-8)

    def test_time_homogeneous(self):
        # price depends on (t, T) only through tau
        p1 = vasicek_price(VAS, 0.07, 0.0, 3.0)
        p2 = vasicek_price(VAS, 0.07, 1.25, 4.25)
        assert p1 == pytest.approx(p2, rel=1e-14)

    def test_decreasing_in_rate(self):
        prices = [vasicek_price(VAS, r, 0.0, 5.0) for r in (0.01, 0.05, 0.10)]
        assert prices[0] > prices[1] > prices[2]

    def test_maturity_before_valuation_raises(self):
        with pytest.raises(OrderingError):
            vasicek_ab(VAS, 2.0, 1.0)


class TestVasicekTransition:
    def test_moments_vs_euler_oracle(self):
        # fine-step Euler scheme as an independent distributional oracle
        a, b, sigma = VAS.a, VAS.b, VAS.sigma
        r0, horizon, dt = 0.05, 0.25, 1e-4
        n_steps, n_paths = int(round(horizon / dt)), 100_000
        rng = np.random.default_rng(2024)
        r = np.full(n_paths, r0)
        sq = sigma * math.sqrt(dt)
        for _ in range(n_steps):
            r += a * (b - r) * dt + sq * rng.standard_normal(n_paths)
        mean, var = vasicek_step(r0, horizon)
        se_mean = r.std(ddof=1) / math.sqrt(n_paths)
        assert abs(r.mean() - mean) < 4 * se_mean
        se_var = r.var(ddof=1) * math.sqrt(2.0 / (n_paths - 1))
        assert abs(r.var(ddof=1) - var) < 4 * se_var

    def test_long_run_mean(self):
        mean, var = vasicek_step(0.30, 200.0)
        assert mean == pytest.approx(VAS.b, abs=1e-12)
        assert var == pytest.approx(VAS.sigma**2 / (2 * VAS.a), rel=1e-12)

    def test_zero_step_rejected(self):
        with pytest.raises(DegenerateStepError):
            ou_moments((VAS.a,), (VAS.sigma,), 0.0, 0.0)
        with pytest.raises(DegenerateStepError):
            ou_moments((VAS.a,), (VAS.sigma,), 0.0, -1.0)


class TestVasicekInversion:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        rs, ts, taus, prices = [], [], [], []
        for _ in range(50):
            r = float(rng.uniform(-0.05, 0.25))
            t = float(rng.uniform(0.0, 3.0))
            tau = float(rng.uniform(0.05, 25.0))
            p = vasicek_price(VAS, r, t, t + tau)
            (back,), _ = affine_invert(*vasicek_affine(VAS, [(t + tau) - t]), [math.log(p)])
            assert back == pytest.approx(r, abs=1e-10)
            rs.append(r)
            ts.append(t)
            taus.append(tau)
            prices.append(p)
        # the same draws as arrays over dates, in one solve
        ts, taus = np.array(ts), np.array(taus)
        (back,), _ = affine_invert(*vasicek_affine(VAS, [(ts + taus) - ts]), [np.log(prices)])
        np.testing.assert_allclose(back, rs, rtol=0.0, atol=1e-10)

    def test_zero_tau_singular(self):
        with pytest.raises(SingularInversionError):
            affine_invert(*vasicek_affine(VAS, [0.0]), [0.0])


class TestG2Variance:
    @pytest.mark.parametrize("seed", range(10))
    def test_against_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = G2Params(
            a=float(rng.uniform(0.02, 2.0)),
            b=float(rng.uniform(0.02, 2.0)),
            sigma=float(rng.uniform(0.01, 0.6)),
            eta=float(rng.uniform(0.01, 0.6)),
            rho=float(rng.uniform(-0.999, 0.999)),
        )
        t = float(rng.uniform(0.0, 3.0))
        T = t + float(rng.uniform(0.1, 25.0))

        def integrand(u):
            ba = (1 - math.exp(-params.a * (T - u))) / params.a
            bb = (1 - math.exp(-params.b * (T - u))) / params.b
            return (
                params.sigma**2 * ba**2
                + params.eta**2 * bb**2
                + 2 * params.rho * params.sigma * params.eta * ba * bb
            )

        oracle, err = quad(integrand, t, T, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert g2pp_variance(params, t, T) == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_exactly_zero_at_coincident_times(self):
        for t in (0.0, 0.5, 1.0, 7.0, 30.0):
            assert g2pp_variance(G2, t, t) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = float(rng.uniform(0, 5))
            T = t + float(rng.uniform(0, 30))
            assert g2pp_variance(G2, t, T) >= 0.0

    def test_broadcasts(self):
        taus = np.array([0.5, 1.0, 5.0])
        vec = g2pp_variance(G2, 0.0, taus)
        assert vec.shape == (3,)
        for tau, v in zip(taus, vec):
            assert v == pytest.approx(g2pp_variance(G2, 0.0, float(tau)), rel=1e-15)


class TestG2Price:
    @pytest.fixture
    def curve(self):
        return flat_curve(0.04, span=40.0)

    def test_unit_at_maturity(self, curve):
        state = G2State(x=0.03, y=-0.02, t=1.5)
        assert g2pp_price(G2, curve, state, 1.5) == 1.0

    def test_zero_state_reproduces_curve(self, curve):
        # with x = y = 0 at t = 0 the variance adjustments cancel exactly
        for T in (1 / 12, 0.5, 1.0, 5.0, 25.0):
            p = g2pp_price(G2, curve, G2State(0.0, 0.0, 0.0), T)
            assert p == pytest.approx(curve.discount(T), rel=1e-14)

    def test_log_price_affine_in_state(self, curve):
        # log P is exactly affine: shifting x by dx moves log P by -B_a dx
        t, T = 1.0, 7.0
        tau = T - t
        base = g2pp_log_price(G2, curve, G2State(0.01, 0.02, t), T)
        dx, dy = 0.013, -0.029
        moved = g2pp_log_price(G2, curve, G2State(0.01 + dx, 0.02 + dy, t), T)
        expected = (
            base
            - float(decay_loading(G2.a, tau)) * dx
            - float(decay_loading(G2.b, tau)) * dy
        )
        assert moved == pytest.approx(expected, rel=1e-13)

    def test_tower_property(self, curve):
        # P(0,T) = E[exp(-int_0^t r du) P(t,T)]: simulate the factor pair
        # exactly to t, discount the simulated short-rate path (with the
        # deterministic shift absorbed through the market-ratio identity),
        # and average the closed-form price at the simulated states
        t, T = 1.0, 4.0
        rng = np.random.default_rng(99)
        n, n_steps = 20_000, 64
        h = t / n_steps
        x = np.zeros(n)
        y = np.zeros(n)
        integral = np.zeros(n)
        mean_x = math.exp(-G2.a * h)
        mean_y = math.exp(-G2.b * h)
        chol = np.linalg.cholesky(g2pp_moments(h)[1][:, :, 0])
        for _ in range(n_steps):
            dxy = chol @ rng.standard_normal((2, n))
            x_new = x * mean_x + dxy[0]
            y_new = y * mean_y + dxy[1]
            integral += 0.5 * h * (x + y + x_new + y_new)
            x, y = x_new, y_new
        phi_int = -curve.log_discount(t) + 0.5 * g2pp_variance(G2, 0.0, t)
        inner = np.array(
            [
                g2pp_price(G2, curve, G2State(float(xi), float(yi), t), T)
                for xi, yi in zip(x, y)
            ]
        )
        draws = np.exp(-integral - phi_int) * inner
        mc = float(draws.mean())
        se = float(draws.std(ddof=1) / math.sqrt(n))
        assert abs(mc - curve.discount(T)) < 4 * se

    def test_price_requires_maturity_after_t(self, curve):
        with pytest.raises(OrderingError):
            g2pp_price(G2, curve, G2State(0.0, 0.0, 2.0), 1.0)


class TestG2Transition:
    def test_moments_vs_euler_oracle(self):
        horizon, dt = 0.25, 2e-4
        n_steps, n_paths = int(round(horizon / dt)), 100_000
        rng = np.random.default_rng(31)
        x = np.zeros(n_paths)
        y = np.zeros(n_paths)
        sq = math.sqrt(dt)
        for _ in range(n_steps):
            z1 = rng.standard_normal(n_paths)
            z2 = G2.rho * z1 + math.sqrt(1 - G2.rho**2) * rng.standard_normal(n_paths)
            x += -G2.a * x * dt + G2.sigma * sq * z1
            y += -G2.b * y * dt + G2.eta * sq * z2
        cov = g2pp_moments(horizon)[1][:, :, 0]
        # from x = y = 0 the exact mean is zero
        assert abs(x.mean()) < 4 * x.std(ddof=1) / math.sqrt(n_paths)
        assert abs(y.mean()) < 4 * y.std(ddof=1) / math.sqrt(n_paths)
        sample = np.cov(np.vstack([x, y]), ddof=1)
        # se of a covariance entry ~ cov * sqrt(2/n); use a loose 5-sigma band
        assert sample[0, 0] == pytest.approx(cov[0, 0], rel=0.02)
        assert sample[1, 1] == pytest.approx(cov[1, 1], rel=0.02)
        assert sample[0, 1] == pytest.approx(cov[0, 1], rel=0.02)

    def test_mean_decays_state(self):
        # the conditional mean is the state times these decays
        decay, _ = g2pp_moments(2.0)
        assert decay[0, 0] == pytest.approx(math.exp(-G2.a * 2.0), rel=1e-14)
        assert decay[1, 0] == pytest.approx(math.exp(-G2.b * 2.0), rel=1e-14)

    def test_cholesky_reconstructs(self):
        cov = g2pp_moments(0.5)[1][:, :, 0]
        L = g2pp_cholesky(cov)
        np.testing.assert_allclose(L @ L.T, cov, rtol=1e-12, atol=1e-18)
        assert L[0, 1] == 0.0

    def test_cholesky_rejects_non_psd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(BoundaryError):
            g2pp_cholesky(bad)

    def test_array_of_steps_is_the_scalar_calls_stacked(self):
        steps = np.array([1e-8, 0.004, 0.5, 2.0])
        decay, cov = g2pp_moments(steps)
        L = g2pp_cholesky(cov)
        assert (decay.shape, cov.shape, L.shape) == ((2, 4), (2, 2, 4), (2, 2, 4))
        for s, h in enumerate(steps.tolist()):
            d, c = g2pp_moments(h)
            assert decay[:, s].tobytes() == d[:, 0].tobytes()
            assert cov[:, :, s].tobytes() == c[:, :, 0].tobytes()
            assert L[:, :, s].tobytes() == g2pp_cholesky(c[:, :, 0]).tobytes()

    def test_one_bad_step_fails_the_whole_array(self):
        with pytest.raises(DegenerateStepError, match="got 0.0"):
            g2pp_moments(np.array([0.1, 0.0, 0.2]))
        good = np.array([[1.0, 0.5], [0.5, 1.0]])
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(BoundaryError, match="not positive semi-definite"):
            g2pp_cholesky(np.stack([good, bad, good], axis=-1))


class TestG2Inversion:
    @pytest.fixture
    def curve(self):
        return flat_curve(0.035, span=45.0)

    def test_round_trip(self, curve):
        rng = np.random.default_rng(17)
        draws = []
        for _ in range(50):
            x = float(rng.uniform(-0.15, 0.15))
            y = float(rng.uniform(-0.15, 0.15))
            t = float(rng.uniform(0.0, 4.0))
            tau1 = float(rng.uniform(0.25, 10.0))
            tau2 = tau1 + float(rng.uniform(0.5, 20.0))
            state = G2State(x=x, y=y, t=t)
            p1 = g2pp_price(G2, curve, state, t + tau1)
            p2 = g2pp_price(G2, curve, state, t + tau2)
            taus = [(t + tau1) - t, (t + tau2) - t]
            alpha, beta = g2pp_affine(G2, *g2pp_horizons(curve, t, taus))
            (bx, by), _ = affine_invert(alpha, beta, [math.log(p1), math.log(p2)])
            assert bx == pytest.approx(x, abs=1e-9)
            assert by == pytest.approx(y, abs=1e-9)
            draws.append((x, y, t, *taus, p1, p2))
        # the same draws as arrays over dates, in one solve
        x, y, t, tau1, tau2, p1, p2 = np.array(draws).T
        alpha, beta = g2pp_affine(G2, *g2pp_horizons(curve, t, [tau1, tau2]))
        (bx, by), _ = affine_invert(alpha, beta, [np.log(p1), np.log(p2)])
        np.testing.assert_allclose(bx, x, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(by, y, rtol=0.0, atol=1e-9)

    def test_equal_maturities_singular(self, curve):
        with pytest.raises(SingularInversionError):
            affine_invert(*g2pp_affine(G2, *g2pp_horizons(curve, 0.0, [5.0, 5.0])),
                          [math.log(0.9), math.log(0.9)])

    def test_equal_speeds_singular(self, curve):
        params = G2Params(a=0.3, b=0.3, sigma=0.1, eta=0.2, rho=0.0)
        with pytest.raises(SingularInversionError):
            affine_invert(*g2pp_affine(params, *g2pp_horizons(curve, 0.0, [2.0, 7.0])),
                          [math.log(0.9), math.log(0.8)])
