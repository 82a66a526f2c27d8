import math

import numpy as np
import pytest
from scipy.integrate import quad

from curveforge.curve import DiscountCurve, flat_curve
from curveforge.errors import OrderingError
from curveforge.hjm import (
    HoLeeParams,
    HullWhiteParams,
    ShortRateState,
    holee_price,
    hullwhite_price,
)

HL = HoLeeParams(sigma=0.3071)
HW = HullWhiteParams(a=0.0813, sigma=0.0215)


@pytest.fixture
def market():
    return DiscountCurve(
        pillars=(
            (1 / 12, 0.9975),
            (0.5, 0.985),
            (1.0, 0.9685),
            (2.0, 0.9320),
            (5.0, 0.8270),
            (10.0, 0.6650),
            (20.0, 0.4405),
            (30.0, 0.2924),
        )
    )


class TestDrift:
    @pytest.mark.parametrize("case", range(20))
    def test_matches_volatility_integral(self, case, market):
        # The prices carry the no-arbitrage drift
        # alpha(s,u) = sigma(s,u) int_s^u sigma(s,v) dv: with L the loading
        # int_t^T sigma(s,u) du / sigma(s,t), and r set to f(0,t),
        # log P(t,T) - log P(0,T)/P(0,t)
        #     = L int_0^t alpha(s,t) ds - int_0^t int_t^T alpha(s,u) du ds,
        # both sides built here by quadrature from the volatility alone.
        rng = np.random.default_rng(case)
        t = float(rng.uniform(0.05, 5.0))
        T = t + float(rng.uniform(0.01, 20.0))
        if case % 2 == 0:
            params = HoLeeParams(sigma=float(rng.uniform(0.005, 0.8)))
            vol = lambda s, u: params.sigma
            price = holee_price
        else:
            params = HullWhiteParams(
                a=float(rng.uniform(0.01, 2.0)),
                sigma=float(rng.uniform(0.005, 0.8)),
            )
            vol = lambda s, u: params.sigma * math.exp(-params.a * (u - s))
            price = hullwhite_price
        tol = dict(epsabs=1e-14, epsrel=1e-12, limit=200)

        def drift(s, u):
            return vol(s, u) * quad(lambda v: vol(s, v), s, u, **tol)[0]

        loading = quad(lambda u: vol(0.0, u), t, T, **tol)[0] / vol(0.0, t)
        to_t = quad(lambda s: drift(s, t), 0.0, t, **tol)[0]
        to_T = quad(lambda s: quad(lambda u: drift(s, u), t, T, **tol)[0], 0.0, t, **tol)[0]
        oracle = loading * to_t - to_T

        r = market.forward(t)
        got = math.log(price(params, market, r, t, T)) - (
            market.log_discount(T) - market.log_discount(t)
        )
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-13)


class TestInitialCurveReproduction:
    def test_constant_vol(self, market):
        r0 = market.forward(0.0)
        for tau, df in market.pillars:
            p = holee_price(HL, market, r0, 0.0, tau)
            assert abs(p - df) < 1e-12

    def test_damped_vol(self, market):
        r0 = market.forward(0.0)
        for tau, df in market.pillars:
            p = hullwhite_price(HW, market, r0, 0.0, tau)
            assert abs(p - df) < 1e-12

    def test_unit_at_maturity(self, market):
        assert holee_price(HL, market, 0.03, 2.0, 2.0) == 1.0
        assert hullwhite_price(HW, market, 0.03, 2.0, 2.0) == 1.0


class TestConstantVolPrice:
    def test_against_integrated_short_rate_oracle(self):
        # under constant vol the short rate is r(u) = f(0,u) + sigma^2 u^2/2
        # + sigma W(u); E[int r] and Var[int r] follow from Fubini and
        # int_0^T W(u) du ~ N(0, T^3/3); on a flat curve everything is
        # elementary, so compare closed form to exp(-E + V/2) at t=0
        rate = 0.045
        curve = flat_curve(rate, span=35.0)
        sigma, T = 0.21, 6.0
        mean_I = rate * T + sigma**2 * T**3 / 6.0
        var_I = sigma**2 * T**3 / 3.0
        oracle = math.exp(-mean_I + 0.5 * var_I)
        p = holee_price(HoLeeParams(sigma=sigma), curve, rate, 0.0, T)
        assert p == pytest.approx(oracle, rel=1e-12)

    def test_rate_sensitivity_is_minus_tau(self, market):
        # d log P / dr = -tau exactly
        t, T = 1.0, 4.0
        p0 = holee_price(HL, market, 0.03, t, T)
        p1 = holee_price(HL, market, 0.03 + 1e-4, t, T)
        assert math.log(p1 / p0) == pytest.approx(-(T - t) * 1e-4, rel=1e-8)


class TestDampedVolPrice:
    def test_rate_sensitivity_is_minus_loading(self, market):
        t, T = 1.0, 9.0
        tau = T - t
        B = (1 - math.exp(-HW.a * tau)) / HW.a
        p0 = hullwhite_price(HW, market, 0.03, t, T)
        p1 = hullwhite_price(HW, market, 0.03 + 1e-4, t, T)
        assert math.log(p1 / p0) == pytest.approx(-B * 1e-4, rel=1e-8)

    def test_collapses_to_constant_vol_as_a_vanishes(self, market):
        # a -> 0 limit: damped vol degenerates to constant vol
        tiny = HullWhiteParams(a=1e-6, sigma=0.0215)
        hl = HoLeeParams(sigma=0.0215)
        r0 = market.forward(0.0)
        grid = (1 / 12, 2 / 12, 3 / 12, 0.5, 0.75, 1.0, 2.0, 3.0, 5.0, 7.0,
                10.0, 15.0, 20.0, 25.0)
        for t in (0.0, 0.5, 2.0):
            for tau in grid:
                p_hw = hullwhite_price(tiny, market, 0.03, t, t + tau)
                p_hl = holee_price(hl, market, 0.03, t, t + tau)
                assert abs(p_hw / p_hl - 1.0) < 1e-4

    def test_a_to_zero_is_even_closer_at_1e8(self, market):
        tiny = HullWhiteParams(a=1e-8, sigma=0.0215)
        hl = HoLeeParams(sigma=0.0215)
        p_hw = hullwhite_price(tiny, market, 0.03, 1.0, 8.0)
        p_hl = holee_price(hl, market, 0.03, 1.0, 8.0)
        assert p_hw == pytest.approx(p_hl, rel=1e-5)

    def test_ordering_errors(self, market):
        with pytest.raises(OrderingError):
            hullwhite_price(HW, market, 0.03, 3.0, 2.0)
        with pytest.raises(OrderingError):
            holee_price(HL, market, 0.03, -0.5, 2.0)


class TestState:
    def test_negative_time_rejected(self):
        with pytest.raises(OrderingError):
            ShortRateState(r=0.02, t=-1.0)

    def test_defaults(self):
        s = ShortRateState(r=0.05)
        assert s.t == 0.0
