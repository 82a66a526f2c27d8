import datetime as dt
import math

import numpy as np
import pytest

from curveforge.bonds import CouponBond
from curveforge.curve import DiscountCurve, build_initial_curve, flat_curve
from curveforge.errors import AmbiguityError, ExtrapolationError, OrderingError


@pytest.fixture
def simple_curve():
    return DiscountCurve(pillars=((0.5, 0.98), (1.0, 0.95), (2.0, 0.90), (5.0, 0.78)))


class TestDiscountCurve:
    def test_unit_at_zero(self, simple_curve):
        assert simple_curve.discount(0.0) == 1.0

    def test_pillars_reproduced(self, simple_curve):
        for tau, df in simple_curve.pillars:
            assert simple_curve.discount(tau) == pytest.approx(df, rel=1e-15)

    def test_log_linear_between_pillars(self, simple_curve):
        # midpoint of [1, 2] in log-discount space
        expected = math.exp(0.5 * (math.log(0.95) + math.log(0.90)))
        assert simple_curve.discount(1.5) == pytest.approx(expected, rel=1e-14)

    def test_extrapolation_guard(self, simple_curve):
        with pytest.raises(ExtrapolationError):
            simple_curve.discount(6.0)

    def test_flat_extrapolation(self):
        curve = DiscountCurve(
            pillars=((1.0, 0.95), (2.0, 0.90)), flat_extrapolation=True
        )
        fwd = -(math.log(0.90) - math.log(0.95)) / 1.0
        expected = 0.90 * math.exp(-fwd * 3.0)
        assert curve.discount(5.0) == pytest.approx(expected, rel=1e-14)

    def test_negative_time_rejected(self, simple_curve):
        with pytest.raises(OrderingError):
            simple_curve.discount(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscountCurve(pillars=((1.0, 0.95), (1.0, 0.90)))
        with pytest.raises(ValueError):
            DiscountCurve(pillars=((2.0, 0.95), (1.0, 0.90)))
        with pytest.raises(ValueError):
            DiscountCurve(pillars=((1.0, 1.5),))
        with pytest.raises(ValueError):
            DiscountCurve(pillars=())

    def test_increasing_dfs_allowed(self):
        # arbitrageable curves must be representable so diagnostics can see them
        curve = DiscountCurve(pillars=((1.0, 0.90), (2.0, 0.95)))
        assert curve.discount(2.0) == pytest.approx(0.95)

    def test_forward_piecewise_constant(self, simple_curve):
        f_early = simple_curve.forward(0.25)
        assert f_early == pytest.approx(-math.log(0.98) / 0.5, rel=1e-12)
        f_mid = simple_curve.forward(1.5)
        assert f_mid == pytest.approx(-(math.log(0.90) - math.log(0.95)), rel=1e-12)
        # right-limit convention at a knot, last segment at the span end
        assert simple_curve.forward(1.0) == pytest.approx(f_mid, rel=1e-12)
        f_last = -(math.log(0.78) - math.log(0.90)) / 3.0
        assert simple_curve.forward(5.0) == pytest.approx(f_last, rel=1e-12)

    def test_forward_integrates_to_discount(self, simple_curve):
        # piecewise-constant forwards integrate back to the log discount
        ts = np.linspace(0.0, 5.0, 2001)
        fwds = np.array([simple_curve.forward(0.5 * (a + b)) for a, b in zip(ts, ts[1:])])
        integral = np.sum(fwds * np.diff(ts))
        assert integral == pytest.approx(-simple_curve.log_discount(5.0), rel=1e-6)


class TestFlatCurve:
    def test_constant_rate(self):
        curve = flat_curve(0.04, span=30.0)
        for t in (0.5, 1.0, 7.3, 30.0):
            assert curve.discount(t) == pytest.approx(math.exp(-0.04 * t), rel=1e-12)
        assert curve.forward(13.7) == pytest.approx(0.04, rel=1e-9)

    def test_span(self):
        assert flat_curve(0.02, span=10.0).span == pytest.approx(10.0)


class TestBuildInitialCurve:
    def make_zero(self, bond_id, maturity):
        return CouponBond(bond_id=bond_id, face=100.0, coupon_rate=0.0,
                          frequency=1, maturity=maturity)

    def test_two_zeros(self):
        settlement = dt.date(2010, 1, 4)
        b1 = self.make_zero("Z1", dt.date(2011, 1, 4))
        b2 = self.make_zero("Z2", dt.date(2012, 1, 4))
        with pytest.warns(UserWarning):
            curve = build_initial_curve(
                [(b1, settlement, 95.0), (b2, settlement, 90.0)]
            )
        assert curve.discount(curve.pillars[0][0]) == pytest.approx(0.95, rel=1e-12)
        assert curve.discount(curve.pillars[1][0]) == pytest.approx(0.90, rel=1e-12)
        assert curve.asof == settlement

    def test_duplicate_maturities_rejected(self):
        settlement = dt.date(2010, 1, 4)
        b1 = self.make_zero("Z1", dt.date(2012, 1, 4))
        b2 = self.make_zero("Z2", dt.date(2012, 1, 4))
        with pytest.raises(AmbiguityError):
            build_initial_curve([(b1, settlement, 90.0), (b2, settlement, 89.0)])

    def test_mixed_settlements_rejected(self):
        b1 = self.make_zero("Z1", dt.date(2011, 1, 4))
        b2 = self.make_zero("Z2", dt.date(2012, 1, 4))
        with pytest.raises(AmbiguityError, match="share a settlement date"):
            build_initial_curve(
                [(b1, dt.date(2010, 1, 4), 95.0), (b2, dt.date(2010, 1, 5), 90.0)]
            )

    def test_coupon_bond_pillar_matches_its_ytm(self):
        settlement = dt.date(2010, 1, 4)
        short = self.make_zero("Z0", dt.date(2010, 7, 4))
        coupon = CouponBond(bond_id="C5", face=100.0, coupon_rate=0.05,
                            frequency=2, maturity=dt.date(2015, 1, 4))
        curve = build_initial_curve(
            [(short, settlement, 99.0), (coupon, settlement, 101.5)]
        )
        tau = curve.pillars[-1][0]
        # the long pillar is exp(-y tau) for the coupon bond's own ytm
        from curveforge.bonds import ytm_from_price

        y = ytm_from_price(coupon, settlement, 101.5)
        assert curve.pillars[-1][1] == pytest.approx(math.exp(-y * tau), rel=1e-12)

    def test_single_quote_rejected(self):
        b1 = self.make_zero("Z1", dt.date(2011, 1, 4))
        with pytest.raises(AmbiguityError, match="at least two quotes"):
            build_initial_curve([(b1, dt.date(2010, 1, 4), 95.0)])

    def test_inverted_pillars_warn(self):
        settlement = dt.date(2010, 1, 4)
        b0 = self.make_zero("Z0", dt.date(2010, 7, 4))
        b1 = self.make_zero("Z1", dt.date(2011, 1, 4))
        b2 = self.make_zero("Z2", dt.date(2012, 1, 4))
        with pytest.warns(UserWarning, match="not strictly decreasing"):
            build_initial_curve(
                [(b0, settlement, 99.0), (b1, settlement, 90.0), (b2, settlement, 95.0)]
            )
