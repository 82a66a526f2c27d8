import datetime as dt
import math

import numpy as np
import pytest

from curveforge.bonds import CouponBond, present_value, ytm_from_price
from curveforge.daycount import year_fraction
from curveforge.errors import NoSolutionError


@pytest.fixture
def semiannual_bond():
    return CouponBond(
        bond_id="T5Y",
        face=100.0,
        coupon_rate=0.06,
        frequency=2,
        maturity=dt.date(2015, 1, 4),
    )


@pytest.fixture
def zero_bond():
    return CouponBond(
        bond_id="Z2Y",
        face=100.0,
        coupon_rate=0.0,
        frequency=1,
        maturity=dt.date(2012, 1, 4),
    )


class TestSchedule:
    def test_coupon_count(self, semiannual_bond):
        dates = semiannual_bond.coupon_dates()
        assert dates[-1] == semiannual_bond.maturity
        # stepping back 6 months at a time from 2015-01-04
        assert dates[0] < dates[-1]
        assert all(a < b for a, b in zip(dates, dates[1:]))

    @pytest.mark.parametrize("frequency", [1, 2, 4, 12])
    def test_unanchored_schedule_stops_after_two_centuries(self, frequency):
        # without an anchor the schedule steps back 200 years of periods,
        # whatever the period: 200 * frequency periods before maturity
        maturity = dt.date(2018, 1, 7)
        bond = CouponBond("C", 100.0, 0.05, frequency, maturity)
        dates = bond.coupon_dates()
        assert len(dates) == 200 * frequency + 1
        assert dates[0] == dt.date(1818, 1, 7)
        assert dates[-1] == maturity

    def test_semiannual_first_date_within_two_centuries(self, semiannual_bond):
        first = semiannual_bond.coupon_dates()[0]
        maturity = semiannual_bond.maturity
        assert first >= maturity.replace(year=maturity.year - 200)

    def test_cash_flows_strictly_future(self, semiannual_bond):
        settlement = dt.date(2010, 1, 4)
        flows = semiannual_bond.cash_flows(settlement)
        assert all(d > settlement for d, _ in flows)
        # final flow carries face + coupon
        final_date, final_amount = flows[-1]
        assert final_date == semiannual_bond.maturity
        assert final_amount == pytest.approx(100.0 + 0.5 * 0.06 * 100.0)

    def test_zero_coupon_single_flow(self, zero_bond):
        flows = zero_bond.cash_flows(dt.date(2010, 1, 4))
        assert len(flows) == 1
        assert flows[0] == (zero_bond.maturity, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CouponBond(bond_id="bad", face=-1.0, coupon_rate=0.05,
                       frequency=2, maturity=dt.date(2015, 1, 1))
        with pytest.raises(ValueError):
            CouponBond(bond_id="bad", face=100.0, coupon_rate=0.05,
                       frequency=0, maturity=dt.date(2015, 1, 1))


class TestYtm:
    def test_zero_price_round_trip(self, zero_bond):
        settlement = dt.date(2010, 1, 4)
        y = 0.0437
        tau = year_fraction(settlement, zero_bond.maturity)
        p = present_value(zero_bond, settlement, y)
        assert p == pytest.approx(100.0 * math.exp(-y * tau))
        assert ytm_from_price(zero_bond, settlement, p) == pytest.approx(y, abs=1e-10)

    def test_zero_coupon_ytm_closed_form(self, zero_bond):
        settlement = dt.date(2010, 1, 4)
        tau = year_fraction(settlement, zero_bond.maturity)
        price = 100.0 * math.exp(-0.05 * tau)
        y = ytm_from_price(zero_bond, settlement, price)
        assert y == pytest.approx(0.05, abs=1e-10)

    def test_par_coupon_bond_ytm_near_coupon(self, semiannual_bond):
        # a bond priced at par has a yield close to its coupon rate
        settlement = dt.date(2010, 1, 4)
        y = ytm_from_price(semiannual_bond, settlement, 100.0)
        assert abs(y - 0.06) < 0.01

    def test_ytm_prices_back(self, semiannual_bond):
        settlement = dt.date(2010, 3, 17)
        price = 97.31
        y = ytm_from_price(semiannual_bond, settlement, price)
        pv = present_value(semiannual_bond, settlement, y)
        assert pv == pytest.approx(price, abs=1e-8)

    def test_monotone_in_price(self, semiannual_bond):
        settlement = dt.date(2010, 1, 4)
        prices = [80.0, 90.0, 100.0, 110.0]
        ys = [ytm_from_price(semiannual_bond, settlement, p) for p in prices]
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_absurd_price_raises(self, semiannual_bond):
        settlement = dt.date(2010, 1, 4)
        with pytest.raises(NoSolutionError):
            ytm_from_price(semiannual_bond, settlement, 0.01)
        with pytest.raises(NoSolutionError):
            ytm_from_price(semiannual_bond, settlement, 1e6)

    def test_clean_price_adds_accrued(self, semiannual_bond):
        # mid-period the clean yield must exceed the dirty yield at the
        # same quoted number, because clean + accrued > clean
        settlement = dt.date(2010, 3, 17)
        y_dirty = ytm_from_price(semiannual_bond, settlement, 98.0)
        y_clean = ytm_from_price(semiannual_bond, settlement, 98.0, clean=True)
        assert y_clean < y_dirty

    def test_random_round_trips(self, semiannual_bond):
        rng = np.random.default_rng(7)
        settlement = dt.date(2010, 1, 4)
        for _ in range(25):
            y = float(rng.uniform(0.001, 0.30))
            price = present_value(semiannual_bond, settlement, y)
            back = ytm_from_price(semiannual_bond, settlement, price)
            assert back == pytest.approx(y, abs=1e-9)
