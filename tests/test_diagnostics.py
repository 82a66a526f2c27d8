import datetime as dt
import math
import time

import numpy as np
import pytest

from curveforge import diagnostics
from curveforge.curve import DiscountCurve, flat_curve
from curveforge.diagnostics import (
    MATURITY_GRID,
    ArbitrageReport,
    PriceSurface,
    build_surface,
    check_monotone,
    find_increasing_price_state,
    g2pp_dPdT,
    scan_derivative_signs,
)
from curveforge.errors import ExtrapolationError, OrderingError
from curveforge.estimation import StateSeries
from curveforge.hjm import HoLeeParams, HullWhiteParams
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    g2pp_price,
    vasicek_price,
)

VAS = VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)
G2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)


@pytest.fixture(scope="module")
def curve():
    return flat_curve(0.05, span=40.0, n_pillars=40)


def shaped_curve(span=40.0):
    """Decreasing-price curve whose zero rates vary across pillars, so the
    piecewise-constant forward actually jumps at the knots."""
    taus = np.arange(1.0, span + 1.0)
    rates = 0.03 + 0.015 * np.sin(taus / 3.0) + 0.0004 * taus
    pillars = tuple(
        (float(t), float(math.exp(-r * t))) for t, r in zip(taus, rates)
    )
    return DiscountCurve(pillars)


class TestMaturityGrid:
    def test_fourteen_tenors(self):
        assert len(MATURITY_GRID) == 14
        assert MATURITY_GRID[0] == pytest.approx(1.0 / 12.0)
        assert MATURITY_GRID[-1] == 25.0

    def test_strictly_increasing(self):
        assert all(b > a for a, b in zip(MATURITY_GRID, MATURITY_GRID[1:]))


class TestArbitrageReport:
    def test_clean_report(self):
        rep = ArbitrageReport(violations=[])
        assert rep.clean

    def test_violation_fields_validated(self):
        # price must increase with maturity in every reported pair
        with pytest.raises(ValueError):
            ArbitrageReport(violations=[(2.0, 1.0, 0.90, 0.95)])
        with pytest.raises(ValueError):
            ArbitrageReport(violations=[(1.0, 2.0, 0.95, 0.90)])

    def test_sign_changes_spoil_cleanliness(self):
        rep = ArbitrageReport(violations=[], derivative_sign_changes=[3.7])
        assert not rep.clean


class TestCheckMonotone:
    def test_monotone_list_is_clean(self):
        rep = check_monotone([(1.0, 0.95), (2.0, 0.90), (3.0, 0.85)])
        assert rep.violations == []
        assert rep.clean

    def test_single_inversion_reported(self):
        rep = check_monotone([(1.0, 0.90), (2.0, 0.95)])
        assert rep.violations == [(1.0, 2.0, 0.90, 0.95)]

    def test_non_adjacent_pairs_included(self):
        rep = check_monotone([(1.0, 0.90), (2.0, 0.85), (3.0, 0.92)])
        assert (1.0, 3.0, 0.90, 0.92) in rep.violations
        assert (2.0, 3.0, 0.85, 0.92) in rep.violations
        assert len(rep.violations) == 2

    def test_flat_prices_are_clean(self):
        # "non-increasing" admits ties: equal prices are not an inversion
        rep = check_monotone([(1.0, 0.9), (2.0, 0.9)])
        assert rep.clean

    def test_unsorted_maturities_rejected(self):
        with pytest.raises(OrderingError):
            check_monotone([(2.0, 0.90), (1.0, 0.95)])

    def test_duplicate_maturities_rejected(self):
        with pytest.raises(OrderingError):
            check_monotone([(1.0, 0.90), (1.0, 0.95)])

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError):
            check_monotone([(1.0, 0.95), (2.0, 0.0)])

    def test_empty_iff_nonincreasing_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = rng.integers(2, 9)
            taus = np.sort(rng.uniform(0.1, 25.0, size=n))
            while np.any(np.diff(taus) == 0.0):
                taus = np.sort(rng.uniform(0.1, 25.0, size=n))
            prices = rng.uniform(0.2, 1.0, size=n)
            rep = check_monotone(list(zip(taus, prices)))
            nonincreasing = bool(np.all(np.diff(prices) <= 0.0))
            assert (rep.violations == []) == nonincreasing


class TestDerivative:
    def test_degenerate_state_has_negative_slope(self, curve):
        # x = y = 0 and rho = 0 at t = 0: only the market-forward term
        # survives, and that is negative on a decreasing curve
        params = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=0.0)
        state = G2State(x=0.0, y=0.0, t=0.0)
        for T in (0.5, 1.7, 5.0, 12.0, 25.0):
            assert g2pp_dPdT(params, curve, state, T) < 0.0

    def test_maturity_must_exceed_valuation_time(self, curve):
        state = G2State(x=0.0, y=0.0, t=2.0)
        with pytest.raises(OrderingError):
            g2pp_dPdT(G2, curve, state, 2.0)

    def test_extrapolation_error_beyond_span(self, curve):
        state = G2State(x=0.0, y=0.0, t=0.0)
        with pytest.raises(ExtrapolationError):
            g2pp_dPdT(G2, curve, state, curve.span + 1.0)

    def test_matches_finite_differences_fuzz(self):
        # 50 random configurations; T kept inside a forward segment so the
        # centered difference never straddles a knot of the piecewise-
        # constant market forward
        curve = shaped_curve()
        rng = np.random.default_rng(44)
        step = 1e-5
        for _ in range(50):
            params = G2Params(
                a=float(rng.uniform(0.05, 1.5)),
                b=float(rng.uniform(0.05, 1.5)),
                sigma=float(rng.uniform(0.01, 0.5)),
                eta=float(rng.uniform(0.01, 0.5)),
                rho=float(rng.uniform(-0.99, 0.99)),
            )
            t = float(rng.uniform(0.0, 3.0))
            state = G2State(
                x=float(rng.uniform(-0.15, 0.15)),
                y=float(rng.uniform(-0.15, 0.15)),
                t=t,
            )
            segment = int(rng.integers(math.ceil(t + 1.0), 30))
            T = segment + float(rng.uniform(0.1, 0.9))
            fd = (
                g2pp_price(params, curve, state, T + step)
                - g2pp_price(params, curve, state, T - step)
            ) / (2.0 * step)
            analytic = g2pp_dPdT(params, curve, state, T)
            assert analytic == pytest.approx(fd, rel=1e-5)

    def test_sign_agrees_with_finite_differences(self, curve):
        state = G2State(x=0.2, y=-0.2, t=0.5)
        step = 1e-5
        for T in (1.3, 2.6, 7.4, 18.2):
            analytic = g2pp_dPdT(G2, curve, state, T)
            if abs(analytic) <= 1e-8:
                continue
            fd = (
                g2pp_price(G2, curve, state, T + step)
                - g2pp_price(G2, curve, state, T - step)
            ) / (2.0 * step)
            assert math.copysign(1.0, analytic) == math.copysign(1.0, fd)


class TestIncreasingPriceSearch:
    def test_finds_positive_slope_under_strong_negative_correlation(self, curve):
        started = time.perf_counter()
        found = find_increasing_price_state(G2, curve)
        elapsed = time.perf_counter() - started
        assert found is not None
        state, T, deriv = found
        assert deriv > 0.0
        assert g2pp_dPdT(G2, curve, state, T) == deriv
        assert {abs(state.x), abs(state.y)} == {0.2}
        assert state.x * state.y < 0.0
        assert elapsed < 5.0

    def test_no_state_without_leverage(self, curve):
        # zero states and uncorrelated small vols leave every addend of the
        # slope non-positive on a decreasing curve
        tame = G2Params(a=0.5, b=0.8, sigma=0.01, eta=0.01, rho=0.0)
        assert find_increasing_price_state(tame, curve, magnitude=0.0) is None

    def test_detectors_agree_on_flagged_interval(self, curve):
        # wherever the analytic slope stays positive, sampled prices must
        # exhibit an inversion
        state, T, _ = find_increasing_price_state(G2, curve)
        lo, hi = T - 0.2, T + 0.2
        taus = np.linspace(lo - state.t, hi - state.t, 10)
        if all(
            g2pp_dPdT(G2, curve, state, state.t + tau) > 1e-8 for tau in taus
        ):
            sampled = [
                (float(tau), g2pp_price(G2, curve, state, state.t + tau))
                for tau in taus
            ]
            rep = check_monotone(sampled)
            assert len(rep.violations) >= 1

    def test_scan_reports_crossings_and_inversions(self, curve):
        state, _, _ = find_increasing_price_state(G2, curve)
        rep = scan_derivative_signs(G2, curve, state)
        assert len(rep.derivative_sign_changes) >= 1
        assert len(rep.violations) >= 1
        assert not rep.clean
        # every located crossing really does change sign in a small window
        for T in rep.derivative_sign_changes:
            left = g2pp_dPdT(G2, curve, state, T - 1e-4)
            right = g2pp_dPdT(G2, curve, state, T + 1e-4)
            assert left * right <= 0.0

    def test_scan_clean_for_tame_model(self, curve):
        tame = G2Params(a=0.5, b=0.8, sigma=0.01, eta=0.01, rho=0.0)
        rep = scan_derivative_signs(tame, curve, G2State(0.0, 0.0, 0.0))
        assert rep.clean

    def test_scan_rejects_empty_interval(self, curve):
        with pytest.raises(OrderingError):
            scan_derivative_signs(G2, curve, G2State(0.0, 0.0, 0.0), 2.0, 2.0)

    def test_exact_zero_at_the_last_grid_point_is_not_a_crossing(self, curve, monkeypatch):
        # dP/dT = (T - 1)(T - 5) on the grid 1, 2, 3, 4, 5 is exactly zero at
        # both ends and negative in between: the first grid point is a
        # crossing, the last one (tau_hi) starts no interval and is not
        def slope(params, curve, state, T):
            return (T - 1.0) * (T - 5.0)

        monkeypatch.setattr(diagnostics, "g2pp_dPdT", slope)
        rep = scan_derivative_signs(G2, curve, G2State(0.0, 0.0, 0.0), 1.0, 5.0, 5)
        assert rep.derivative_sign_changes == [1.0]


class TestBuildSurface:
    def test_single_date_vasicek_matches_pointwise(self, curve):
        states = StateSeries(times=np.array([0.7]), values=np.array([VAS.b]))
        surface = build_surface("vasicek", VAS, states, curve)
        assert surface.failures == []
        for j, tau in enumerate(MATURITY_GRID):
            direct = vasicek_price(VAS, VAS.b, 0.7, 0.7 + tau)
            assert surface.values[0, j] == direct

    def test_zero_state_g2pp_row_is_market_curve(self, curve):
        states = StateSeries(
            times=np.array([0.0]), values=np.array([[0.0, 0.0]])
        )
        surface = build_surface("g2pp", G2, states, curve)
        assert surface.failures == []
        for j, tau in enumerate(MATURITY_GRID):
            assert surface.values[0, j] == pytest.approx(
                curve.discount(tau), rel=1e-12
            )

    def test_batch_equals_pointwise_g2pp(self, curve):
        rng = np.random.default_rng(7)
        n = 200
        times = np.cumsum(rng.uniform(0.01, 0.03, size=n))
        # draw factor pairs that nearly cancel, as the rho = -0.99 dynamics
        # themselves would; independent draws push short-tenor prices over 1
        xs = rng.normal(0.0, 0.05, size=n)
        ys = -xs + rng.normal(0.0, 0.01, size=n)
        states = StateSeries(times=times, values=np.column_stack([xs, ys]))
        surface = build_surface("g2pp", G2, states, curve)
        assert surface.failures == []
        for i in (0, 57, 123, 199):
            for j, tau in enumerate(MATURITY_GRID):
                state = G2State(
                    x=float(xs[i]), y=float(ys[i]), t=float(times[i])
                )
                direct = g2pp_price(G2, curve, state, float(times[i]) + tau)
                assert surface.values[i, j] == direct

    def test_all_models_in_unit_interval(self, curve):
        times = np.array([0.0, 0.5, 1.0])
        scalar = StateSeries(times=times, values=np.array([0.05, 0.06, 0.045]))
        pair = StateSeries(times=times, values=np.zeros((3, 2)))
        cases = [
            ("vasicek", VAS, scalar),
            ("g2pp", G2, pair),
            ("holee", HoLeeParams(sigma=0.05), scalar),
            ("hullwhite", HullWhiteParams(a=0.0813, sigma=0.0215), scalar),
        ]
        for model, params, states in cases:
            surface = build_surface(model, params, states, curve)
            assert surface.failures == []
            assert np.all(surface.values > 0.0)
            assert np.all(surface.values <= 1.0)

    def test_failing_cell_is_poisoned_not_fatal(self, curve):
        # a deeply negative short rate pushes short-tenor prices above 1;
        # those cells must come back nan and recorded, the rest priced
        states = StateSeries(
            times=np.array([0.0, 1.0]), values=np.array([-0.5, 0.05])
        )
        surface = build_surface("vasicek", VAS, states, curve)
        assert surface.failures
        assert all(i == 0 for i, _, _ in surface.failures)
        bad_cols = {
            list(MATURITY_GRID).index(tau) for _, tau, _ in surface.failures
        }
        for j in range(len(MATURITY_GRID)):
            assert np.isnan(surface.values[0, j]) == (j in bad_cols)
        assert np.all(np.isfinite(surface.values[1]))

    def test_wrong_params_type_poisons_every_cell(self, curve):
        states = StateSeries(times=np.array([0.0]), values=np.array([0.05]))
        surface = build_surface("vasicek", HoLeeParams(sigma=0.05), states, curve)
        assert np.all(np.isnan(surface.values))
        assert len(surface.failures) == len(MATURITY_GRID)

    def test_empty_states_rejected(self, curve):
        empty = StateSeries(times=np.array([]), values=np.array([]))
        with pytest.raises(ValueError):
            build_surface("vasicek", VAS, empty, curve)

    def test_unknown_model_poisons_cells(self, curve):
        states = StateSeries(times=np.array([0.0]), values=np.array([0.05]))
        surface = build_surface("heath", VAS, states, curve)
        assert np.all(np.isnan(surface.values))

    def test_dates_carried_through(self, curve):
        dates = [dt.date(2013, 1, 7), dt.date(2013, 1, 14)]
        states = StateSeries(
            times=np.array([0.0, 7.0 / 365.25]),
            values=np.array([0.05, 0.05]),
            dates=dates,
        )
        surface = build_surface("vasicek", VAS, states, curve)
        assert surface.dates == dates

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PriceSurface(
                dates=[0.0, 1.0],
                maturities=(1.0, 2.0),
                values=np.ones((2, 3)),
            )

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            PriceSurface(
                dates=[0.0],
                maturities=(1.0,),
                values=np.array([[1.5]]),
            )
