"""Broadcast closed-form prices against scalar calls of the same functions.

Every price function takes floats or arrays.  A scalar call is the
reference here: an array call must return, element for element, the very
bits the scalar calls return.  The surface and the arbitrage scans are
checked the same way against cell-by-cell and point-by-point references.
"""

import math

import numpy as np
import pytest

from curveforge import cli, diagnostics
from curveforge.curve import DiscountCurve, flat_curve
from curveforge.diagnostics import (
    MATURITY_GRID,
    build_surface,
    check_monotone,
    find_increasing_price_state,
    g2pp_dPdT,
    scan_derivative_signs,
)
from curveforge.errors import DATA_ERRORS, OrderingError
from curveforge.estimation import StateSeries
from curveforge.hjm import HoLeeParams, HullWhiteParams, holee_price, hullwhite_price
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    decay_loading,
    g2pp_log_price,
    g2pp_price,
    vasicek_ab,
    vasicek_price,
)

N_DRAWS = 25


def shaped_curve(span=40.0, flat_extrapolation=True):
    taus = np.arange(1.0, span + 1.0)
    rates = 0.03 + 0.015 * np.sin(taus / 3.0) + 0.0004 * taus
    pillars = tuple((float(t), float(math.exp(-r * t))) for t, r in zip(taus, rates))
    return DiscountCurve(pillars, flat_extrapolation=flat_extrapolation)


CURVE = shaped_curve()


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def draws(seed):
    """Random parameters with one speed at 1e-6 every fifth draw, and
    (n, 1) valuation times (one row at t = 0) against (1, m) times to
    maturity."""
    rng = np.random.default_rng(seed)
    for k in range(N_DRAWS):
        a = 1e-6 if k % 5 == 0 else float(rng.uniform(0.01, 2.0))
        b = float(rng.uniform(0.01, 2.0))
        t = rng.uniform(0.0, 8.0, size=(6, 1))
        t[0, 0] = 0.0
        tau = rng.uniform(0.0, 25.0, size=(1, 7))
        tau[0, 0] = 0.0
        yield rng, a, b, t, t + tau


def elementwise(fn, *arrays):
    """The scalar reference: fn on the Python floats of each cell."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in arrays))
    cells = [np.broadcast_to(x, shape).ravel().tolist() for x in arrays]
    return np.array([fn(*args) for args in zip(*cells)]).reshape(shape)


class TestBroadcastEqualsScalar:
    def test_decay_loading(self):
        for _, a, _, t, T in draws(1):
            tau = T - t
            assert same_bits(decay_loading(a, tau), elementwise(lambda u: decay_loading(a, u), tau))

    def test_vasicek(self):
        for rng, a, b, t, T in draws(2):
            params = VasicekParams(a=a, b=b, sigma=float(rng.uniform(0.001, 0.4)))
            r = rng.normal(0.04, 0.05, size=t.shape)
            A, B = vasicek_ab(params, t, T)
            assert same_bits(A, elementwise(lambda s, u: vasicek_ab(params, s, u)[0], t, T))
            assert same_bits(B, elementwise(lambda s, u: vasicek_ab(params, s, u)[1], t, T))
            got = vasicek_price(params, r, t, T)
            ref = elementwise(lambda x, s, u: vasicek_price(params, x, s, u), r, t, T)
            assert same_bits(got, ref)

    def test_g2pp(self):
        for rng, a, b, t, T in draws(3):
            params = G2Params(
                a=a, b=b, sigma=float(rng.uniform(0.001, 0.3)),
                eta=float(rng.uniform(0.001, 0.3)), rho=float(rng.uniform(-0.99, 0.99)),
            )
            x = rng.normal(0.0, 0.05, size=t.shape)
            y = rng.normal(0.0, 0.05, size=t.shape)
            state = G2State(x=x, y=y, t=t)

            def scalar(fn):
                return elementwise(
                    lambda xi, yi, s, u: fn(params, CURVE, G2State(xi, yi, s), u), x, y, t, T
                )

            assert same_bits(g2pp_log_price(params, CURVE, state, T), scalar(g2pp_log_price))
            assert same_bits(g2pp_price(params, CURVE, state, T), scalar(g2pp_price))
            later = T + 1e-3  # dP/dT needs T > t
            got = g2pp_dPdT(params, CURVE, state, later)
            ref = elementwise(
                lambda xi, yi, s, u: g2pp_dPdT(params, CURVE, G2State(xi, yi, s), u),
                x, y, t, later,
            )
            assert same_bits(got, ref)

    def test_forward_curve_models(self):
        for rng, a, _, t, T in draws(4):
            sigma = float(rng.uniform(0.001, 0.3))
            r = rng.normal(0.04, 0.05, size=t.shape)
            hl = HoLeeParams(sigma=sigma)
            got = holee_price(hl, CURVE, r, t, T)
            ref = elementwise(lambda x, s, u: holee_price(hl, CURVE, x, s, u), r, t, T)
            assert same_bits(got, ref)
            hw = HullWhiteParams(a=a, sigma=sigma)
            got = hullwhite_price(hw, CURVE, r, t, T)
            ref = elementwise(lambda x, s, u: hullwhite_price(hw, CURVE, x, s, u), r, t, T)
            assert same_bits(got, ref)

    def test_zero_dimensional_inputs_return_python_floats(self):
        vas = VasicekParams(a=0.5, b=0.04, sigma=0.02)
        g2 = G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4)
        hl = HoLeeParams(sigma=0.01)
        hw = HullWhiteParams(a=0.1, sigma=0.01)
        for wrap in (np.array, np.float64):
            t, T, r = wrap(0.5), wrap(3.25), wrap(0.03)
            state = G2State(x=wrap(0.01), y=wrap(-0.02), t=t)
            cases = [
                (decay_loading(0.5, T - t), decay_loading(0.5, 2.75)),
                (vasicek_ab(vas, t, T)[0], vasicek_ab(vas, 0.5, 3.25)[0]),
                (vasicek_ab(vas, t, T)[1], vasicek_ab(vas, 0.5, 3.25)[1]),
                (vasicek_price(vas, r, t, T), vasicek_price(vas, 0.03, 0.5, 3.25)),
                (g2pp_log_price(g2, CURVE, state, T),
                 g2pp_log_price(g2, CURVE, G2State(0.01, -0.02, 0.5), 3.25)),
                (g2pp_price(g2, CURVE, state, T),
                 g2pp_price(g2, CURVE, G2State(0.01, -0.02, 0.5), 3.25)),
                (g2pp_dPdT(g2, CURVE, state, T),
                 g2pp_dPdT(g2, CURVE, G2State(0.01, -0.02, 0.5), 3.25)),
                (holee_price(hl, CURVE, r, t, T), holee_price(hl, CURVE, 0.03, 0.5, 3.25)),
                (hullwhite_price(hw, CURVE, r, t, T),
                 hullwhite_price(hw, CURVE, 0.03, 0.5, 3.25)),
            ]
            for got, ref in cases:
                assert type(got) is float
                assert type(ref) is float
                assert got == ref

    def test_array_overflow_reads_inf_where_scalar_raises(self):
        vas = VasicekParams(a=0.5, b=0.04, sigma=0.02)
        r = np.array([0.03, -1e6])
        got = vasicek_price(vas, r, 0.0, 5.0)
        assert got[0] == vasicek_price(vas, 0.03, 0.0, 5.0)
        assert got[1] == math.inf
        with pytest.raises(OverflowError):
            vasicek_price(vas, -1e6, 0.0, 5.0)

    def test_ordering_checks_cover_every_element(self):
        vas = VasicekParams(a=0.5, b=0.04, sigma=0.02)
        with pytest.raises(ValueError):
            vasicek_price(vas, 0.03, np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            holee_price(HoLeeParams(sigma=0.01), CURVE, 0.03, np.array([0.5, -0.1]), 2.0)
        with pytest.raises(ValueError):
            G2State(x=np.zeros(2), y=np.zeros(2), t=np.array([0.0, -1.0]))

    def test_ordering_errors_name_the_first_offender_as_a_scalar_call_does(self):
        vas = VasicekParams(a=0.5, b=0.04, sigma=0.02)
        g2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)
        hl, hw = HoLeeParams(sigma=0.01), HullWhiteParams(a=0.1, sigma=0.01)
        state = G2State(0.01, -0.01, 1.0)
        times = np.array([[0.0], [2.0], [3.0]])  # broadcast against (1, 3) maturities
        cases = [
            (lambda t, T: vasicek_price(vas, 0.03, t, T), (times, np.array([[1.0, 2.5, 4.0]])),
             (2.0, 1.0)),
            (lambda t, T: holee_price(hl, CURVE, 0.03, t, T), (times, np.full((1, 3), 2.5)),
             (3.0, 2.5)),
            (lambda t, T: hullwhite_price(hw, CURVE, 0.03, t, T),
             (np.array([0.5, -0.1, -0.2]), 2.0), (-0.1, 2.0)),
            (lambda t, T: g2pp_price(g2, CURVE, state, T), (None, np.array([1.5, 0.5, 0.25])),
             (None, 0.5)),
            (lambda t, T: g2pp_dPdT(g2, CURVE, state, T), (None, np.array([1.5, 1.0, 0.5])),
             (None, 1.0)),
            (lambda t, T: G2State(0.0, 0.0, t), (np.array([0.0, -1.0, -2.0]), None),
             (-1.0, None)),
        ]
        for price, array_args, scalar_args in cases:
            with pytest.raises(OrderingError) as array_call:
                price(*array_args)
            with pytest.raises(OrderingError) as scalar_call:
                price(*scalar_args)
            assert str(array_call.value) == str(scalar_call.value)
            assert "[" not in str(array_call.value)


def cellwise_surface(model, params, states, curve):
    """Reference surface: each cell priced alone by a scalar call, a
    failing cell (domain error or a price outside (0, 1]) left nan."""
    kinds = {"vasicek": VasicekParams, "g2pp": G2Params,
             "holee": HoLeeParams, "hullwhite": HullWhiteParams}
    times = np.asarray(states.times, dtype=float)
    values = np.asarray(states.values, dtype=float)
    grid = np.full((times.size, len(MATURITY_GRID)), np.nan)
    failures = []
    for i, t in enumerate(times.tolist()):
        for j, tau in enumerate(MATURITY_GRID):
            T = t + tau
            try:
                if model not in kinds:
                    raise ValueError(f"unknown model {model!r}")
                if not isinstance(params, kinds[model]):
                    raise TypeError(f"{model} surface needs {kinds[model].__name__}")
                if model == "vasicek":
                    p = vasicek_price(params, float(values[i]), t, T)
                elif model == "g2pp":
                    x, y = values[i].tolist()
                    p = g2pp_price(params, curve, G2State(x=x, y=y, t=t), T)
                elif model == "holee":
                    p = holee_price(params, curve, float(values[i]), t, T)
                else:
                    p = hullwhite_price(params, curve, float(values[i]), t, T)
                if not 0.0 < p <= 1.0:
                    raise ValueError(f"price {p} outside (0, 1]")
                grid[i, j] = p
            except DATA_ERRORS + (TypeError,) as exc:
                failures.append((i, tau, str(exc)))
    return grid, failures


def assert_matches_cellwise(model, params, states, curve):
    surface = build_surface(model, params, states, curve)
    grid, failures = cellwise_surface(model, params, states, curve)
    assert same_bits(surface.values, grid)
    assert surface.failures == failures
    assert all(type(i) is int for i, _, _ in surface.failures)
    return surface


def series(rng, n, two_factor, t_lo=0.0, t_hi=6.0, sd=0.05):
    times = np.sort(rng.uniform(t_lo, t_hi, size=n))
    shape = (n, 2) if two_factor else n
    return StateSeries(times=times, values=rng.normal(0.0 if two_factor else 0.04, sd, size=shape))


MODELS = [
    ("vasicek", cli._DEFAULT_PARAMS["vasicek"]),
    ("g2pp", G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4)),
    ("holee", HoLeeParams(sigma=0.02)),
    ("hullwhite", cli._DEFAULT_PARAMS["hullwhite"]),
]


class TestSurfaceEqualsCellwise:
    @pytest.mark.parametrize("model,params", MODELS)
    def test_random_states(self, model, params):
        rng = np.random.default_rng(5)
        states = series(rng, 120, model == "g2pp")
        surface = assert_matches_cellwise(model, params, states, CURVE)
        assert np.isfinite(surface.values).mean() > 0.5

    def test_poisoned_cells_vasicek_negative_rate(self):
        states = StateSeries(times=np.array([0.0, 1.0, 2.0]), values=np.array([-0.5, 0.05, -0.5]))
        surface = assert_matches_cellwise("vasicek", cli._DEFAULT_PARAMS["vasicek"], states, None)
        assert surface.failures

    def test_poisoned_cells_g2pp_cli_defaults(self):
        rng = np.random.default_rng(6)
        states = series(rng, 200, True, sd=0.2)
        surface = assert_matches_cellwise("g2pp", cli._DEFAULT_PARAMS["g2pp"], states, CURVE)
        assert len(surface.failures) > 50

    @pytest.mark.parametrize("model,params", MODELS[1:])
    def test_beyond_curve_span_fails_cell_by_cell(self, model, params):
        # span 12y without flat extrapolation: long tenors and late dates
        # fail one by one with the curve's own extrapolation error
        short = flat_curve(0.04, span=12.0, n_pillars=12)
        rng = np.random.default_rng(7)
        states = series(rng, 60, model == "g2pp", t_hi=14.0)
        surface = assert_matches_cellwise(model, params, states, short)
        messages = {message for _, _, message in surface.failures}
        assert any("beyond curve span" in m for m in messages)
        assert np.isfinite(surface.values).any()

    @pytest.mark.parametrize("model,params", MODELS)
    def test_negative_state_times(self, model, params):
        rng = np.random.default_rng(8)
        states = series(rng, 40, model == "g2pp", t_lo=-1.0, t_hi=2.0)
        assert_matches_cellwise(model, params, states, CURVE)

    @pytest.mark.parametrize("model,rate", [("vasicek", -1e6), ("holee", -1e5)])
    def test_overflowing_cells_carry_the_scalar_error(self, model, rate):
        params = dict(MODELS)[model]
        states = StateSeries(times=np.array([0.0, 0.5]), values=np.array([0.04, rate]))
        surface = assert_matches_cellwise(model, params, states, CURVE)
        assert any(message == "math range error" for _, _, message in surface.failures)

    def test_wrong_params_type(self):
        states = StateSeries(times=np.array([0.0, 0.5]), values=np.array([0.05, 0.04]))
        assert_matches_cellwise("vasicek", HoLeeParams(sigma=0.05), states, CURVE)

    def test_unknown_model(self):
        states = StateSeries(times=np.array([0.0, 0.5]), values=np.array([0.05, 0.04]))
        assert_matches_cellwise("heath", cli._DEFAULT_PARAMS["vasicek"], states, CURVE)

    @pytest.mark.parametrize("model,params", MODELS[1:])
    def test_missing_curve_poisons_every_cell(self, model, params):
        states = series(np.random.default_rng(10), 3, model == "g2pp")
        surface = build_surface(model, params, states, None)
        assert np.all(np.isnan(surface.values))
        assert [message for _, _, message in surface.failures] == (
            [f"{model} surface needs a curve"] * surface.values.size
        )

    def test_bug_in_pricing_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(diagnostics, "holee_price", broken)
        states = StateSeries(times=np.array([0.0, 0.5]), values=np.array([0.05, 0.04]))
        with pytest.raises(TypeError, match="injected bug"):
            build_surface("holee", HoLeeParams(sigma=0.02), states, CURVE)


def scan_pointwise(params, curve, state, tau_lo=1.0 / 12.0, tau_hi=25.0, n_points=241):
    """Reference scan: every derivative and price from a scalar call."""
    taus = np.linspace(tau_lo, tau_hi, n_points)
    maturities = state.t + taus
    derivs = np.array([g2pp_dPdT(params, curve, state, T) for T in maturities])
    prices = [(float(tau), g2pp_price(params, curve, state, T)) for tau, T in zip(taus, maturities)]
    return derivs, check_monotone(prices).violations


class TestArbitrageScans:
    def test_scan_matches_pointwise_reference(self):
        g2 = cli._DEFAULT_PARAMS["g2pp"]
        curve = flat_curve(0.05, span=40.0, n_pillars=40)
        rng = np.random.default_rng(9)
        for _ in range(6):
            state = G2State(float(rng.normal(0, 0.2)), float(rng.normal(0, 0.2)),
                            float(rng.uniform(0, 5)))
            derivs, violations = scan_pointwise(g2, curve, state)
            maturities = state.t + np.linspace(1.0 / 12.0, 25.0, 241)
            assert same_bits(g2pp_dPdT(g2, curve, state, maturities), derivs)
            report = scan_derivative_signs(g2, curve, state)
            assert report.violations == violations

    def test_increasing_price_search_matches_pointwise_reference(self):
        g2 = cli._DEFAULT_PARAMS["g2pp"]
        curve = flat_curve(0.05, span=40.0, n_pillars=40)
        best = None
        for x, y in ((0.2, -0.2), (-0.2, 0.2)):
            for t in (0.0, 0.5, 1.0):
                state = G2State(x=x, y=y, t=t)
                for tau in np.linspace(1.0, 25.0, 97):
                    deriv = g2pp_dPdT(g2, curve, state, t + float(tau))
                    if deriv > 0.0 and (best is None or deriv > best[2]):
                        best = (state, t + float(tau), deriv)
        assert find_increasing_price_state(g2, curve) == best
