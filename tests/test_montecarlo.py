import datetime as dt
import math

import numpy as np
import pytest

from curveforge.curve import DiscountCurve, flat_curve
from curveforge.errors import (
    DegenerateStepError,
    OrderingError,
    ResolutionError,
    SingularInversionError,
)
from curveforge.hjm import HoLeeParams, HullWhiteParams, ShortRateState, holee_price, hullwhite_price
from curveforge import montecarlo
from curveforge.models import MODELS
from curveforge.montecarlo import (
    _MAX_BLOCK_ELEMENTS,
    McEstimate,
    SimConfig,
    mc_zero_price,
    _check_block_size,
    _cholesky_rows,
    _exact_steps,
    _synth_path,
    synth_panel,
)
from curveforge.rng import normal_block, path_generator, standard_normals
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    affine_invert,
    g2pp_price,
    vasicek_affine,
    vasicek_price,
)

VAS = VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)
G2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)


class TestRngStreams:
    def test_per_path_keying_is_stable_under_block_shape(self):
        # path i's draws do not depend on how many paths are requested
        a = normal_block(seed=3, first_path=0, n_paths=4, n_draws=16)
        b = normal_block(seed=3, first_path=0, n_paths=9, n_draws=16)
        np.testing.assert_array_equal(a, b[:4])
        c = normal_block(seed=3, first_path=2, n_paths=2, n_draws=16)
        np.testing.assert_array_equal(c, b[2:4])

    def test_different_seeds_differ(self):
        a = normal_block(seed=0, first_path=0, n_paths=1, n_draws=8)
        b = normal_block(seed=1, first_path=0, n_paths=1, n_draws=8)
        assert not np.array_equal(a, b)

    def test_normals_are_finite_and_standard(self):
        z = standard_normals(path_generator(123), 200_000)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 4 / math.sqrt(z.size)
        assert abs(z.std(ddof=1) - 1.0) < 0.01

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            path_generator(-1)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0, step=0.01, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, step=0.0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, step=0.01, seed=-1)
        # paths come in antithetic pairs, and a standard error needs two
        with pytest.raises(ValueError, match="even path count of at least 4.*got 1"):
            SimConfig(n_paths=1, step=0.5, seed=0)
        cfg = SimConfig(n_paths=4, step=0.5, seed=0)
        assert cfg.n_paths == 4


def _ref_vasicek_transition(params, r_s, dt):
    """Exact conditional (mean, variance) of r after a step of dt years
    (a frozen copy of the scalar one-gap transition the package used to
    export)."""
    if dt <= 0:
        raise DegenerateStepError(f"step must be positive, got {dt}")
    a, b, sigma = params.a, params.b, params.sigma
    decay = math.exp(-a * dt)
    mean = r_s * decay + b * (1.0 - decay)
    var = sigma**2 * (-math.expm1(-2.0 * a * dt)) / (2.0 * a)
    return mean, var


def _ref_vasicek_invert_state(params, price, t, T):
    """Short rate implied by an observed zero price: r = (ln A - ln P)/B
    (a frozen copy of the scalar inversion the package used to export)."""
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    if T < t:
        raise OrderingError(f"maturity {T} precedes valuation time {t}")
    alpha, beta = vasicek_affine(params, [T - t])
    (r,), _ = affine_invert(alpha, beta, [math.log(price)])
    return r


def record_steps(model, params, steps):
    """Per-step decays, drifts and Cholesky rows from the model's record."""
    decay, drift, cov = MODELS[model].moments(params, steps)
    return decay, drift, _cholesky_rows(cov)


def factor_paths(decay, drift, chol, x0, seed, n_paths):
    """(paths, steps + 1, k) factor values from ``_exact_steps``, path i
    driven by the normals of stream (seed, i)."""
    k, n_steps = len(x0), len(decay[0])
    z = normal_block(seed, 0, n_paths, k * n_steps).reshape(n_paths, n_steps, k)
    start = [np.full(n_paths, float(v)) for v in x0]
    steps = [start, *_exact_steps(decay, drift, chol, x0, z)]
    return np.stack([np.stack(x, axis=-1) for x in steps], axis=1)


class TestExactSteps:
    def test_zero_shock_sd_is_pure_decay(self):
        steps = np.diff(np.array([0.0, 0.5, 1.0, 3.0]))
        decay, drift, _ = record_steps("vasicek", VasicekParams(a=0.8, b=0.05, sigma=0.1), steps)
        path = factor_paths(decay, drift, [[np.zeros(3)]], [0.11], 0, 4)[:, :, 0]
        expected = 0.05 + (0.11 - 0.05) * np.exp(-0.8 * np.array([0.0, 0.5, 1.0, 3.0]))
        np.testing.assert_allclose(path, np.broadcast_to(expected, path.shape), rtol=1e-12)
        # a fixed point stays put
        path = factor_paths(decay, drift, [[np.zeros(3)]], [0.05], 0, 1)
        np.testing.assert_allclose(path, 0.05, rtol=0, atol=1e-16)

    def test_zero_second_row_decays_deterministically(self):
        grid = np.array([0.0, 0.4, 1.3, 2.0])
        decay, _, chol = record_steps("g2pp", G2, np.diff(grid))
        chol[1] = [np.zeros(3), np.zeros(3)]
        paths = factor_paths(decay, None, chol, [0.05, -0.08], 1, 50)
        np.testing.assert_allclose(
            paths[:, :, 1], np.broadcast_to(-0.08 * np.exp(-G2.b * grid), (50, 4)), rtol=1e-12
        )
        assert np.std(paths[:, -1, 0]) > 0  # the x factor still diffuses

    def test_vasicek_horizon_moments_match_transition(self):
        # multi-step exact sampling composes to the single-step transition law
        horizon, n_paths = 0.75, 20_000
        steps = np.diff(np.linspace(0.0, horizon, 33))
        vals = factor_paths(*record_steps("vasicek", VAS, steps), [0.05], 77, n_paths)[:, -1, 0]
        mean, var = _ref_vasicek_transition(VAS, 0.05, horizon)
        assert abs(vals.mean() - mean) < 4 * vals.std(ddof=1) / math.sqrt(n_paths)
        se_var = vals.var(ddof=1) * math.sqrt(2.0 / (n_paths - 1))
        assert abs(vals.var(ddof=1) - var) < 4 * se_var

    def test_one_step_vs_two_halves_in_distribution(self):
        n_paths, h = 30_000, 0.6
        one = factor_paths(*record_steps("vasicek", VAS, np.array([h])), [0.02], 5, n_paths)
        two = factor_paths(
            *record_steps("vasicek", VAS, np.array([h / 2, h / 2])), [0.02], 1005, n_paths
        )
        one, two = one[:, -1, 0], two[:, -1, 0]
        se = math.hypot(one.std(ddof=1), two.std(ddof=1)) / math.sqrt(n_paths)
        assert abs(one.mean() - two.mean()) < 4 * se
        se_var = one.var(ddof=1) * 2 * math.sqrt(2.0 / (n_paths - 1))
        assert abs(one.var(ddof=1) - two.var(ddof=1)) < 4 * se_var

    def test_g2pp_horizon_covariance_matches_transition(self):
        horizon, n_paths = 0.5, 20_000
        decay, _, chol = record_steps("g2pp", G2, np.diff(np.linspace(0.0, horizon, 17)))
        end = factor_paths(decay, None, chol, [0.0, 0.0], 21, n_paths)[:, -1, :]
        xs, ys = end[:, 0], end[:, 1]
        cov = np.array(MODELS["g2pp"].moments(G2, np.array([horizon]))[2])[:, :, 0]
        assert abs(xs.mean()) < 4 * xs.std(ddof=1) / math.sqrt(n_paths)
        assert abs(ys.mean()) < 4 * ys.std(ddof=1) / math.sqrt(n_paths)
        sample = np.cov(np.vstack([xs, ys]), ddof=1)
        assert sample[0, 0] == pytest.approx(cov[0, 0], rel=0.05)
        assert sample[1, 1] == pytest.approx(cov[1, 1], rel=0.05)
        assert sample[0, 1] == pytest.approx(cov[0, 1], rel=0.05)

    def test_rho_zero_paths_uncorrelated(self):
        params = G2Params(a=0.3, b=0.7, sigma=0.2, eta=0.3, rho=0.0)
        n_paths = 8_000
        decay, _, chol = record_steps("g2pp", params, np.array([1.0]))
        end = factor_paths(decay, None, chol, [0.0, 0.0], 9, n_paths)[:, -1, :]
        c = np.corrcoef(end[:, 0], end[:, 1])[0, 1]
        assert abs(c) < 4 / math.sqrt(n_paths)

    def test_seeded_path_is_byte_identical(self):
        steps = np.diff(np.linspace(0.0, 1.0, 53))
        inputs = record_steps("vasicek", VasicekParams(a=1.0, b=0.05, sigma=0.2), steps)
        p1 = _synth_path(*inputs, [0.03], 42)
        p2 = _synth_path(*inputs, [0.03], 42)
        assert np.array(p1).tobytes() == np.array(p2).tobytes()
        assert np.array(p1).tobytes() != np.array(_synth_path(*inputs, [0.03], 43)).tobytes()


class TestMcZeroPrice:
    def test_block_bound_arithmetic(self):
        # a block holds at least min(n_paths, 256) paths; only the product
        # with the draws per path is checked, nothing is allocated
        assert _MAX_BLOCK_ELEMENTS == 2**24
        for n_paths, n_draws in ((256, 2**16), (10**6, 2**16), (10, 2**24 // 10),
                                 (100_000, 1512)):
            _check_block_size(n_paths, n_draws)
        # the last is oracle --maturity 1e6 --paths 10: 252M steps
        for n_paths, n_draws in ((256, 2**16 + 1), (10**6, 2**16 + 1),
                                 (10, 2**24 // 10 + 1), (10, 252_000_000)):
            with pytest.raises(ResolutionError, match="exceed one block"):
                _check_block_size(n_paths, n_draws)

    @pytest.mark.parametrize("model, maturity", [("vasicek", 261.0), ("g2pp", 131.0)])
    def test_over_the_block_bound_refused_before_any_draw(self, monkeypatch, model,
                                                         maturity):
        # 256 paths x 65,772 steps, or x 33,012 steps of two factors: just
        # over 2**24 normals in the first block
        def no_draws(*args):
            raise AssertionError("normals drawn")

        monkeypatch.setattr(montecarlo, "normal_block", no_draws)
        params, state = (VAS, ShortRateState(r=0.05)) if model == "vasicek" else (
            G2, G2State(0.0, 0.0))
        config = SimConfig(n_paths=256)
        with pytest.raises(ResolutionError, match="exceed one block"):
            mc_zero_price(model, params, state, maturity, config,
                          curve=flat_curve(0.04, span=140.0, n_pillars=140))

    def test_vasicek_tiny_vol_is_deterministic(self):
        # started at its long-run level, every path stays there
        params = VasicekParams(a=1.7051, b=0.0937, sigma=1e-12)
        config = SimConfig(n_paths=4, step=1 / 252, seed=0)
        est = mc_zero_price("vasicek", params, ShortRateState(r=0.0937), 2.0, config)
        assert est.stderr < 1e-12
        assert est.value == pytest.approx(math.exp(-0.0937 * 2.0), rel=1e-12)

    def test_vasicek_needs_its_params_and_state_classes(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        with pytest.raises(TypeError, match="vasicek model needs VasicekParams"):
            mc_zero_price("vasicek", (1.7051, 0.0937, 0.0), ShortRateState(r=0.05), 2.0,
                          config)
        with pytest.raises(TypeError, match="needs a ShortRateState starting state"):
            mc_zero_price("vasicek", VAS, 0.05, 2.0, config)

    def test_vasicek_close_to_closed_form(self):
        config = SimConfig(n_paths=20_000, step=1 / 252, seed=4)
        est = mc_zero_price("vasicek", VAS, ShortRateState(r=0.05, t=0.0), 3.0, config)
        closed = vasicek_price(VAS, 0.05, 0.0, 3.0)
        assert abs(est.value - closed) < 3 * est.stderr
        assert est.stderr > 0

    def test_g2pp_tiny_vol_matches_closed_form(self):
        curve = flat_curve(0.04, span=10.0)
        params = G2Params(a=0.3, b=0.9, sigma=1e-9, eta=1e-9, rho=0.5)
        state = G2State(x=0.06, y=-0.02, t=0.5)
        config = SimConfig(n_paths=4, step=1 / 252, seed=0)
        est = mc_zero_price("g2pp", params, state, 3.5, config, curve=curve)
        closed = g2pp_price(params, curve, state, 3.5)
        assert est.value == pytest.approx(closed, rel=1e-6)

    def test_holee_tiny_vol_matches_closed_form(self):
        curve = flat_curve(0.03, span=10.0)
        params = HoLeeParams(sigma=1e-9)
        state = ShortRateState(r=0.045, t=0.25)
        config = SimConfig(n_paths=4, step=1 / 252, seed=0)
        est = mc_zero_price("holee", params, state, 4.0, config, curve=curve)
        closed = holee_price(params, curve, 0.045, 0.25, 4.0)
        assert est.value == pytest.approx(closed, rel=1e-6)

    def test_hullwhite_tiny_vol_matches_closed_form(self):
        curve = flat_curve(0.03, span=10.0)
        params = HullWhiteParams(a=0.4, sigma=1e-9)
        state = ShortRateState(r=0.01, t=0.0)
        config = SimConfig(n_paths=4, step=1 / 252, seed=0)
        est = mc_zero_price("hullwhite", params, state, 5.0, config, curve=curve)
        closed = hullwhite_price(params, curve, 0.01, 0.0, 5.0)
        assert est.value == pytest.approx(closed, rel=1e-6)

    def test_deterministic_under_seed(self):
        config = SimConfig(n_paths=5_000, step=1 / 252, seed=11)
        a = mc_zero_price("vasicek", VAS, ShortRateState(r=0.05), 2.0, config)
        b = mc_zero_price("vasicek", VAS, ShortRateState(r=0.05), 2.0, config)
        assert a == b
        c = mc_zero_price(
            "vasicek", VAS, ShortRateState(r=0.05), 2.0,
            SimConfig(n_paths=5_000, step=1 / 252, seed=12),
        )
        assert c.value != a.value

    def test_step_too_coarse(self):
        config = SimConfig(n_paths=100, step=0.25, seed=0)
        with pytest.raises(ResolutionError):
            mc_zero_price("vasicek", VAS, ShortRateState(r=0.05), 1.0, config)

    def test_maturity_must_follow_state_time(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        with pytest.raises(OrderingError):
            mc_zero_price("vasicek", VAS, ShortRateState(r=0.05, t=2.0), 1.0, config)

    def test_horizon_cap_enforced(self):
        # the horizon is the maturity less the state time: the grid stops at
        # the maturity, and a step must resolve that span in 50 steps
        params = VasicekParams(a=1.7051, b=0.0937, sigma=1e-12)
        config = SimConfig(n_paths=4, step=0.013, seed=0)  # 1.5 / 0.013 is no integer
        est = mc_zero_price("vasicek", params, ShortRateState(r=0.0937, t=0.5), 2.0, config)
        assert est.value == pytest.approx(math.exp(-0.0937 * 1.5), rel=1e-12)
        coarse = SimConfig(n_paths=4, step=0.031, seed=0)
        mc_zero_price("vasicek", params, ShortRateState(r=0.0937), 2.0, coarse)
        with pytest.raises(ResolutionError):
            mc_zero_price("vasicek", params, ShortRateState(r=0.0937, t=0.5), 2.0, coarse)

    def test_curve_required_for_curve_models(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        with pytest.raises(ValueError):
            mc_zero_price("g2pp", G2, G2State(0.0, 0.0, 0.0), 2.0, config)

    def test_single_path_rejected(self):
        # refused when the configuration is built, before any price starts
        with pytest.raises(ValueError, match="even path count of at least 4.*got 1"):
            SimConfig(n_paths=1, step=1 / 252, seed=0)

    @pytest.mark.parametrize("n_paths", [2, 3, 5])
    def test_odd_or_fewer_than_two_pairs_rejected(self, monkeypatch, n_paths):
        # a standard error needs two antithetic pairs; refused before any draw
        def no_draws(*args):
            raise AssertionError("normals drawn")

        monkeypatch.setattr(montecarlo, "normal_block", no_draws)
        with pytest.raises(ValueError, match=f"even path count of at least 4.*got {n_paths}"):
            SimConfig(n_paths=n_paths, step=1 / 252, seed=0)

    def test_estimate_and_stderr_come_from_pair_means(self, monkeypatch):
        kernel = montecarlo._trapezoid_discounts
        out = []

        def spy(*args):
            out.append(kernel(*args))
            return out[-1]

        monkeypatch.setattr(montecarlo, "_trapezoid_discounts", spy)
        config = SimConfig(n_paths=2_000, step=1 / 252, seed=3)
        est = mc_zero_price("vasicek", VAS, ShortRateState(r=0.05), 2.0, config)
        (discounts,) = out
        assert discounts.shape == (1_000, 2)
        # the mirror of a path takes -z, so its discount differs
        assert np.all(discounts[:, 0] != discounts[:, 1])
        pairs = (discounts[:, 0] + discounts[:, 1]) / 2
        assert est.n_paths == 2_000
        assert est.value == float(np.mean(pairs))
        assert est.stderr == float(np.std(pairs, ddof=1)) / math.sqrt(1_000)
        # a pair's two discounts are negatively correlated, so the 2,000
        # discounts taken as independent would report a wider standard error
        naive = float(np.std(discounts, ddof=1)) / math.sqrt(2_000)
        assert np.corrcoef(discounts[:, 0], discounts[:, 1])[0, 1] < 0
        assert est.stderr < naive

    def test_params_of_the_other_forward_curve_model_rejected(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        curve = flat_curve(0.04, span=30.0)
        state = ShortRateState(r=0.04, t=0.0)
        with pytest.raises(TypeError, match="holee model needs HoLeeParams"):
            mc_zero_price("holee", HullWhiteParams(a=0.5, sigma=0.01), state, 2.0, config, curve)
        with pytest.raises(TypeError, match="hullwhite model needs HullWhiteParams"):
            mc_zero_price("hullwhite", HoLeeParams(sigma=0.01), state, 2.0, config, curve)


# yearly pillars whose forward jumps by up to 6% at every pillar
JUMPY_FORWARDS = (0.02, 0.05, 0.03, 0.08, 0.02, 0.06, 0.04)
JUMPY_CURVE = DiscountCurve(tuple(
    (float(year), math.exp(-sum(JUMPY_FORWARDS[:year])))
    for year in range(1, len(JUMPY_FORWARDS) + 1)
))


def _convexity_integral(model, params, t0, T):
    """The exact integral over [t0, T] of sigma^2 B(t)^2 / 2, B(t) = t for
    Ho-Lee and (1 - exp(-a t)) / a for Hull-White."""
    if model == "holee":
        return params.sigma**2 * (T**3 - t0**3) / 6.0
    a = params.a

    def antiderivative(t):
        return (t + 2.0 * math.exp(-a * t) / a - math.exp(-2.0 * a * t) / (2.0 * a)) / a**2

    return 0.5 * params.sigma**2 * (antiderivative(T) - antiderivative(t0))


class TestForwardCurveShift:
    """Ho-Lee and Hull-White simulate x = r - f(0, t) - sigma^2 B(t)^2 / 2
    and absorb the rest in a deterministic factor.  The curve's forward is
    piecewise constant, so its integral must come from the curve's own log
    discounts: a trapezoid over the grid errs by up to h/2 times the jump
    at every pillar it crosses."""

    @pytest.mark.parametrize("model, params", [
        ("holee", HoLeeParams(sigma=0.02)),
        ("hullwhite", HullWhiteParams(a=0.4, sigma=0.015)),
    ])
    def test_shift_is_exact_on_a_curve_with_pillar_jumps(self, monkeypatch, model, params):
        x0s = []

        def no_stochastic_part(decay, drift, chol, x0, steps, seed, n_pairs):
            x0s.append(list(x0))
            return np.ones((n_pairs, 2))

        monkeypatch.setattr(montecarlo, "_trapezoid_discounts", no_stochastic_part)
        t0, T, step = 0.3, 6.85, 1 / 252
        state = ShortRateState(r=0.05, t=t0)
        est = mc_zero_price(model, params, state, T, SimConfig(n_paths=4, step=step),
                            curve=JUMPY_CURVE)
        # with every discount 1, the estimate is the deterministic factor
        want = (JUMPY_CURVE.log_discount(T) - JUMPY_CURVE.log_discount(t0)
                - _convexity_integral(model, params, t0, T))
        # the trapezoid of the convexity term c errs by at most
        # (T - t0) h^2 max|c''| / 12, and |c''| <= sigma^2 (Ho-Lee: c'' =
        # sigma^2; Hull-White: sigma^2 (e^{-2at} - a B e^{-at}), with
        # 0 <= a B <= 1); the rest is rounding in sums of size ~0.3
        h = (T - t0) / math.ceil((T - t0) / step)
        tol = (T - t0) * h**2 * params.sigma**2 / 12 + 1e-14
        assert abs(math.log(est.value) - want) <= tol
        loading = t0 if model == "holee" else -math.expm1(-params.a * t0) / params.a
        assert x0s == [[0.05 - (JUMPY_CURVE.forward(t0) + 0.5 * params.sigma**2 * loading**2)]]


class TestSynthPanel:
    def weekly(self, n):
        start = dt.date(2010, 1, 4)
        return [start + dt.timedelta(weeks=k) for k in range(n)]

    def test_vasicek_panel_shape_and_determinism(self):
        schedule = self.weekly(30)
        instruments = [("Z30", dt.date(2045, 1, 4))]
        p1 = synth_panel("vasicek", VAS, schedule, instruments, seed=3)
        p2 = synth_panel("vasicek", VAS, schedule, instruments, seed=3)
        assert p1.observations == p2.observations
        assert len(p1.observations) == 30
        assert all(0 < q <= 1 for _, quotes in p1.observations for q in quotes.values())

    def test_vasicek_prices_invert_to_simulated_states(self):
        schedule = self.weekly(20)
        instruments = [("Z", dt.date(2045, 1, 4))]
        panel = synth_panel("vasicek", VAS, schedule, instruments, seed=8)
        # re-simulate the same state path the generator used
        path = _synth_path(*record_steps("vasicek", VAS, panel.gaps), [VAS.b], 8)
        for k, (date, quotes) in enumerate(panel.observations):
            tau = panel.taus("Z")[k]
            r = _ref_vasicek_invert_state(VAS, quotes["Z"], 0.0, float(tau))
            assert r == pytest.approx(path[k][0], abs=1e-12)

    def test_g2pp_panel_requires_two_instruments_and_curve(self):
        schedule = self.weekly(10)
        curve = flat_curve(0.04, span=50.0)
        with pytest.raises(ValueError):
            synth_panel("g2pp", G2, schedule, [("A", dt.date(2045, 1, 4))], curve=curve)
        with pytest.raises(ValueError):
            synth_panel(
                "g2pp", G2, schedule,
                [("A", dt.date(2045, 1, 4)), ("B", dt.date(2050, 1, 4))],
            )

    def test_starting_state_is_the_first_observation(self):
        schedule = self.weekly(10)
        instruments = [("Z", dt.date(2045, 1, 4))]
        panel = synth_panel("vasicek", VAS, schedule, instruments,
                            state0=ShortRateState(r=0.03), seed=2)
        tau = panel.taus("Z")[0]
        assert panel.observations[0][1]["Z"] == vasicek_price(VAS, 0.03, 0.0, float(tau))
        with pytest.raises(TypeError, match="needs a ShortRateState starting state"):
            synth_panel("vasicek", VAS, schedule, instruments, state0=0.03)
        with pytest.raises(TypeError, match="needs a G2State starting state"):
            synth_panel("g2pp", G2, schedule,
                        [("A", dt.date(2045, 1, 4)), ("B", dt.date(2050, 1, 4))],
                        curve=flat_curve(0.04, span=50.0), state0=ShortRateState(r=0.03))

    def test_unordered_schedule_and_bad_rho_rejected(self):
        schedule = self.weekly(5)
        with pytest.raises(OrderingError):
            synth_panel("vasicek", VAS, schedule[::-1], [("Z", dt.date(2045, 1, 4))])
        with pytest.raises(ValueError, match="rho must lie in"):
            G2Params(a=0.2, b=0.5, sigma=0.1, eta=0.1, rho=1.5)

    def test_duplicate_maturities_rejected_at_generation(self):
        schedule = self.weekly(10)
        with pytest.raises(SingularInversionError):
            synth_panel(
                "vasicek", VAS, schedule,
                [("A", dt.date(2045, 1, 4)), ("B", dt.date(2045, 1, 4))],
            )

    def test_maturity_inside_schedule_rejected(self):
        schedule = self.weekly(10)
        with pytest.raises(OrderingError):
            synth_panel("vasicek", VAS, schedule, [("A", schedule[-1])])

    def test_irregular_gaps_supported(self):
        start = dt.date(2010, 1, 4)
        schedule = [start, start + dt.timedelta(days=3), start + dt.timedelta(days=40)]
        panel = synth_panel("vasicek", VAS, schedule, [("Z", dt.date(2030, 1, 4))], seed=1)
        assert len(panel.observations) == 3
