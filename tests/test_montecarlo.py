import datetime as dt
import math

import numpy as np
import pytest

from curveforge.curve import flat_curve
from curveforge.errors import (
    OrderingError,
    ResolutionError,
    SingularInversionError,
)
from curveforge.hjm import HoLeeParams, HullWhiteParams, ShortRateState, holee_price, hullwhite_price
from curveforge import montecarlo
from curveforge.montecarlo import (
    _MAX_BLOCK_ELEMENTS,
    McEstimate,
    SimConfig,
    mc_zero_price,
    simulate_correlated_ou,
    simulate_g2,
    _check_block_size,
    simulate_ou,
    synth_panel,
)
from curveforge.rng import normal_block, path_generator, standard_normals
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    g2pp_price,
    g2pp_transition,
    vasicek_price,
    vasicek_transition,
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
            SimConfig(n_paths=10, step=2.0, seed=0, horizon=1.0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, step=0.01, seed=-1)
        cfg = SimConfig(n_paths=1, step=0.5, seed=0, horizon=0.5)
        assert cfg.n_paths == 1


class TestSimulateOu:
    def test_sigma_zero_fixed_point(self):
        grid = np.linspace(0.0, 2.0, 9)
        path = simulate_ou(1.5, 0.07, 0.0, 0.07, grid, path_generator(0))
        np.testing.assert_allclose(path, 0.07, rtol=0, atol=1e-16)

    def test_sigma_zero_mean_curve(self):
        grid = np.array([0.0, 0.5, 1.0, 3.0])
        path = simulate_ou(0.8, 0.05, 0.0, 0.11, grid, path_generator(0))
        expected = 0.05 + (0.11 - 0.05) * np.exp(-0.8 * grid)
        np.testing.assert_allclose(path, expected, rtol=1e-12)

    def test_horizon_moments_match_transition(self):
        # multi-step exact sampling composes to the single-step transition law
        horizon, n_paths = 0.75, 20_000
        grid = np.linspace(0.0, horizon, 33)
        vals = np.empty(n_paths)
        for i in range(n_paths):
            vals[i] = simulate_ou(
                VAS.a, VAS.b, VAS.sigma, 0.05, grid, path_generator(77, i)
            )[-1]
        mean, var = vasicek_transition(VAS, 0.05, horizon)
        assert abs(vals.mean() - mean) < 4 * vals.std(ddof=1) / math.sqrt(n_paths)
        se_var = vals.var(ddof=1) * math.sqrt(2.0 / (n_paths - 1))
        assert abs(vals.var(ddof=1) - var) < 4 * se_var

    def test_one_step_vs_two_halves_in_distribution(self):
        n_paths, h = 30_000, 0.6
        one = np.empty(n_paths)
        two = np.empty(n_paths)
        for i in range(n_paths):
            one[i] = simulate_ou(
                VAS.a, VAS.b, VAS.sigma, 0.02, np.array([0.0, h]),
                path_generator(5, i),
            )[-1]
            two[i] = simulate_ou(
                VAS.a, VAS.b, VAS.sigma, 0.02, np.array([0.0, h / 2, h]),
                path_generator(1005, i),
            )[-1]
        se = math.hypot(one.std(ddof=1), two.std(ddof=1)) / math.sqrt(n_paths)
        assert abs(one.mean() - two.mean()) < 4 * se
        se_var = one.var(ddof=1) * 2 * math.sqrt(2.0 / (n_paths - 1))
        assert abs(one.var(ddof=1) - two.var(ddof=1)) < 4 * se_var

    def test_seeded_path_is_byte_identical(self):
        grid = np.linspace(0.0, 1.0, 53)
        p1 = simulate_ou(1.0, 0.05, 0.2, 0.03, grid, path_generator(42))
        p2 = simulate_ou(1.0, 0.05, 0.2, 0.03, grid, path_generator(42))
        assert p1.tobytes() == p2.tobytes()

    def test_grid_validation(self):
        rng = path_generator(0)
        with pytest.raises(OrderingError):
            simulate_ou(1.0, 0.05, 0.1, 0.03, np.array([0.5, 1.0]), rng)
        with pytest.raises(OrderingError):
            simulate_ou(1.0, 0.05, 0.1, 0.03, np.array([0.0, 1.0, 0.5]), rng)
        with pytest.raises(ValueError):
            simulate_ou(-1.0, 0.05, 0.1, 0.03, np.array([0.0, 1.0]), rng)


class TestSimulateG2:
    def test_eta_zero_decays_deterministically(self):
        grid = np.array([0.0, 0.4, 1.3, 2.0])
        xs, ys = simulate_correlated_ou(
            0.2, 0.5, 0.1, 0.0, 0.0, 0.05, -0.08, grid, path_generator(1)
        )
        np.testing.assert_allclose(ys, -0.08 * np.exp(-0.5 * grid), rtol=1e-12)
        assert np.std(xs) > 0  # the x factor still diffuses

    def test_horizon_covariance_matches_transition(self):
        horizon, n_paths = 0.5, 20_000
        grid = np.linspace(0.0, horizon, 17)
        xs = np.empty(n_paths)
        ys = np.empty(n_paths)
        for i in range(n_paths):
            px, py = simulate_g2(G2, G2State(0.0, 0.0, 0.0), grid, path_generator(21, i))
            xs[i], ys[i] = px[-1], py[-1]
        _, cov = g2pp_transition(G2, G2State(0.0, 0.0, 0.0), horizon)
        assert abs(xs.mean()) < 4 * xs.std(ddof=1) / math.sqrt(n_paths)
        assert abs(ys.mean()) < 4 * ys.std(ddof=1) / math.sqrt(n_paths)
        sample = np.cov(np.vstack([xs, ys]), ddof=1)
        assert sample[0, 0] == pytest.approx(cov[0, 0], rel=0.05)
        assert sample[1, 1] == pytest.approx(cov[1, 1], rel=0.05)
        assert sample[0, 1] == pytest.approx(cov[0, 1], rel=0.05)

    def test_rho_zero_paths_uncorrelated(self):
        params = G2Params(a=0.3, b=0.7, sigma=0.2, eta=0.3, rho=0.0)
        n_paths = 8_000
        grid = np.array([0.0, 1.0])
        xs = np.empty(n_paths)
        ys = np.empty(n_paths)
        for i in range(n_paths):
            px, py = simulate_g2(
                params, G2State(0.0, 0.0, 0.0), grid, path_generator(9, i)
            )
            xs[i], ys[i] = px[-1], py[-1]
        c = np.corrcoef(xs, ys)[0, 1]
        assert abs(c) < 4 / math.sqrt(n_paths)

    def test_rho_bounds_checked(self):
        with pytest.raises(ValueError):
            simulate_correlated_ou(
                0.2, 0.5, 0.1, 0.1, 1.5, 0.0, 0.0, np.array([0.0, 1.0]),
                path_generator(0),
            )


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
        config = SimConfig(n_paths=256, horizon=maturity)
        with pytest.raises(ResolutionError, match="exceed one block"):
            mc_zero_price(model, params, state, maturity, config,
                          curve=flat_curve(0.04, span=140.0, n_pillars=140))

    def test_sigma_zero_vasicek_is_deterministic(self):
        # degenerate volatility via the raw-triple escape hatch
        config = SimConfig(n_paths=2, step=1 / 252, seed=0, horizon=2.0)
        est = mc_zero_price("vasicek", (1.7051, 0.0937, 0.0), 0.0937, 2.0, config)
        assert est.stderr == 0.0
        assert est.value == pytest.approx(math.exp(-0.0937 * 2.0), rel=1e-12)

    def test_vasicek_close_to_closed_form(self):
        config = SimConfig(n_paths=20_000, step=1 / 252, seed=4, horizon=3.0)
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
        a = mc_zero_price("vasicek", VAS, 0.05, 2.0, config)
        b = mc_zero_price("vasicek", VAS, 0.05, 2.0, config)
        assert a == b
        c = mc_zero_price(
            "vasicek", VAS, 0.05, 2.0, SimConfig(n_paths=5_000, step=1 / 252, seed=12)
        )
        assert c.value != a.value

    def test_step_too_coarse(self):
        config = SimConfig(n_paths=100, step=0.25, seed=0)
        with pytest.raises(ResolutionError):
            mc_zero_price("vasicek", VAS, 0.05, 1.0, config)

    def test_maturity_must_follow_state_time(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        with pytest.raises(OrderingError):
            mc_zero_price("vasicek", VAS, ShortRateState(r=0.05, t=2.0), 1.0, config)

    def test_horizon_cap_enforced(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0, horizon=1.0)
        with pytest.raises(OrderingError):
            mc_zero_price("vasicek", VAS, 0.05, 2.0, config)

    def test_curve_required_for_curve_models(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        with pytest.raises(ValueError):
            mc_zero_price("g2pp", G2, G2State(0.0, 0.0, 0.0), 2.0, config)

    def test_single_path_rejected(self):
        config = SimConfig(n_paths=1, step=1 / 252, seed=0)
        with pytest.raises(ValueError):
            mc_zero_price("vasicek", VAS, 0.05, 2.0, config)

    def test_params_of_the_other_forward_curve_model_rejected(self):
        config = SimConfig(n_paths=100, step=1 / 252, seed=0)
        curve = flat_curve(0.04, span=30.0)
        state = ShortRateState(r=0.04, t=0.0)
        with pytest.raises(TypeError, match="holee model needs HoLeeParams"):
            mc_zero_price("holee", HullWhiteParams(a=0.5, sigma=0.01), state, 2.0, config, curve)
        with pytest.raises(TypeError, match="hullwhite model needs HullWhiteParams"):
            mc_zero_price("hullwhite", HoLeeParams(sigma=0.01), state, 2.0, config, curve)


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
        from curveforge.shortrate import vasicek_invert_state

        schedule = self.weekly(20)
        instruments = [("Z", dt.date(2045, 1, 4))]
        panel = synth_panel("vasicek", VAS, schedule, instruments, seed=8)
        # re-simulate the same state path the generator used
        grid = panel.times
        path = simulate_ou(VAS.a, VAS.b, VAS.sigma, VAS.b, grid, path_generator(8, 0))
        for k, (date, quotes) in enumerate(panel.observations):
            tau = panel.taus("Z")[k]
            r = vasicek_invert_state(VAS, quotes["Z"], 0.0, float(tau))
            assert r == pytest.approx(float(path[k]), abs=1e-12)

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
