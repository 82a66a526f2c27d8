import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

import curveforge.estimation
from curveforge.curve import flat_curve
from curveforge.errors import (
    BoundaryError,
    CurveforgeError,
    DegenerateStepError,
    ExtrapolationError,
    OrderingError,
    PanelShapeError,
)
from curveforge.estimation import (
    _ML_MODELS,
    FitConfig,
    PricePanel,
    StateSeries,
    _loglik,
    _PanelData,
    _states,
    fit_ml,
    loglik_g2pp,
    loglik_vasicek,
)
from curveforge.models import MODELS
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    g2pp_price,
    g2pp_variance,
    vasicek_price,
)

VAS = VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)
G2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)

START = dt.date(2010, 1, 4)


def weekly_schedule(n):
    return [START + dt.timedelta(weeks=k) for k in range(n)]


def irregular_schedule(n, seed=0):
    rng = np.random.default_rng(seed)
    days = np.cumsum(rng.integers(2, 15, size=n))
    return [START + dt.timedelta(days=int(d)) for d in days]


@pytest.fixture(scope="module")
def vas_panel_weekly():
    return synth_panel(
        "vasicek", VAS, weekly_schedule(120), [("Z", dt.date(2044, 1, 4))], seed=6
    )


@pytest.fixture(scope="module")
def vas_panel_irregular():
    return synth_panel(
        "vasicek", VAS, irregular_schedule(90, seed=2), [("Z", dt.date(2044, 1, 4))],
        seed=6,
    )


@pytest.fixture(scope="module")
def steep_curve():
    return flat_curve(0.08, span=80.0)


@pytest.fixture(scope="module")
def g2_panel(steep_curve):
    instruments = [("L", dt.date(2041, 1, 4)), ("XL", dt.date(2051, 1, 4))]
    return synth_panel(
        "g2pp", G2, weekly_schedule(120), instruments, curve=steep_curve, seed=14
    )


# ---------------------------------------------------------------------------
# panel container
# ---------------------------------------------------------------------------


class TestPricePanel:
    def test_validation(self):
        mat = [("Z", dt.date(2020, 1, 1))]
        with pytest.raises(ValueError):
            PricePanel(observations=[], instruments=mat)
        with pytest.raises(OrderingError):
            PricePanel(
                observations=[
                    (dt.date(2010, 1, 8), {"Z": 0.5}),
                    (dt.date(2010, 1, 4), {"Z": 0.5}),
                ],
                instruments=mat,
            )
        with pytest.raises(ValueError):
            PricePanel(
                observations=[(dt.date(2010, 1, 4), {"Z": 1.5})], instruments=mat
            )
        with pytest.raises(OrderingError):
            PricePanel(
                observations=[(dt.date(2021, 1, 4), {"Z": 0.5})], instruments=mat
            )
        with pytest.raises(ValueError):
            PricePanel(
                observations=[(dt.date(2010, 1, 4), {"W": 0.5})], instruments=mat
            )

    def test_times_and_gaps(self):
        panel = PricePanel(
            observations=[
                (dt.date(2010, 1, 4), {"Z": 0.5}),
                (dt.date(2010, 1, 11), {"Z": 0.5}),
                (dt.date(2010, 1, 25), {"Z": 0.5}),
            ],
            instruments=[("Z", dt.date(2030, 1, 1))],
        )
        np.testing.assert_allclose(panel.times, [0.0, 7 / 365, 21 / 365])
        np.testing.assert_allclose(panel.gaps, [7 / 365, 14 / 365])

    def test_filter_negotiated(self):
        obs = [
            (dt.date(2010, 1, 4), {"Z": 0.5}),
            (dt.date(2010, 1, 11), {"Z": 0.51}),
            (dt.date(2010, 1, 18), {"Z": 0.52}),
        ]
        panel = PricePanel(
            observations=obs,
            instruments=[("Z", dt.date(2030, 1, 1))],
            negotiated=[True, False, True],
        )
        sub = panel.filter_negotiated()
        assert sub.dates == [dt.date(2010, 1, 4), dt.date(2010, 1, 18)]
        assert sub.negotiated is None
        plain = PricePanel(observations=obs, instruments=[("Z", dt.date(2030, 1, 1))])
        with pytest.raises(ValueError):
            plain.filter_negotiated()

    def test_flag_length_mismatch(self):
        with pytest.raises(ValueError):
            PricePanel(
                observations=[(dt.date(2010, 1, 4), {"Z": 0.5})],
                instruments=[("Z", dt.date(2030, 1, 1))],
                negotiated=[True, False],
            )


# ---------------------------------------------------------------------------
# one-factor likelihood against a scalar-loop reference
# ---------------------------------------------------------------------------


def scalar_loglik_vasicek(a, b, sigma, panel):
    """Slow date-by-date reference: invert, transition logpdf, Jacobian."""
    name = panel.instruments[0][0]
    taus = panel.taus(name)
    prices = panel.prices(name)
    times = panel.times
    rs = []
    for tau, p in zip(taus, prices):
        B = (1.0 - math.exp(-a * tau)) / a
        lnA = (b - sigma**2 / (2 * a * a)) * (B - tau) - sigma**2 * B * B / (4 * a)
        rs.append((lnA - math.log(p)) / B)
    ll = scalar_ou_density(a, b, sigma, times, rs)
    for k in range(1, len(rs)):
        B_k = (1.0 - math.exp(-a * taus[k])) / a
        ll -= math.log(B_k * prices[k])
    return ll


def scalar_ou_density(a, b, sigma, times, rs):
    """Sum of the exact transition log densities of the rates rs."""
    ll = 0.0
    for k in range(1, len(rs)):
        h = times[k] - times[k - 1]
        mean = rs[k - 1] * math.exp(-a * h) + b * (1 - math.exp(-a * h))
        var = sigma**2 * (1 - math.exp(-2 * a * h)) / (2 * a)
        ll += norm.logpdf(rs[k], loc=mean, scale=math.sqrt(var))
    return ll


def scaled_panel(panel, c):
    """The panel with every price multiplied by c."""
    return PricePanel(
        observations=[
            (d, {k: c * v for k, v in quotes.items()}) for d, quotes in panel.observations
        ],
        instruments=list(panel.instruments),
    )


class TestLoglikVasicek:
    def test_matches_scalar_reference_uniform(self, vas_panel_weekly):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.01, 0.2)
            s = rng.uniform(0.05, 0.8)
            got = loglik_vasicek(VasicekParams(a=a, b=b, sigma=s), vas_panel_weekly)
            want = scalar_loglik_vasicek(a, b, s, vas_panel_weekly)
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_scalar_reference_irregular(self, vas_panel_irregular):
        rng = np.random.default_rng(32)
        for _ in range(5):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.01, 0.2)
            s = rng.uniform(0.05, 0.8)
            got = loglik_vasicek(VasicekParams(a=a, b=b, sigma=s), vas_panel_irregular)
            want = scalar_loglik_vasicek(a, b, s, vas_panel_irregular)
            assert got == pytest.approx(want, rel=1e-10)

    def test_uniform_and_irregular_code_paths_agree(self, vas_panel_weekly):
        # weekly gaps, once through one shared transition and once gap by gap
        gaps = vas_panel_weekly.gaps
        data = _PanelData.of(vas_panel_weekly, 1)
        shared = np.zeros(gaps.size, dtype=int)
        fast_data = dataclasses.replace(data, gaps=gaps[:1], gap_index=shared)
        slow_data = dataclasses.replace(data, gaps=gaps, gap_index=np.arange(gaps.size))
        model = _ML_MODELS["vasicek"]
        fast, (r_fast,) = _loglik(model, VAS, fast_data)
        slow, (r_slow,) = _loglik(model, VAS, slow_data)
        assert fast == pytest.approx(slow, rel=1e-13)
        np.testing.assert_array_equal(r_fast, r_slow)

    def test_price_jacobian_matches_finite_difference(self):
        # the |dP/dr| = B * P factor inside the likelihood
        eps = 1e-7
        for r, tau in [(0.03, 2.0), (0.08, 10.0), (-0.01, 0.5)]:
            up = vasicek_price(VAS, r + eps, 0.0, tau)
            dn = vasicek_price(VAS, r - eps, 0.0, tau)
            fd = (up - dn) / (2 * eps)
            p = vasicek_price(VAS, r, 0.0, tau)
            B = (1 - math.exp(-VAS.a * tau)) / VAS.a
            assert abs(fd) == pytest.approx(B * p, rel=1e-6)

    def test_price_scale_shifts_by_log_scale_per_transition(self, vas_panel_weekly):
        # prices scaled by c lower each recovered rate by log(c) / B and the
        # log-Jacobian log(B P) of every transition by log(c)
        c = 0.5
        scaled = scaled_panel(vas_panel_weekly, c)
        name = vas_panel_weekly.instruments[0][0]
        B = -np.expm1(-VAS.a * vas_panel_weekly.taus(name)) / VAS.a
        model = _ML_MODELS["vasicek"]
        base, (r,) = _loglik(model, VAS, _PanelData.of(vas_panel_weekly, 1))
        shifted, (r_c,) = _loglik(model, VAS, _PanelData.of(scaled, 1))
        np.testing.assert_allclose(r_c - r, -math.log(c) / B, rtol=1e-9)
        times = vas_panel_weekly.times
        moved = (scalar_ou_density(VAS.a, VAS.b, VAS.sigma, times, r_c)
                 - scalar_ou_density(VAS.a, VAS.b, VAS.sigma, times, r))
        n_trans = len(times) - 1
        assert shifted - base == pytest.approx(moved - n_trans * math.log(c), rel=1e-9)
        assert loglik_vasicek(VAS, scaled) == shifted

    def test_recovered_states_match_simulation(self, vas_panel_weekly):
        from curveforge.montecarlo import _cholesky_rows, _synth_path

        (r,), _ = _states(
            _ML_MODELS["vasicek"], VAS, _PanelData.of(vas_panel_weekly, 1)
        )
        decay, drift, cov = MODELS["vasicek"].moments(VAS, vas_panel_weekly.gaps)
        path = _synth_path(decay, drift, _cholesky_rows(cov), [VAS.b], 6)
        np.testing.assert_allclose(r, np.array(path)[:, 0], atol=1e-10)

    def test_input_validation(self, vas_panel_weekly, g2_panel, steep_curve):
        with pytest.raises(ValueError):
            loglik_vasicek(VAS, g2_panel)  # two instruments
        single = PricePanel(
            observations=[vas_panel_weekly.observations[0]],
            instruments=list(vas_panel_weekly.instruments),
        )
        with pytest.raises(ValueError):
            loglik_vasicek(VAS, single)
        with pytest.raises(ValueError):
            loglik_g2pp(G2, steep_curve, vas_panel_weekly)  # one instrument

    def test_degenerate_variance_raises(self, vas_panel_weekly):
        with pytest.raises(DegenerateStepError):
            _loglik(
                _ML_MODELS["vasicek"],
                VasicekParams(a=1.0, b=0.05, sigma=1e-200),
                _PanelData.of(vas_panel_weekly, 1),
            )


# ---------------------------------------------------------------------------
# two-factor likelihood
# ---------------------------------------------------------------------------


def scalar_loglik_g2pp(params, curve, panel):
    """Date-by-date reference with explicit 2x2 solves and mvn logpdf."""
    (n1, _), (n2, _) = panel.instruments
    times = panel.times
    t1, t2 = panel.taus(n1), panel.taus(n2)
    p1, p2 = panel.prices(n1), panel.prices(n2)
    a, b, s, e, rho = params.a, params.b, params.sigma, params.eta, params.rho
    states = []
    for k in range(len(times)):
        rows = []
        rhs = []
        for tau, p in [(t1[k], p1[k]), (t2[k], p2[k])]:
            ba = (1 - math.exp(-a * tau)) / a
            bb = (1 - math.exp(-b * tau)) / b
            T = times[k] + tau
            market = float(curve.log_discount(T) - curve.log_discount(times[k]))
            adjust = 0.5 * float(
                g2pp_variance(params, times[k], T)
                - g2pp_variance(params, 0.0, T)
                + g2pp_variance(params, 0.0, times[k])
            )
            rows.append([ba, bb])
            rhs.append(market + adjust - math.log(p))
        states.append(np.linalg.solve(np.array(rows), np.array(rhs)))
    ll = 0.0
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        mean = np.array(
            [
                states[k - 1][0] * math.exp(-a * h),
                states[k - 1][1] * math.exp(-b * h),
            ]
        )
        v1 = s * s * (1 - math.exp(-2 * a * h)) / (2 * a)
        v2 = e * e * (1 - math.exp(-2 * b * h)) / (2 * b)
        c = rho * s * e * (1 - math.exp(-(a + b) * h)) / (a + b)
        ll += multivariate_normal.logpdf(
            states[k], mean=mean, cov=np.array([[v1, c], [c, v2]])
        )
        ba1 = (1 - math.exp(-a * t1[k])) / a
        ba2 = (1 - math.exp(-a * t2[k])) / a
        bb1 = (1 - math.exp(-b * t1[k])) / b
        bb2 = (1 - math.exp(-b * t2[k])) / b
        ll -= math.log(p1[k] * p2[k] * abs(ba1 * bb2 - ba2 * bb1))
    return ll


class TestLoglikG2pp:
    def test_matches_scalar_reference(self, g2_panel, steep_curve):
        # draws stay near the generating point so both implementations work
        # with likelihoods of sane magnitude (far-off parameters explode the
        # quadratic form and the comparison drowns in cancellation noise)
        rng = np.random.default_rng(77)
        for _ in range(5):
            params = G2Params(
                a=G2.a * rng.uniform(0.7, 1.4),
                b=G2.b * rng.uniform(0.7, 1.4),
                sigma=G2.sigma * rng.uniform(0.7, 1.4),
                eta=G2.eta * rng.uniform(0.7, 1.4),
                rho=rng.uniform(-0.99, -0.6),
            )
            got = loglik_g2pp(params, steep_curve, g2_panel)
            want = scalar_loglik_g2pp(params, steep_curve, g2_panel)
            assert got == pytest.approx(want, rel=1e-10)

    def test_instrument_order_invariance(self, g2_panel, steep_curve):
        swapped = PricePanel(
            observations=list(g2_panel.observations),
            instruments=list(reversed(g2_panel.instruments)),
        )
        assert loglik_g2pp(G2, steep_curve, g2_panel) == pytest.approx(
            loglik_g2pp(G2, steep_curve, swapped), rel=1e-12
        )

    def test_price_map_jacobian_matches_finite_difference(self, steep_curve):
        # |det d(P1,P2)/d(x,y)| = P1 P2 |Ba1 Bb2 - Ba2 Bb1|
        state = G2State(x=0.01, y=-0.02, t=0.5)
        tau1, tau2 = 3.0, 12.0
        eps = 1e-7

        def prices(x, y):
            s = G2State(x=x, y=y, t=state.t)
            return np.array(
                [
                    g2pp_price(G2, steep_curve, s, state.t + tau1),
                    g2pp_price(G2, steep_curve, s, state.t + tau2),
                ]
            )

        jac = np.column_stack(
            [
                (prices(state.x + eps, state.y) - prices(state.x - eps, state.y))
                / (2 * eps),
                (prices(state.x, state.y + eps) - prices(state.x, state.y - eps))
                / (2 * eps),
            ]
        )
        p1, p2 = prices(state.x, state.y)
        ba1 = (1 - math.exp(-G2.a * tau1)) / G2.a
        ba2 = (1 - math.exp(-G2.a * tau2)) / G2.a
        bb1 = (1 - math.exp(-G2.b * tau1)) / G2.b
        bb2 = (1 - math.exp(-G2.b * tau2)) / G2.b
        want = p1 * p2 * abs(ba1 * bb2 - ba2 * bb1)
        assert abs(np.linalg.det(jac)) == pytest.approx(want, rel=1e-6)

    def test_price_scale_shift(self, g2_panel, steep_curve):
        # prices scaled by c add -log(c) to both right-hand sides of each
        # date's 2x2 solve; the likelihood follows the date-by-date reference
        c = 0.25
        scaled = scaled_panel(g2_panel, c)
        (n1, _), (n2, _) = g2_panel.instruments
        ba1, ba2 = (-np.expm1(-G2.a * g2_panel.taus(n)) / G2.a for n in (n1, n2))
        bb1, bb2 = (-np.expm1(-G2.b * g2_panel.taus(n)) / G2.b for n in (n1, n2))
        det = ba1 * bb2 - ba2 * bb1
        model = _ML_MODELS["g2pp"]
        (x, y), _ = _states(model, G2, _PanelData.of(g2_panel, 2, steep_curve))
        (x_c, y_c), _ = _states(model, G2, _PanelData.of(scaled, 2, steep_curve))
        np.testing.assert_allclose(x_c - x, -math.log(c) * (bb2 - bb1) / det, rtol=1e-8)
        np.testing.assert_allclose(y_c - y, -math.log(c) * (ba1 - ba2) / det, rtol=1e-8)
        shifted = loglik_g2pp(G2, steep_curve, scaled)
        assert shifted == pytest.approx(
            scalar_loglik_g2pp(G2, steep_curve, scaled), rel=1e-10)

    def test_correlation_at_unity_rejected(self, g2_panel, steep_curve):
        bad = G2Params(a=0.13, b=0.3526, sigma=0.2, eta=0.4, rho=1.0)
        with pytest.raises(BoundaryError):
            loglik_g2pp(bad, steep_curve, g2_panel)

    def test_truth_beats_perturbations(self, g2_panel, steep_curve):
        ll_true = loglik_g2pp(G2, steep_curve, g2_panel)
        perturbed = [
            G2Params(a=G2.a * 1.6, b=G2.b, sigma=G2.sigma, eta=G2.eta, rho=G2.rho),
            G2Params(a=G2.a, b=G2.b * 1.6, sigma=G2.sigma, eta=G2.eta, rho=G2.rho),
            G2Params(a=G2.a, b=G2.b, sigma=G2.sigma * 1.4, eta=G2.eta, rho=G2.rho),
            G2Params(a=G2.a, b=G2.b, sigma=G2.sigma, eta=G2.eta * 1.4, rho=G2.rho),
            G2Params(a=G2.a, b=G2.b, sigma=G2.sigma, eta=G2.eta, rho=-0.5),
        ]
        for params in perturbed:
            assert ll_true > loglik_g2pp(params, steep_curve, g2_panel)


# ---------------------------------------------------------------------------
# maximum-likelihood driver
# ---------------------------------------------------------------------------


class TestFitMl:
    def test_vasicek_recovery_smoke(self):
        # A panel of one long bond identifies the long-run yield
        # b - sigma^2/(2 a^2) and the loading-scaled volatility sigma/a
        # sharply; a itself (and sigma through it) only carries the slow
        # AR(1) information of the latent rate, so those get loose bounds.
        panel = synth_panel(
            "vasicek", VAS, weekly_schedule(600), [("Z", dt.date(2030, 1, 4))],
            seed=123,
        )
        fit = fit_ml("vasicek", panel, config=FitConfig(restarts=4, seed=0))
        # the maximizer must dominate the generating parameters on this data
        assert fit.loglik >= loglik_vasicek(VAS, panel) - 1e-6
        assert fit.params.b == pytest.approx(VAS.b, rel=0.10)
        assert fit.params.sigma / fit.params.a == pytest.approx(
            VAS.sigma / VAS.a, rel=0.05
        )
        y_inf = fit.params.b - fit.params.sigma**2 / (2 * fit.params.a**2)
        assert y_inf == pytest.approx(
            VAS.b - VAS.sigma**2 / (2 * VAS.a**2), abs=0.01
        )
        assert fit.params.a == pytest.approx(VAS.a, rel=0.6)
        assert fit.params.sigma == pytest.approx(VAS.sigma, rel=0.6)
        assert fit.report.converged
        assert not fit.report.boundary
        assert fit.states.values.shape == (600,)
        assert len(fit.report.restart_logliks) == 4

    def test_two_bond_panel_fit_smoke(self, steep_curve):
        # weekly panel of 200 points on 12- and 20-year bonds
        instruments = [("B12", dt.date(2022, 1, 4)), ("B20", dt.date(2030, 1, 4))]
        panel = synth_panel(
            "g2pp", G2, weekly_schedule(200), instruments,
            curve=steep_curve, seed=5,
        )
        fit = fit_ml(
            "g2pp", panel, curve=steep_curve, config=FitConfig(restarts=2, seed=0)
        )
        assert math.isfinite(fit.loglik)
        assert -1.0 < fit.params.rho < 1.0

    def test_g2pp_fit_smoke(self, g2_panel, steep_curve):
        fit = fit_ml(
            "g2pp", g2_panel, curve=steep_curve, config=FitConfig(restarts=2, seed=1)
        )
        assert fit.loglik >= loglik_g2pp(G2, steep_curve, g2_panel) - 1e-6
        assert fit.states.values.shape == (len(g2_panel.observations), 2)
        assert -1.0 < fit.params.rho < 1.0

    def test_constant_state_panel_hits_boundary(self):
        dates = weekly_schedule(40)
        mat = dt.date(2050, 1, 4)
        obs = []
        for d in dates:
            tau = (mat - d).days / 365.0
            obs.append((d, {"Z": vasicek_price(VAS, 0.05, 0.0, tau)}))
        panel = PricePanel(observations=obs, instruments=[("Z", mat)])
        fit = fit_ml("vasicek", panel, config=FitConfig(restarts=2, seed=0))
        assert fit.report.boundary

    def test_unknown_model_and_missing_curve(self, vas_panel_weekly, g2_panel):
        with pytest.raises(ValueError):
            fit_ml("cir", vas_panel_weekly)
        with pytest.raises(ValueError):
            fit_ml("g2pp", g2_panel)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            FitConfig(restarts=0)

    def test_instrument_count_must_match_the_factor_count(
        self, vas_panel_weekly, g2_panel, steep_curve
    ):
        two = synth_panel(
            "vasicek", VAS, weekly_schedule(30),
            [("Z1", dt.date(2044, 1, 4)), ("Z2", dt.date(2054, 1, 4))], seed=6,
        )
        three = PricePanel(
            observations=[(d, {**q, "XXL": 0.9 * q["XL"]}) for d, q in g2_panel.observations],
            instruments=g2_panel.instruments + [("XXL", dt.date(2061, 1, 4))],
        )
        calls = [
            (lambda: fit_ml("vasicek", two), "exactly 1 instrument(s), got 2"),
            (lambda: loglik_vasicek(VAS, two), "exactly 1 instrument(s), got 2"),
            (lambda: fit_ml("g2pp", three, curve=steep_curve), "exactly 2 instrument(s), got 3"),
            (lambda: loglik_g2pp(G2, steep_curve, three), "exactly 2 instrument(s), got 3"),
            (lambda: fit_ml("g2pp", vas_panel_weekly, curve=steep_curve),
             "exactly 2 instrument(s), got 1"),
        ]
        for call, text in calls:
            with pytest.raises(PanelShapeError) as info:
                call()
            assert isinstance(info.value, CurveforgeError)
            assert isinstance(info.value, ValueError)
            assert text in str(info.value)

    def test_states_series_carries_dates(self, vas_panel_weekly):
        fit = fit_ml("vasicek", vas_panel_weekly, config=FitConfig(restarts=1))
        assert fit.states.dates == vas_panel_weekly.dates
        assert isinstance(fit.states, StateSeries)

    def test_curve_shorter_than_the_panel_fails_before_any_restart(
        self, g2_panel, monkeypatch
    ):
        # the panel's bonds mature about 31 and 41 years out
        def no_restart(*args, **kwargs):
            raise AssertionError("fit_ml started a restart")

        monkeypatch.setattr(curveforge.estimation, "minimize", no_restart)
        short = flat_curve(0.08, span=25.0)
        with pytest.raises(ExtrapolationError, match="beyond curve span 25"):
            fit_ml("g2pp", g2_panel, curve=short)
        with pytest.raises(ExtrapolationError, match="beyond curve span 25"):
            loglik_g2pp(G2, short, g2_panel)
        # a one-factor fit does not read the curve, so a short one is harmless
        monkeypatch.undo()
        vas = synth_panel(
            "vasicek", VAS, weekly_schedule(30), [("Z", dt.date(2044, 1, 4))], seed=6
        )
        fit = fit_ml("vasicek", vas, curve=short, config=FitConfig(restarts=1))
        assert math.isfinite(fit.loglik)
