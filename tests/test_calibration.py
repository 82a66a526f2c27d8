import datetime as dt
import math

import numpy as np
import pytest
from click.testing import CliRunner

from curveforge import fileio
from curveforge.calibration import (
    SIGMA_BOUNDS,
    CalibrationRecord,
    CalibrationSeries,
    CrossSection,
    calibrate,
    calibrate_series,
    ls_objective,
)
from curveforge.curve import flat_curve
from curveforge.daycount import year_fraction
from curveforge.diagnostics import MATURITY_GRID
from curveforge.errors import (
    AmbiguityError,
    ExtrapolationError,
    OptimizationError,
    OrderingError,
)
from curveforge.hjm import HoLeeParams, HullWhiteParams, holee_price, hullwhite_price

HL_SIGMA = 0.3071
HW_A, HW_SIGMA = 0.0813, 0.0215

ASOF0 = dt.date(2013, 1, 7)


@pytest.fixture(scope="module")
def curve():
    return flat_curve(0.04, span=40.0, asof=ASOF0)


def model_price(model, params, curve, r, t, tau):
    if model == "holee":
        return holee_price(params, curve, r, t, t + tau)
    return hullwhite_price(params, curve, r, t, t + tau)


def make_section(model, params, curve, asof, r, taus):
    """Quotes generated exactly from the model, explicit short rate."""
    t = year_fraction(curve.asof, asof)
    quotes = [(tau, model_price(model, params, curve, r, t, tau)) for tau in taus]
    return CrossSection(asof=asof, quotes=quotes, curve=curve, short_rate=r)


class TestCrossSection:
    def test_validation(self, curve):
        with pytest.raises(ValueError):
            CrossSection(asof=ASOF0, quotes=[], curve=curve)
        with pytest.raises(OrderingError):
            CrossSection(asof=ASOF0, quotes=[(-1.0, 0.9)], curve=curve)
        with pytest.raises(AmbiguityError):
            CrossSection(
                asof=ASOF0, quotes=[(2.0, 0.9), (2.0, 0.91)], curve=curve
            )
        with pytest.raises(ValueError):
            CrossSection(asof=ASOF0, quotes=[(2.0, -0.5)], curve=curve)

    @pytest.mark.parametrize("quote", [(math.nan, 0.9), (2.0, math.nan), (2.0, math.inf)])
    def test_non_finite_quote_rejected(self, curve, quote):
        # a non-finite quote would make every objective NaN or inf
        with pytest.raises((OrderingError, ValueError)):
            CrossSection(asof=ASOF0, quotes=[(1.0, 0.96), quote], curve=curve)

    def test_quotes_sorted(self, curve):
        xs = CrossSection(
            asof=ASOF0, quotes=[(5.0, 0.8), (1.0, 0.96)], curve=curve,
            short_rate=0.04,
        )
        assert [tau for tau, _ in xs.quotes] == [1.0, 5.0]

    def test_offset_from_curve_date(self, curve):
        xs = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=[(1.0, 0.96)], curve=curve,
            short_rate=0.04,
        )
        assert xs.t == pytest.approx(181 / 365)
        anonymous = flat_curve(0.04, span=40.0)
        xs0 = CrossSection(
            asof=ASOF0, quotes=[(1.0, 0.96)], curve=anonymous, short_rate=0.04
        )
        assert xs0.t == 0.0

    def test_short_rate_proxy_interpolates_quarter_tenor(self, curve):
        # quotes straddling the 0.25y tenor: proxy is the log-interpolated
        # zero yield at exactly 0.25
        y = 0.05
        quotes = [(tau, math.exp(-y * tau)) for tau in (1 / 12, 0.5, 2.0)]
        xs = CrossSection(asof=ASOF0, quotes=quotes, curve=curve)
        assert xs.short_rate == pytest.approx(y, rel=1e-12)

    def test_short_rate_proxy_falls_back_to_shortest_quote(self, curve):
        quotes = [(2.0, math.exp(-0.06 * 2.0)), (5.0, math.exp(-0.055 * 5.0))]
        xs = CrossSection(asof=ASOF0, quotes=quotes, curve=curve)
        assert xs.short_rate == pytest.approx(0.06, rel=1e-12)

    def test_explicit_short_rate_wins(self, curve):
        xs = CrossSection(
            asof=ASOF0, quotes=[(1.0, 0.9)], curve=curve, short_rate=0.123
        )
        assert xs.short_rate == 0.123


class TestLsObjective:
    def test_self_consistency_zero_holee(self, curve):
        xs = make_section(
            "holee", HoLeeParams(sigma=HL_SIGMA), curve,
            dt.date(2013, 7, 7), 0.05, MATURITY_GRID,
        )
        assert ls_objective("holee", HoLeeParams(sigma=HL_SIGMA), xs) <= 1e-18

    def test_self_consistency_zero_hullwhite(self, curve):
        params = HullWhiteParams(a=HW_A, sigma=HW_SIGMA)
        xs = make_section(
            "hullwhite", params, curve, dt.date(2013, 7, 7), 0.06, MATURITY_GRID
        )
        assert ls_objective("hullwhite", params, xs) <= 1e-18

    def test_positive_away_from_truth(self, curve):
        xs = make_section(
            "holee", HoLeeParams(sigma=HL_SIGMA), curve,
            dt.date(2013, 7, 7), 0.05, MATURITY_GRID,
        )
        assert ls_objective("holee", HoLeeParams(sigma=0.2), xs) > 0

    def test_single_quote_holee(self, curve):
        xs = make_section(
            "holee", HoLeeParams(sigma=0.1), curve, dt.date(2013, 7, 7),
            0.05, (5.0,),
        )
        assert ls_objective("holee", HoLeeParams(sigma=0.1), xs) <= 1e-18
        assert ls_objective("holee", HoLeeParams(sigma=0.3), xs) > 0

    def test_same_day_as_curve_unidentified(self, curve):
        xs = CrossSection(
            asof=ASOF0, quotes=[(1.0, 0.96)], curve=curve, short_rate=0.04
        )
        with pytest.raises(OrderingError):
            ls_objective("holee", HoLeeParams(sigma=0.1), xs)

    def test_permutation_invariance(self, curve):
        params = HullWhiteParams(a=HW_A, sigma=HW_SIGMA)
        t = year_fraction(curve.asof, dt.date(2013, 7, 7))
        quotes = [
            (tau, model_price("hullwhite", params, curve, 0.05, t, tau))
            for tau in (1.0, 3.0, 7.0, 20.0)
        ]
        a = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=quotes, curve=curve, short_rate=0.05
        )
        b = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=quotes[::-1], curve=curve,
            short_rate=0.05,
        )
        probe = HullWhiteParams(a=0.3, sigma=0.1)
        assert ls_objective("hullwhite", probe, a) == ls_objective(
            "hullwhite", probe, b
        )

    def test_maturity_beyond_curve_span(self, curve):
        xs = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=[(45.0, 0.2)], curve=curve,
            short_rate=0.04,
        )
        with pytest.raises(ExtrapolationError):
            ls_objective("holee", HoLeeParams(sigma=0.1), xs)

    def test_weighting_options(self, curve):
        # one weighting is left: each quote weighs 1/I, whatever its maturity
        xs = make_section(
            "holee", HoLeeParams(sigma=0.1), curve, dt.date(2013, 7, 7),
            0.05, (1.0, 5.0, 10.0),
        )
        probe = HoLeeParams(sigma=0.25)
        plain = ls_objective("holee", probe, xs)
        alone = [
            ls_objective("holee", probe, CrossSection(
                asof=xs.asof, quotes=[quote], curve=curve, short_rate=xs.short_rate,
            ))
            for quote in xs.quotes
        ]
        assert plain == pytest.approx(sum(alone) / len(alone), rel=1e-14)
        with pytest.raises(TypeError):
            ls_objective("holee", probe, xs, weights="maturity")

    def test_unknown_model(self, curve):
        xs = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=[(1.0, 0.96)], curve=curve,
            short_rate=0.04,
        )
        with pytest.raises(ValueError):
            ls_objective("vasicek", HoLeeParams(sigma=0.1), xs)


class TestCalibrate:
    def test_holee_recovery(self, curve):
        xs = make_section(
            "holee", HoLeeParams(sigma=HL_SIGMA), curve,
            dt.date(2013, 7, 7), 0.05, MATURITY_GRID,
        )
        result = calibrate("holee", xs)
        assert result.converged
        assert abs(result.params.sigma - HL_SIGMA) < 1e-5
        assert result.objective < 1e-16

    @pytest.mark.parametrize("sigma, taus, bound", [
        (1e-7, MATURITY_GRID, 0),
        (2.5, (0.5, 1.0, 2.0, 3.0), 1),
    ])
    def test_holee_on_a_sigma_bound_is_not_converged(self, curve, sigma, taus, bound):
        # the generating sigma lies outside SIGMA_BOUNDS, so the search
        # stops at the nearer end, no better than that end itself
        xs = make_section(
            "holee", HoLeeParams(sigma=sigma), curve, dt.date(2013, 7, 7), 0.05, taus
        )
        result = calibrate("holee", xs)
        assert result.params.sigma == pytest.approx(SIGMA_BOUNDS[bound], rel=1e-8)
        assert not result.converged
        at_bound = HoLeeParams(sigma=SIGMA_BOUNDS[bound])
        assert result.objective <= ls_objective("holee", at_bound, xs)

    def test_holee_underflow_plateau_at_upper_bound_is_searched(self, curve):
        # one long quote priced ~1e-30: at sigma = 2 the model price
        # underflows to 0, so the objective sits on its plateau p^2 there
        # with a slope of exactly 0; the search must still find the
        # interior sigma
        sigma = 0.24
        xs = make_section(
            "holee", HoLeeParams(sigma=sigma), curve, dt.date(2016, 9, 30), 0.05,
            (25.0,),
        )
        (_, price), = xs.quotes
        assert 1e-31 < price < 1e-29
        at_upper = ls_objective("holee", HoLeeParams(sigma=SIGMA_BOUNDS[1]), xs)
        assert at_upper == price**2
        result = calibrate("holee", xs)
        assert result.converged
        assert result.params.sigma == pytest.approx(sigma, rel=1e-9)
        assert result.objective < at_upper

    def test_hullwhite_recovery(self, curve):
        # short rate off the curve level so the reversion speed has leverage
        params = HullWhiteParams(a=HW_A, sigma=HW_SIGMA)
        taus = (1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0)
        xs = make_section(
            "hullwhite", params, curve, dt.date(2013, 7, 7), 0.06, taus
        )
        result = calibrate("hullwhite", xs)
        assert result.converged
        assert abs(result.params.a - HW_A) < 1e-4
        assert abs(result.params.sigma - HW_SIGMA) < 1e-4
        assert result.objective < 1e-16

    def test_hullwhite_needs_two_quotes(self, curve):
        xs = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=[(5.0, 0.8)], curve=curve,
            short_rate=0.04,
        )
        with pytest.raises(ValueError):
            calibrate("hullwhite", xs)

    def test_holee_single_quote_ok(self, curve):
        xs = make_section(
            "holee", HoLeeParams(sigma=0.2), curve, dt.date(2013, 7, 7),
            0.05, (8.0,),
        )
        result = calibrate("holee", xs)
        assert result.objective < 1e-16

    def test_small_reversion_collapses_to_constant_vol(self, curve):
        # data from a nearly undamped model: both calibrations see the
        # same volatility
        gen = HullWhiteParams(a=1e-4, sigma=HW_SIGMA)
        xs = make_section(
            "hullwhite", gen, curve, dt.date(2013, 7, 7), 0.05, MATURITY_GRID
        )
        sigma_hw = calibrate("hullwhite", xs).params.sigma
        sigma_hl = calibrate("holee", xs).params.sigma
        assert abs(sigma_hw - sigma_hl) / sigma_hl < 1e-2

    def test_proxy_short_rate_recovery_is_approximate(self, curve):
        # without an explicit short rate the 0.25y-yield proxy carries a
        # convexity bias, so recovery is close but not exact
        params = HoLeeParams(sigma=HL_SIGMA)
        t = year_fraction(curve.asof, dt.date(2013, 7, 7))
        r = 0.04
        quotes = [
            (tau, model_price("holee", params, curve, r, t, tau))
            for tau in MATURITY_GRID
        ]
        xs = CrossSection(asof=dt.date(2013, 7, 7), quotes=quotes, curve=curve)
        assert xs.short_rate != pytest.approx(r, abs=1e-6)
        result = calibrate("holee", xs)
        assert result.params.sigma == pytest.approx(HL_SIGMA, rel=0.05)
        assert result.params.sigma != pytest.approx(HL_SIGMA, rel=1e-6)

    def test_unknown_model(self, curve):
        xs = CrossSection(
            asof=dt.date(2013, 7, 7), quotes=[(1.0, 0.96)], curve=curve,
            short_rate=0.04,
        )
        with pytest.raises(ValueError):
            calibrate("g2pp", xs)


class TestCalibrateSeries:
    def test_summary_arithmetic(self):
        records = [
            CalibrationRecord(
                asof=dt.date(2013, 1, 7) + dt.timedelta(weeks=k),
                params=HoLeeParams(sigma=s),
                objective=0.0,
                converged=True,
            )
            for k, s in enumerate((0.01, 0.02, 0.03))
        ]
        series = CalibrationSeries(records=records)
        mean, sd = series.summary["sigma"]
        assert mean == pytest.approx(0.02)
        assert sd == pytest.approx(0.01)

    def test_single_date_sd_absent(self):
        series = CalibrationSeries(
            records=[
                CalibrationRecord(
                    asof=dt.date(2013, 1, 7),
                    params=HoLeeParams(sigma=0.1),
                    objective=0.0,
                    converged=True,
                )
            ]
        )
        mean, sd = series.summary["sigma"]
        assert mean == pytest.approx(0.1)
        assert sd is None

    def test_per_date_recovery(self, curve):
        sigmas = (0.25, 0.30, 0.35)
        sections = [
            make_section(
                "holee", HoLeeParams(sigma=s), curve,
                dt.date(2013, 7, 7) + dt.timedelta(weeks=k), 0.05, (1.0, 5.0, 15.0),
            )
            for k, s in enumerate(sigmas)
        ]
        series = calibrate_series("holee", sections)
        got = [rec.params.sigma for rec in series.records]
        np.testing.assert_allclose(got, sigmas, atol=1e-6)
        assert [rec.asof for rec in series.records] == [
            xs.asof for xs in sections
        ]

    def test_single_date_failure_recorded(self, curve):
        good = make_section(
            "holee", HoLeeParams(sigma=0.3), curve, dt.date(2013, 7, 7),
            0.05, (1.0, 5.0),
        )
        # same day as the curve: unidentified, must fail without killing
        # the rest of the series
        bad = CrossSection(
            asof=ASOF0, quotes=[(1.0, 0.96)], curve=curve, short_rate=0.04
        )
        series = calibrate_series("holee", [bad, good])
        assert series.records[0].params is None
        assert series.records[0].error is not None
        assert not series.records[0].converged
        assert series.records[1].params.sigma == pytest.approx(0.3, abs=1e-6)
        assert "sigma" in series.summary

    def test_all_dates_failing_raises(self, curve):
        bad = CrossSection(
            asof=ASOF0, quotes=[(1.0, 0.96)], curve=curve, short_rate=0.04
        )
        with pytest.raises(OptimizationError) as excinfo:
            calibrate_series("holee", [bad])
        assert excinfo.value.partial is not None

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            calibrate_series("holee", [])

    def test_bug_in_calibration_propagates(self, curve, monkeypatch):
        # a programming error is not a failed date: it must not come back
        # as "every date failed to calibrate"
        import curveforge.calibration

        def broken(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(curveforge.calibration, "calibrate", broken)
        section = make_section(
            "holee", HoLeeParams(sigma=0.3), curve, dt.date(2013, 7, 7),
            0.05, (1.0, 5.0),
        )
        with pytest.raises(TypeError, match="injected bug"):
            calibrate_series("holee", [section])

    def test_sections_on_the_common_curve_are_not_rebuilt(self, curve, monkeypatch):
        import curveforge.calibration

        sections = [
            make_section(
                "holee", HoLeeParams(sigma=s), curve,
                dt.date(2013, 7, 7) + dt.timedelta(weeks=k), 0.05, (1.0, 5.0, 15.0),
            )
            for k, s in enumerate((0.25, 0.30, 0.35))
        ]
        rebuilt = [
            calibrate("holee", CrossSection(
                asof=xs.asof, quotes=list(xs.quotes), curve=curve,
                short_rate=xs.short_rate,
            ))
            for xs in sections
        ]
        seen = []

        def recording(model, xs):
            seen.append(xs)
            return calibrate(model, xs)

        monkeypatch.setattr(curveforge.calibration, "calibrate", recording)
        series = calibrate_series("holee", sections)
        assert all(got is xs for got, xs in zip(seen, sections))
        assert series.records == [
            CalibrationRecord(asof=xs.asof, params=res.params,
                              objective=res.objective, converged=res.converged)
            for xs, res in zip(sections, rebuilt)
        ]

    def test_default_reanchors_to_first_curve(self, curve, tmp_path, monkeypatch):
        # the calibrate command anchors every date on the --curve file, or
        # with --per-date-curve each later date on the previous date's quotes
        import curveforge.cli as cli
        from curveforge.curve import DiscountCurve

        raw = [
            (xs.asof, list(xs.quotes))
            for xs in (
                make_section("holee", HoLeeParams(sigma=s), curve,
                             dt.date(2013, 7, 7) + dt.timedelta(weeks=k), 0.05,
                             (1.0, 5.0, 10.0))
                for k, s in enumerate((0.25, 0.30, 0.35))
            )
        ]
        fileio.write_curve(tmp_path / "curve.csv", curve)
        fileio.write_cross_sections(tmp_path / "sections.csv", raw)
        base = fileio.ingest_curve(tmp_path / "curve.csv")
        seen = []

        def recording(model, sections):
            seen.append(sections)
            return calibrate_series(model, sections)

        monkeypatch.setattr(cli, "calibrate_series", recording)
        args = ["--output-dir", str(tmp_path / "out"), "calibrate", "--model", "holee",
                "--cross-section", str(tmp_path / "sections.csv"),
                "--curve", str(tmp_path / "curve.csv")]
        for extra in ([], ["--per-date-curve"]):
            result = CliRunner().invoke(cli.main, args + extra)
            assert result.exit_code == 0, result.output
        fixed, per_date = seen
        assert [xs.asof for xs in fixed] == [xs.asof for xs in per_date] == [
            date for date, _ in raw]
        assert all(xs.curve == base for xs in fixed)
        assert per_date[0].curve == base
        for xs, (prev_date, prev_quotes) in zip(per_date[1:], raw):
            assert xs.curve == DiscountCurve(
                pillars=tuple(prev_quotes), asof=prev_date, flat_extrapolation=True)

    def test_each_section_keeps_its_curve(self, curve):
        # the second section carries a differently *shaped* curve (a level
        # shift alone would cancel out of the constant-vol price) and is
        # calibrated on it, not on the first section's curve
        from curveforge.curve import DiscountCurve

        taus = np.arange(1.0, 41.0)
        other = DiscountCurve(
            pillars=tuple(
                (tau, math.exp(-(0.02 + 0.002 * tau) * tau)) for tau in taus
            ),
            asof=ASOF0,
        )
        s1 = make_section(
            "holee", HoLeeParams(sigma=0.3), curve, dt.date(2013, 7, 7),
            0.05, (1.0, 5.0),
        )
        t2 = year_fraction(ASOF0, dt.date(2013, 7, 14))
        quotes2 = [
            (tau, model_price("holee", HoLeeParams(sigma=0.3), curve, 0.05, t2, tau))
            for tau in (1.0, 5.0)
        ]
        s2 = CrossSection(
            asof=dt.date(2013, 7, 14), quotes=quotes2, curve=other, short_rate=0.05
        )
        series = calibrate_series("holee", [s1, s2])
        assert series.records[1].params.sigma != pytest.approx(0.3, abs=1e-3)


class TestWeeklyNoiseStudy:
    """A year of weekly refits under small quote noise.

    The dispersion budget comes from the linearized noise-propagation
    study in tests/fixtures/pilot_hullwhite_noise.py, which freezes its
    result in the committed JSON next to it.
    """

    N_WEEKS = 52
    NOISE_SD = 1e-5

    @pytest.fixture
    def pilot(self):
        import json
        import os

        path = os.path.join(
            os.path.dirname(__file__), "fixtures", "pilot_hullwhite_noise.json"
        )
        with open(path) as handle:
            return json.load(handle)

    def test_recovered_params_within_pilot_budget(self, curve, pilot):
        gen = HullWhiteParams(a=HW_A, sigma=HW_SIGMA)
        assert pilot["design"]["true_a"] == HW_A
        assert pilot["design"]["true_sigma"] == HW_SIGMA
        rng = np.random.default_rng(99)
        sections = []
        for k in range(self.N_WEEKS):
            # dates sit in the second year after the curve date (at tiny t
            # the vol barely moves prices) and the short rate swings around
            # the curve level so the reversion speed has leverage
            asof = ASOF0 + dt.timedelta(weeks=53 + k)
            r = 0.04 + 0.015 * math.sin(2.0 * math.pi * k / self.N_WEEKS)
            t = year_fraction(ASOF0, asof)
            quotes = [
                (
                    tau,
                    hullwhite_price(gen, curve, r, t, t + tau)
                    + rng.normal(0.0, self.NOISE_SD),
                )
                for tau in MATURITY_GRID
            ]
            sections.append(
                CrossSection(asof=asof, quotes=quotes, curve=curve, short_rate=r)
            )
        series = calibrate_series("hullwhite", sections)
        fitted_a = np.array([rec.params.a for rec in series.records])
        fitted_sigma = np.array([rec.params.sigma for rec in series.records])
        assert all(rec.converged for rec in series.records)
        assert fitted_a.std(ddof=1) <= 10.0 * pilot["bounds"]["sd_a"]
        assert fitted_sigma.std(ddof=1) <= 10.0 * pilot["bounds"]["sd_sigma"]
        assert fitted_a.mean() == pytest.approx(HW_A, abs=1e-3)
        assert fitted_sigma.mean() == pytest.approx(HW_SIGMA, abs=1e-4)
