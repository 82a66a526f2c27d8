import datetime as dt
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from curveforge import calibration, fileio
from curveforge.bonds import CouponBond
from curveforge.calibration import (
    CalibrationRecord,
    CalibrationResult,
    CalibrationSeries,
    calibrate_series,
)
from curveforge.curve import DiscountCurve, flat_curve
from curveforge.diagnostics import MATURITY_GRID, ArbitrageReport, PriceSurface
from curveforge.errors import IngestionError
from curveforge.estimation import PricePanel, StateSeries
from curveforge.hjm import HoLeeParams, HullWhiteParams, ShortRateState
from curveforge.shortrate import G2Params, G2State, VasicekParams


def roundtrip_bytes(tmp_path, write, ingest, obj, name):
    """Write, re-ingest, write again: the two files must match byte for
    byte (repr-formatted floats make the text canonical)."""
    first = tmp_path / name
    second = tmp_path / ("again-" + name)
    write(first, obj)
    recovered = ingest(first)
    write(second, recovered)
    assert first.read_bytes() == second.read_bytes()
    return recovered


class TestPanelRoundTrip:
    def make_panel(self, negotiated=None):
        d = dt.date(2013, 1, 7)
        observations = [
            (d, {"S": 0.912345, "L": 0.6543210987654321}),
            (d + dt.timedelta(weeks=1), {"S": 0.913, "L": 0.66}),
            (d + dt.timedelta(weeks=2), {"S": 1.0, "L": 0.1}),
        ]
        instruments = [("L", dt.date(2033, 1, 3)), ("S", dt.date(2025, 1, 6))]
        return PricePanel(
            observations=observations,
            instruments=instruments,
            negotiated=negotiated,
        )

    def test_roundtrip_plain(self, tmp_path):
        panel = self.make_panel()
        back = roundtrip_bytes(
            tmp_path, fileio.write_panel, fileio.ingest_panel, panel, "panel.csv"
        )
        assert back.observations == panel.observations
        assert back.instruments == sorted(panel.instruments)
        assert back.negotiated is None

    def test_roundtrip_negotiated_flag(self, tmp_path):
        panel = self.make_panel(negotiated=[True, False, True])
        back = roundtrip_bytes(
            tmp_path, fileio.write_panel, fileio.ingest_panel, panel, "panel.csv"
        )
        assert back.negotiated == [True, False, True]

    def test_all_bad_rows_reported_together(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "date,instrument_id,price,maturity\n"
            "2013-01-07,Z,0.95,2020-01-01\n"
            "2013-01-14,Z,1.5,2020-01-01\n"          # price above 1
            "2013-01-21,Z,0.96,2012-01-01\n"         # maturity before date
            "not-a-date,Z,0.97,2020-01-01\n"         # bad date
            "2013-01-28,Z,0.98,2020-01-01\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_panel(path)
        offending = [n for n, _ in excinfo.value.lines]
        assert offending == [3, 4, 5]
        assert "1.5" in excinfo.value.lines[0][1]

    def test_conflicting_instrument_maturity_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "date,instrument_id,price,maturity\n"
            "2013-01-07,Z,0.95,2020-01-01\n"
            "2013-01-14,Z,0.94,2021-01-01\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_panel(path)
        assert excinfo.value.lines[0][0] == 3

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,id,price,maturity\n2013-01-07,Z,0.95,2020-01-01\n")
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_panel(path)
        assert excinfo.value.line == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("date,instrument_id,price,maturity\n")
        with pytest.raises(IngestionError):
            fileio.ingest_panel(path)


class TestCurveRoundTrip:
    def test_roundtrip_with_metadata(self, tmp_path):
        curve = flat_curve(
            0.0437,
            span=25.0,
            n_pillars=25,
            asof=dt.date(2013, 1, 5),
            flat_extrapolation=True,
        )
        back = roundtrip_bytes(
            tmp_path, fileio.write_curve, fileio.ingest_curve, curve, "curve.csv"
        )
        assert back.pillars == curve.pillars
        assert back.asof == curve.asof
        assert back.flat_extrapolation

    def test_roundtrip_bare(self, tmp_path):
        curve = DiscountCurve(pillars=((0.5, 0.99), (2.0, 0.9), (7.0, 0.61)))
        back = roundtrip_bytes(
            tmp_path, fileio.write_curve, fileio.ingest_curve, curve, "curve.csv"
        )
        assert back.asof is None
        assert not back.flat_extrapolation

    def test_bad_rows_collected_with_line_numbers(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "# asof=2013-01-05\n"
            "tau,discount_factor\n"
            "1.0,0.96\n"
            "2.0,nan\n"
            "oops,0.9\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_curve(path)
        assert [n for n, _ in excinfo.value.lines] == [4, 5]

    def test_pillar_violations_surface_as_ingestion_error(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tau,discount_factor\n2.0,0.9\n1.0,0.96\n")
        with pytest.raises(IngestionError):
            fileio.ingest_curve(path)

    def test_unparseable_metadata_flag(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "# flat_extrapolation=maybe\ntau,discount_factor\n1.0,0.96\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_curve(path)
        assert excinfo.value.line == 1


class TestCrossSectionRoundTrip:
    def test_roundtrip(self, tmp_path):
        sections = [
            (dt.date(2013, 1, 7), [(0.25, 0.99), (1.0, 0.9512), (10.0, 0.5)]),
            (dt.date(2013, 1, 14), [(1.0, 0.95), (10.0, 0.51)]),
        ]
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_cross_sections,
            fileio.ingest_cross_sections,
            sections,
            "sections.csv",
        )
        assert back == sections

    def test_duplicate_maturity_on_date_rejected(self, tmp_path):
        path = tmp_path / "sections.csv"
        path.write_text(
            "date,maturity_years,zero_price\n"
            "2013-01-07,1.0,0.95\n"
            "2013-01-07,1.0,0.96\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_cross_sections(path)
        assert excinfo.value.lines[0][0] == 3


class TestBondFiles:
    def test_ingest_bonds_with_optional_anchor(self, tmp_path):
        path = tmp_path / "bonds.csv"
        path.write_text(
            "id,face,coupon_rate,frequency,maturity,first_coupon\n"
            "CBU25,100.0,0.06,2,2025-01-06,2013-07-06\n"
            "Z30,100.0,0.0,0,2030-01-06,\n"
        )
        bonds = fileio.ingest_bonds(path)
        assert [b.bond_id for b in bonds] == ["CBU25", "Z30"]
        assert bonds[0].schedule_anchor == dt.date(2013, 7, 6)
        assert bonds[1].schedule_anchor is None

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "bonds.csv"
        path.write_text(
            "id,face,coupon_rate,frequency,maturity\n"
            "B,100.0,0.06,2,2025-01-06\n"
            "B,100.0,0.05,2,2026-01-06\n"
        )
        with pytest.raises(IngestionError):
            fileio.ingest_bonds(path)

    def test_quotes_validated(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text(
            "id,settlement,price\nB,2013-01-07,101.5\nB,2013-01-07,-3.0\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_bond_quotes(path)
        assert excinfo.value.lines[0][0] == 3


class TestSurfaceRoundTrip:
    def test_roundtrip_with_missing_cells_and_dates(self, tmp_path):
        values = np.linspace(0.99, 0.4, 2 * len(MATURITY_GRID)).reshape(2, -1)
        values[0, 3] = np.nan
        values[1, 0] = np.nan
        surface = PriceSurface(
            dates=[dt.date(2013, 1, 7), dt.date(2013, 1, 8)],
            maturities=MATURITY_GRID,
            values=values,
        )
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_surface,
            fileio.ingest_surface,
            surface,
            "surface.csv",
        )
        assert np.array_equal(back.values, values, equal_nan=True)
        assert back.dates == surface.dates

    def test_roundtrip_numeric_dates(self, tmp_path):
        values = np.full((1, len(MATURITY_GRID)), 0.5)
        surface = PriceSurface(
            dates=[1.25], maturities=MATURITY_GRID, values=values
        )
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_surface,
            fileio.ingest_surface,
            surface,
            "surface.csv",
        )
        assert back.dates == [1.25]

    @pytest.mark.parametrize("first, second, kind", [
        ("2013-01-07", "0.5", "an ISO date"),
        ("0.5", "2013-01-07", "a numeric time"),
    ])
    def test_date_column_of_mixed_kinds_rejected(self, tmp_path, first, second, kind):
        path = tmp_path / "surface.csv"
        cells = ",".join(["0.9"] * len(MATURITY_GRID))
        path.write_text(
            ",".join(fileio.SURFACE_COLUMNS) + f"\n{first},{cells}\n{second},{cells}\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_surface(path)
        assert excinfo.value.lines == [
            (3, f"date {second!r} is not {kind} like the first record's")
        ]

    @pytest.mark.parametrize("dates", [
        [dt.date(2013, 1, 7), 0.5],
        [0.5, dt.date(2013, 1, 7)],
    ])
    def test_surface_of_mixed_date_kinds_is_refused_when_built(self, dates):
        # the reader takes one kind per file, so a surface that mixed them
        # would be written and then not read back
        values = np.full((2, len(MATURITY_GRID)), 0.9)
        with pytest.raises(ValueError, match="mix calendar dates and numeric times"):
            PriceSurface(dates=dates, maturities=MATURITY_GRID, values=values)

    def test_header_carries_tenor_labels(self, tmp_path):
        path = tmp_path / "surface.csv"
        surface = PriceSurface(
            dates=[0.0],
            maturities=MATURITY_GRID,
            values=np.full((1, len(MATURITY_GRID)), 0.9),
        )
        fileio.write_surface(path, surface)
        header = path.read_text().splitlines()[0]
        assert header.startswith("date,P_1m,P_2m,P_3m,P_6m,P_9m,P_1y")
        assert header.endswith("P_25y")
        assert len(header.split(",")) == 1 + len(MATURITY_GRID)


class TestArbitrageRoundTrip:
    def test_roundtrip(self, tmp_path):
        report = ArbitrageReport(
            violations=[(1.0, 2.0, 0.90, 0.95), (1.0, 3.0, 0.90, 0.99)]
        )
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_arbitrage,
            fileio.ingest_arbitrage,
            report,
            "arb.csv",
        )
        assert back.violations == report.violations

    def test_empty_report_roundtrip(self, tmp_path):
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_arbitrage,
            fileio.ingest_arbitrage,
            ArbitrageReport(violations=[]),
            "arb.csv",
        )
        assert back.clean

    def test_text_rendering(self):
        report = ArbitrageReport(
            violations=[(1.0, 2.0, 0.90, 0.95)],
            derivative_sign_changes=[3.25],
        )
        text = fileio.render_arbitrage_text(report)
        lines = text.splitlines()
        assert lines[0].startswith("VIOLATION")
        assert lines[1].startswith("DERIVATIVE SIGN CHANGE")
        clean = fileio.render_arbitrage_text(ArbitrageReport(violations=[]))
        assert clean.startswith("CLEAN")


class TestCalibrationRoundTrip:
    def make_series(self):
        return CalibrationSeries(
            records=[
                CalibrationRecord(
                    asof=dt.date(2013, 1, 7),
                    params=HullWhiteParams(a=0.0813, sigma=0.0215),
                    objective=3.2e-18,
                    converged=True,
                ),
                CalibrationRecord(
                    asof=dt.date(2013, 1, 14),
                    params=None,
                    objective=None,
                    converged=False,
                    error="maturities must be distinct, after asof",
                ),
                CalibrationRecord(
                    asof=dt.date(2013, 1, 21),
                    params=HullWhiteParams(a=0.09, sigma=0.021),
                    objective=1.1e-17,
                    converged=False,
                ),
            ]
        )

    def test_roundtrip_hullwhite_with_error_row(self, tmp_path):
        series = self.make_series()
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_calibration,
            fileio.ingest_calibration,
            series,
            "calibration.csv",
        )
        assert len(back.records) == 3
        assert back.records[0].params == series.records[0].params
        assert back.records[0].objective == series.records[0].objective
        assert back.records[0].converged
        assert back.records[1].params is None
        assert back.records[1].error == series.records[1].error
        assert not back.records[2].converged

    def test_roundtrip_holee(self, tmp_path):
        series = CalibrationSeries(
            records=[
                CalibrationRecord(
                    asof=dt.date(2013, 6, 25),
                    params=HoLeeParams(sigma=0.3071),
                    objective=0.0,
                    converged=True,
                )
            ]
        )
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_calibration,
            fileio.ingest_calibration,
            series,
            "calibration.csv",
        )
        assert isinstance(back.records[0].params, HoLeeParams)
        assert back.records[0].params.sigma == 0.3071

    def test_error_message_with_commas_survives(self, tmp_path):
        series = self.make_series()
        assert "," in series.records[1].error
        path = tmp_path / "calibration.csv"
        fileio.write_calibration(path, series)
        back = fileio.ingest_calibration(path)
        assert back.records[1].error == series.records[1].error

    def test_error_message_with_line_breaks_roundtrips(self, tmp_path):
        # csv.writer quotes the field, and a quoted field may span lines
        series = self.make_series()
        series.records[1].error = (
            'all starts failed:\n "maxiter"\r\nreached\rtwice\u2028\x85\x0cin a row'
        )
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_calibration,
            fileio.ingest_calibration,
            series,
            "calibration.csv",
        )
        assert back.records[1].error == series.records[1].error
        assert back.records[2].params == series.records[2].params

    def test_unknown_parameter_set_rejected(self, tmp_path):
        path = tmp_path / "calibration.csv"
        path.write_text(
            "date,param_name,value,objective,converged\n"
            "2013-01-07,kappa,0.5,1e-18,1\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_calibration(path)
        assert "kappa" in str(excinfo.value)

    def test_inconsistent_flags_on_one_date_rejected(self, tmp_path):
        path = tmp_path / "calibration.csv"
        path.write_text(
            "date,param_name,value,objective,converged\n"
            "2013-01-07,a,0.08,1e-18,1\n"
            "2013-01-07,sigma,0.02,1e-18,0\n"
        )
        with pytest.raises(IngestionError):
            fileio.ingest_calibration(path)


class TestTextCells:
    """Ingest strips every cell, so a writer refuses the text cells that
    would not read back unchanged."""

    TAILS = ["failed  \x85\x0c ", "failed  ", "  failed", " \x85\x0c"]

    def series(self, error):
        return CalibrationSeries(
            records=[
                CalibrationRecord(
                    asof=dt.date(2013, 1, 7),
                    params=HoLeeParams(sigma=0.01),
                    objective=1e-18,
                    converged=True,
                ),
                CalibrationRecord(
                    asof=dt.date(2013, 1, 14),
                    params=None,
                    objective=None,
                    converged=False,
                    error=error,
                ),
            ]
        )

    @pytest.mark.parametrize("error", TAILS + [""])
    def test_calibration_error_with_edge_whitespace_refused(self, tmp_path, error):
        path = tmp_path / "calibration.csv"
        with pytest.raises(ValueError, match="error cell of 2013-01-14"):
            fileio.write_calibration(path, self.series(error))
        assert not path.exists()

    @pytest.mark.parametrize("error", [None, "failed", "all starts\n failed \x85 twice"])
    def test_calibration_error_reads_back_unchanged(self, tmp_path, error):
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_calibration,
            fileio.ingest_calibration,
            self.series(error),
            "calibration.csv",
        )
        assert back.records[1].error == error

    @pytest.mark.parametrize("name", ["S  \x85\x0c ", " S", "S ", ""])
    def test_instrument_id_with_edge_whitespace_refused(self, tmp_path, name):
        panel = PricePanel(
            observations=[(dt.date(2013, 1, 7), {name: 0.9})],
            instruments=[(name, dt.date(2025, 1, 6))],
        )
        with pytest.raises(ValueError, match="instrument_id"):
            fileio.write_panel(tmp_path / "panel.csv", panel)

    def test_calibrate_series_records_stripped_messages(self, tmp_path, monkeypatch):
        messages = {8: "failed  \x85\x0c ", 15: "  no fit  ", 22: " \x0c "}

        def calibrate(model, xs):
            if xs.asof.day in messages:
                raise ValueError(messages[xs.asof.day])
            return CalibrationResult(HoLeeParams(sigma=0.01), 1e-18, True)

        monkeypatch.setattr(calibration, "calibrate", calibrate)
        sections = [SimpleNamespace(asof=dt.date(2013, 1, day)) for day in (1, 8, 15, 22)]
        series = calibrate_series("holee", sections)
        errors = [rec.error for rec in series.records]
        assert errors == [None, "failed", "no fit", "ValueError"]
        back = roundtrip_bytes(
            tmp_path,
            fileio.write_calibration,
            fileio.ingest_calibration,
            series,
            "calibration.csv",
        )
        assert [rec.error for rec in back.records] == errors


class TestStateRoundTrip:
    def test_one_factor_with_dates(self, tmp_path):
        states = StateSeries(
            times=np.array([0.0, 1.0 / 52.0, 2.0 / 52.0]),
            values=np.array([0.05, 0.048, 0.0525]),
            dates=[
                dt.date(2013, 1, 7),
                dt.date(2013, 1, 14),
                dt.date(2013, 1, 21),
            ],
        )
        back = roundtrip_bytes(
            tmp_path, fileio.write_states, fileio.ingest_states, states, "states.csv"
        )
        assert np.array_equal(back.times, states.times)
        assert np.array_equal(back.values, states.values)
        assert back.dates == states.dates

    def test_two_factor_without_dates(self, tmp_path):
        states = StateSeries(
            times=np.array([0.0, 0.5]),
            values=np.array([[0.01, -0.02], [0.03, -0.01]]),
        )
        back = roundtrip_bytes(
            tmp_path, fileio.write_states, fileio.ingest_states, states, "states.csv"
        )
        assert np.array_equal(back.values, states.values)
        assert back.dates is None

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "states.csv"
        path.write_text("time,level\n0.0,0.05\n")
        with pytest.raises(IngestionError) as excinfo:
            fileio.ingest_states(path)
        assert excinfo.value.line == 1


class TestKeyValueFiles:
    def test_params_roundtrip_all_models(self, tmp_path):
        cases = [
            ("vasicek", VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)),
            ("g2pp", G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)),
            ("holee", HoLeeParams(sigma=0.3071)),
            ("hullwhite", HullWhiteParams(a=0.0813, sigma=0.0215)),
        ]
        for model, params in cases:
            path = tmp_path / f"{model}.params"
            fileio.params_to_file(path, model, params)
            assert fileio.params_from_file(path, model) == params

    def test_declared_model_mismatch(self, tmp_path):
        path = tmp_path / "p.params"
        fileio.params_to_file(path, "holee", HoLeeParams(sigma=0.3071))
        with pytest.raises(IngestionError):
            fileio.params_from_file(path, "hullwhite")

    def test_missing_keys_reported(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("a=0.08\n")
        with pytest.raises(IngestionError) as excinfo:
            fileio.params_from_file(path, "hullwhite")
        assert "sigma" in str(excinfo.value)

    def test_state_files_both_shapes(self, tmp_path):
        g2 = G2State(x=0.01, y=-0.02, t=0.5)
        path = tmp_path / "g2.state"
        fileio.state_to_file(path, g2)
        assert fileio.state_from_file(path, "g2pp") == g2

        sr = ShortRateState(r=0.05, t=1.25)
        path = tmp_path / "sr.state"
        fileio.state_to_file(path, sr)
        assert fileio.state_from_file(path, "hullwhite") == sr

    def test_state_time_defaults_to_zero(self, tmp_path):
        path = tmp_path / "sr.state"
        path.write_text("r=0.05\n")
        assert fileio.state_from_file(path, "vasicek") == ShortRateState(r=0.05, t=0.0)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("# a comment\n\nalpha = 1.5\n beta=two \n")
        assert fileio.read_keyvalues(path) == {"alpha": "1.5", "beta": "two"}

    def test_problems_collected(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("alpha=1\nnot a pair\nalpha=2\n")
        with pytest.raises(IngestionError) as excinfo:
            fileio.read_keyvalues(path)
        assert [n for n, _ in excinfo.value.lines] == [2, 3]

    def test_boolean_formatting(self, tmp_path):
        path = tmp_path / "kv.cfg"
        fileio.write_keyvalues(path, {"flag": True, "x": 0.25, "name": "run"})
        assert path.read_text() == "flag=true\nx=0.25\nname=run\n"


class TestAtomicWrite:
    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "out.csv"
        fileio.atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_overwrites_existing_content(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        fileio.atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"


class TestFloatFormatting:
    def test_repr_roundtrip_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-12, 4))
            assert float(fileio._fmt(x)) == x

    def test_nan_rejected_on_ingest(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("tau,discount_factor\n1.0,inf\n")
        with pytest.raises(IngestionError):
            fileio.ingest_curve(path)
