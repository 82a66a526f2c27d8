import contextlib
import datetime as dt
import gc
import io
import json
import math
import os
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from curveforge import fileio
from curveforge.cli import main
from curveforge.curve import flat_curve
from curveforge.daycount import year_fraction
from curveforge.estimation import StateSeries
from curveforge.hjm import HoLeeParams, ShortRateState, holee_price
from curveforge.models import MODELS, fitted_by
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import G2Params, G2State, VasicekParams, g2pp_price, vasicek_price

VAS = VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)
ASOF = dt.date(2013, 1, 7)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One directory of well-formed input files shared by the happy paths."""
    root = tmp_path_factory.mktemp("inputs")

    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=ASOF)
    fileio.write_curve(root / "curve.csv", curve)

    schedule = [ASOF + dt.timedelta(weeks=k) for k in range(60)]
    panel = synth_panel(
        "vasicek", VAS, schedule, [("Z", dt.date(2056, 1, 4))], seed=3
    )
    fileio.write_panel(root / "panel.csv", panel)

    hl = HoLeeParams(sigma=0.3071)
    sections = []
    for k in (30, 34):
        date = ASOF + dt.timedelta(weeks=k)
        t = year_fraction(ASOF, date)
        quotes = [
            (tau, holee_price(hl, curve, 0.05, t, t + tau))
            for tau in (1.0, 2.0, 5.0, 10.0)
        ]
        sections.append((date, quotes))
    fileio.write_cross_sections(root / "sections.csv", sections)

    fileio.params_to_file(root / "vasicek.params", "vasicek", VAS)
    fileio.params_to_file(root / "holee.params", "holee", hl)
    fileio.params_to_file(
        root / "g2pp.params",
        "g2pp",
        G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
    )
    fileio.state_to_file(root / "short.state", ShortRateState(r=0.05, t=0.0))
    fileio.state_to_file(root / "g2.state", G2State(x=0.01, y=-0.01, t=0.0))

    fileio.write_states(
        root / "states_1f.csv",
        StateSeries(times=np.array([0.0, 0.5]), values=np.array([0.05, 0.045])),
    )
    fileio.write_states(
        root / "states_2f.csv",
        StateSeries(
            times=np.array([0.0, 0.5]),
            values=np.array([[0.01, -0.01], [0.02, -0.02]]),
        ),
    )

    bonds_text = (
        "id,face,coupon_rate,frequency,maturity\n"
        "A,100.0,0.0,0,2013-07-07\n"
        "B,100.0,0.0,0,2015-01-07\n"
        "C,100.0,0.0,0,2018-01-07\n"
    )
    (root / "bonds.csv").write_text(bonds_text)
    quotes_text = "id,settlement,price\n"
    for bond_id, mat in (
        ("A", dt.date(2013, 7, 7)),
        ("B", dt.date(2015, 1, 7)),
        ("C", dt.date(2018, 1, 7)),
    ):
        tau = year_fraction(ASOF, mat)
        quotes_text += f"{bond_id},2013-01-07,{100.0 * math.exp(-0.05 * tau)!r}\n"
    (root / "quotes.csv").write_text(quotes_text)
    return root


def read_log(outdir):
    with open(os.path.join(outdir, "run_log.jsonl")) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestBootstrap:
    def test_happy_path(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "bootstrap",
             "--bonds", str(inputs / "bonds.csv"),
             "--quotes", str(inputs / "quotes.csv")],
        )
        assert result.exit_code == 0, result.output
        curve = fileio.ingest_curve(tmp_path / "curve.csv")
        assert len(curve.pillars) == 3
        (entry,) = read_log(tmp_path)
        assert entry["command"] == "bootstrap"
        assert entry["results"]["pillars"] == 3
        assert "config_hash" in entry

    def test_unknown_bond_id_is_usage_error(self, runner, inputs, tmp_path):
        quotes = tmp_path / "bad_quotes.csv"
        quotes.write_text("id,settlement,price\nNOPE,2013-01-07,95.0\n")
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "bootstrap",
             "--bonds", str(inputs / "bonds.csv"), "--quotes", str(quotes)],
        )
        assert result.exit_code == 2

    def test_empty_quote_id_is_a_data_error_with_its_line(self, runner, inputs, tmp_path):
        quotes = tmp_path / "bad_quotes.csv"
        quotes.write_text("id,settlement,price\nA,2013-01-07,98.1\n,2013-01-07,99.0\n")
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "bootstrap",
             "--bonds", str(inputs / "bonds.csv"), "--quotes", str(quotes)],
        )
        assert result.exit_code == 1
        assert result.output == "Error: quote file rejected (line 3: empty bond id)\n"

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "bootstrap",
             "--bonds", str(tmp_path / "absent.csv"),
             "--quotes", str(tmp_path / "absent.csv")],
        )
        assert result.exit_code == 2

    def test_annual_bond_without_first_coupon(self, runner, tmp_path):
        bonds = tmp_path / "bonds.csv"
        bonds.write_text(
            "id,face,coupon_rate,frequency,maturity\n"
            "A,100.0,0.0,0,2013-07-07\n"
            "C,100.0,0.05,1,2018-01-07\n"
        )
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("id,settlement,price\nA,2013-01-07,98.1\nC,2013-01-07,101.2\n")
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "bootstrap",
             "--bonds", str(bonds), "--quotes", str(quotes)],
        )
        assert result.exit_code == 0, result.output
        assert len(fileio.ingest_curve(tmp_path / "curve.csv").pillars) == 2

    def test_single_quote_is_domain_error(self, runner, inputs, tmp_path):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("id,settlement,price\nA,2013-01-07,98.1\n")
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "bootstrap",
             "--bonds", str(inputs / "bonds.csv"), "--quotes", str(quotes)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: need at least two quotes to build a curve\n"
        assert not (tmp_path / "run_log.jsonl").exists()


class TestFitMl:
    def test_vasicek_panel(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml",
             "--model", "vasicek", "--panel", str(inputs / "panel.csv"),
             "--restarts", "2", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        params = fileio.params_from_file(tmp_path / "fit_params.txt", "vasicek")
        assert params.a > 0 and params.sigma > 0
        states = fileio.ingest_states(tmp_path / "fit_states.csv")
        assert len(states.times) == 60
        report = fileio.read_keyvalues(tmp_path / "fit_report.txt")
        assert report["model"] == "vasicek"
        assert "loglik" in report
        (entry,) = read_log(tmp_path)
        assert entry["seed"] == 1
        assert entry["config"]["restarts"] == 2

    def test_g2pp_requires_curve(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml",
             "--model", "g2pp", "--panel", str(inputs / "panel.csv")],
        )
        assert result.exit_code == 2

    def test_bad_panel_is_domain_error(self, runner, tmp_path):
        bad = tmp_path / "bad_panel.csv"
        bad.write_text(
            "date,instrument_id,price,maturity\n"
            "2013-01-07,Z,1.5,2020-01-01\n"
        )
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml",
             "--model", "vasicek", "--panel", str(bad)],
        )
        assert result.exit_code == 1
        assert "1.5" in result.output

    def test_invalid_model_for_command(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml",
             "--model", "holee", "--panel", str(inputs / "panel.csv")],
        )
        assert result.exit_code == 2

    def test_two_instrument_panel_for_one_factor_model_is_domain_error(
        self, runner, tmp_path
    ):
        schedule = [ASOF + dt.timedelta(weeks=k) for k in range(30)]
        panel = synth_panel(
            "vasicek", VAS, schedule,
            [("Z1", dt.date(2044, 1, 4)), ("Z2", dt.date(2054, 1, 4))], seed=6,
        )
        fileio.write_panel(tmp_path / "two.csv", panel)
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml",
             "--model", "vasicek", "--panel", str(tmp_path / "two.csv")],
        )
        assert result.exit_code == 1
        assert "exactly 1 instrument(s), got 2" in result.output
        assert not (tmp_path / "fit_params.txt").exists()

    def test_curve_shorter_than_the_panel_fails_at_once(self, runner, tmp_path):
        # the panel's bonds mature 12 and 20 years out; the curve stops at 10
        schedule = [ASOF + dt.timedelta(weeks=k) for k in range(30)]
        instruments = [("B12", dt.date(2025, 1, 6)), ("B20", dt.date(2033, 1, 3))]
        params = G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4)
        long_curve = flat_curve(0.04, span=30.0, asof=ASOF)
        panel = synth_panel("g2pp", params, schedule, instruments, curve=long_curve, seed=2)
        fileio.write_panel(tmp_path / "g2.csv", panel)
        fileio.write_curve(tmp_path / "short.csv", flat_curve(0.04, span=10.0, asof=ASOF))
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml", "--model", "g2pp",
             "--panel", str(tmp_path / "g2.csv"), "--curve", str(tmp_path / "short.csv"),
             "--restarts", "2"],
        )
        assert result.exit_code == 1
        assert "beyond curve span 10" in result.output
        assert not (tmp_path / "fit_params.txt").exists()

    def test_negotiated_only_without_flags_is_domain_error(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml", "--model", "vasicek",
             "--panel", str(inputs / "panel.csv"), "--negotiated-only"],
        )
        assert result.exit_code == 1
        assert "Error: panel carries no negotiated flags" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_negotiated_only_with_no_flagged_date_is_domain_error(self, runner, tmp_path):
        schedule = [ASOF + dt.timedelta(weeks=k) for k in range(10)]
        panel = synth_panel("vasicek", VAS, schedule, [("Z", dt.date(2056, 1, 4))], seed=3)
        panel.negotiated = [False] * len(schedule)
        fileio.write_panel(tmp_path / "unflagged.csv", panel)
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "fit-ml", "--model", "vasicek",
             "--panel", str(tmp_path / "unflagged.csv"), "--negotiated-only"],
        )
        assert result.exit_code == 1
        assert "Error: no date of the panel is flagged as negotiated" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestCalibrate:
    def test_holee_series(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "calibrate",
             "--model", "holee",
             "--cross-section", str(inputs / "sections.csv"),
             "--curve", str(inputs / "curve.csv")],
        )
        assert result.exit_code == 0, result.output
        series = fileio.ingest_calibration(tmp_path / "calibration.csv")
        assert len(series.records) == 2
        assert all(rec.converged for rec in series.records)
        summary = fileio.read_keyvalues(tmp_path / "calibration_summary.txt")
        assert summary["model"] == "holee"
        assert "sigma_mean" in summary and "sigma_sd" in summary

    def test_curve_without_asof_is_usage_error(self, runner, inputs, tmp_path):
        bare = tmp_path / "bare_curve.csv"
        fileio.write_curve(bare, flat_curve(0.04, span=40.0, n_pillars=40))
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "calibrate",
             "--model", "holee",
             "--cross-section", str(inputs / "sections.csv"),
             "--curve", str(bare)],
        )
        assert result.exit_code == 2


class TestPrice:
    def test_vasicek_needs_no_curve(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "price",
             "--model", "vasicek", "--params", str(inputs / "vasicek.params"),
             "--state", str(inputs / "short.state"), "--maturity", "3.0"],
        )
        assert result.exit_code == 0, result.output
        out = fileio.read_keyvalues(tmp_path / "price.txt")
        assert float(result.output) == float(out["price"])
        assert 0.0 < float(out["price"]) <= 1.0

    def test_redirected_output_is_not_retained(self, inputs, tmp_path):
        # click.echo without a file keeps a wrapper per sys.stdout it has
        # seen, and the wrapper holds the stream
        argv = ["--output-dir", str(tmp_path), "price",
                "--model", "vasicek", "--params", str(inputs / "vasicek.params"),
                "--state", str(inputs / "short.state"), "--maturity", "3.0"]
        buffers = []
        for _ in range(200):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(argv, standalone_mode=False)
            assert float(out.getvalue()) > 0.0
            buffers.append(weakref.ref(out))
            del out
        gc.collect()
        assert [ref for ref in buffers if ref() is not None] == []

    def test_curve_required_for_forward_models(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "price",
             "--model", "holee", "--params", str(inputs / "holee.params"),
             "--state", str(inputs / "short.state"), "--maturity", "3.0"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "meta, message",
        [
            ("# asof=2012-02-30", "line 1: asof: day is out of range for month"),
            ("# flat_extrapolation=maybe",
             "line 1: flat_extrapolation: unparseable flag 'maybe'"),
        ],
    )
    def test_bad_curve_metadata_is_domain_error(
        self, runner, inputs, tmp_path, meta, message
    ):
        curve = tmp_path / "curve.csv"
        curve.write_text(f"{meta}\ntau,discount_factor\n1.0,0.96\n10.0,0.7\n")
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "price",
             "--model", "holee", "--params", str(inputs / "holee.params"),
             "--state", str(inputs / "short.state"), "--maturity", "3.0",
             "--curve", str(curve)],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert not (tmp_path / "price.txt").exists()

    @pytest.mark.parametrize(
        "params, state, message",
        [
            ("a=1.7051\nb=0.0937\nsigma=x\n", "r=0.05\n",
             "params file rejected (line 3: unparseable sigma 'x')"),
            ("a=1.7051\nb=0.0937\nsigma=0.3721\n", "r=0.05\nt=abc\n",
             "state file rejected (line 2: unparseable t 'abc')"),
            # a mistyped key used to price silently at t = 0
            ("a=1.7051\nb=0.0937\nsigma=0.3721\n", "r=0.05\ntime=0.5\n",
             "state file rejected (line 2: unknown key 'time')"),
            ("model=vasicek\na=1.7\nb=0.09\nsigma=0.37\nkappa=2\n", "r=0.05\n",
             "params file rejected (line 5: unknown key 'kappa')"),
        ],
    )
    def test_bad_keyvalue_files_are_domain_errors(
        self, runner, tmp_path, params, state, message
    ):
        (tmp_path / "p.params").write_text(params)
        (tmp_path / "s.state").write_text(state)
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "price", "--model", "vasicek",
             "--params", str(tmp_path / "p.params"),
             "--state", str(tmp_path / "s.state"), "--maturity", "1.0"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert not (tmp_path / "price.txt").exists()


class TestSurface:
    def test_g2pp_surface_has_fourteen_maturity_columns(
        self, runner, inputs, tmp_path
    ):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "surface",
             "--model", "g2pp", "--params", str(inputs / "g2pp.params"),
             "--states", str(inputs / "states_2f.csv"),
             "--curve", str(inputs / "curve.csv")],
        )
        assert result.exit_code == 0, result.output
        header = (tmp_path / "surface.csv").read_text().splitlines()[0]
        assert len(header.split(",")) == 15  # date + the 14-tenor grid
        surface = fileio.ingest_surface(tmp_path / "surface.csv")
        assert surface.values.shape == (2, 14)

    def test_state_shape_must_match_model(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "surface",
             "--model", "vasicek", "--params", str(inputs / "vasicek.params"),
             "--states", str(inputs / "states_2f.csv")],
        )
        assert result.exit_code == 2


class TestCheckArbitrage:
    def test_monotone_curve_exits_clean(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "check-arbitrage",
             "--curve", str(inputs / "curve.csv")],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("0 violations")
        report = fileio.ingest_arbitrage(tmp_path / "arbitrage.csv")
        assert report.violations == []
        assert (tmp_path / "arbitrage.txt").read_text().startswith("CLEAN")

    def test_inverted_curve_reports_violations(self, runner, tmp_path):
        path = tmp_path / "inverted.csv"
        path.write_text("tau,discount_factor\n1.0,0.90\n2.0,0.95\n")
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "check-arbitrage",
             "--curve", str(path)],
        )
        assert result.exit_code == 0
        report = fileio.ingest_arbitrage(tmp_path / "arbitrage.csv")
        assert report.violations == [(1.0, 2.0, 0.90, 0.95)]

    def test_model_scan_runs(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "check-arbitrage",
             "--curve", str(inputs / "curve.csv"), "--model", "g2pp",
             "--state", str(inputs / "g2.state")],
        )
        assert result.exit_code == 0, result.output
        assert "derivative sign changes" in result.output


class TestOracle:
    def seeded_run(self, runner, tmp_path, name):
        outdir = tmp_path / name
        result = runner.invoke(
            main,
            ["--output-dir", str(outdir), "oracle",
             "--model", "vasicek", "--maturity", "2.0",
             "--paths", "2000", "--step", "0.02", "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        return (
            (outdir / "oracle.txt").read_bytes(),
            (outdir / "run_log.jsonl").read_bytes(),
            result.output,
        )

    def test_seeded_reruns_byte_identical(self, runner, tmp_path):
        first = self.seeded_run(runner, tmp_path, "one")
        second = self.seeded_run(runner, tmp_path, "two")
        assert first == second

    def test_different_seed_changes_estimate(self, runner, tmp_path):
        base = self.seeded_run(runner, tmp_path, "one")
        outdir = tmp_path / "other"
        result = runner.invoke(
            main,
            ["--output-dir", str(outdir), "oracle",
             "--model", "vasicek", "--maturity", "2.0",
             "--paths", "2000", "--step", "0.02", "--seed", "8"],
        )
        assert result.exit_code == 0
        assert (outdir / "oracle.txt").read_bytes() != base[0]

    def test_vasicek_default_state_is_b_of_the_params(self, runner, tmp_path):
        params = VasicekParams(a=0.8, b=0.031, sigma=0.02)
        fileio.params_to_file(tmp_path / "v.params", "vasicek", params)
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "oracle", "--model", "vasicek",
             "--params", str(tmp_path / "v.params"), "--maturity", "2.0",
             "--paths", "10", "--step", "0.02"],
        )
        assert result.exit_code == 0, result.output
        closed = float(fileio.read_keyvalues(tmp_path / "oracle.txt")["closed"])
        assert closed == vasicek_price(params, params.b, 0.0, 2.0)
        assert closed != vasicek_price(params, VAS.b, 0.0, 2.0)

    def test_step_beyond_maturity_is_domain_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "oracle", "--model", "vasicek",
             "--step", "5", "--paths", "10"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: step 5 too coarse for horizon 3; need at least 50 steps" in result.output
        assert not (tmp_path / "run_log.jsonl").exists()


    def test_more_normals_than_one_block_is_domain_error(self, runner, tmp_path):
        # 256 paths x 65,772 daily steps: just over 2**24 normals
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "oracle", "--model", "vasicek",
             "--maturity", "261", "--paths", "256"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: 256 paths x 65772 draws per path exceed one block" in result.output
        assert not (tmp_path / "run_log.jsonl").exists()


class TestSynth:
    def test_panel_roundtrip(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth",
             "--model", "vasicek", "--n-obs", "50", "--seed", "11"],
        )
        assert result.exit_code == 0, result.output
        panel = fileio.ingest_panel(tmp_path / "panel.csv")
        assert len(panel.observations) == 50
        again = tmp_path / "again.csv"
        fileio.write_panel(again, panel)
        assert again.read_bytes() == (tmp_path / "panel.csv").read_bytes()

    def test_price_above_par_is_domain_error(self, runner, tmp_path):
        # at the CLI-default two-factor parameters seed 7 simulates a state
        # that prices Z1 above 1
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth", "--model", "g2pp",
             "--seed", "7"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "'Z1'" in result.output
        assert "2011-06-27" in result.output
        assert "outside (0, 1]" in result.output
        assert not (tmp_path / "panel.csv").exists()

    def test_g2pp_uses_internal_default_curve(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth",
             "--model", "g2pp", "--n-obs", "30", "--seed", "2"],
        )
        assert result.exit_code == 0, result.output
        panel = fileio.ingest_panel(tmp_path / "panel.csv")
        assert len(panel.instruments) == 2

    @pytest.mark.parametrize("model, state", [
        ("vasicek", ShortRateState(r=0.021)),
        ("g2pp", G2State(x=0.004, y=-0.003)),
    ])
    def test_state_file_is_the_first_observation(self, runner, inputs, tmp_path,
                                                model, state):
        state_path = tmp_path / "start.state"
        fileio.state_to_file(state_path, state)
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth", "--model", model,
             "--params", str(inputs / f"{model}.params"), "--curve",
             str(inputs / "curve.csv"), "--state", str(state_path),
             "--start", ASOF.isoformat(), "--n-obs", "5", "--seed", "4"],
        )
        assert result.exit_code == 0, result.output
        panel = fileio.ingest_panel(tmp_path / "panel.csv")
        params = fileio.params_from_file(inputs / f"{model}.params", model)
        curve = fileio.ingest_curve(inputs / "curve.csv")
        date, quotes = panel.observations[0]
        assert date == ASOF
        for name, mat in panel.instruments:
            tau = year_fraction(ASOF, mat)
            closed = (vasicek_price(params, state.r, 0.0, tau) if model == "vasicek"
                      else g2pp_price(params, curve, state, tau))
            assert quotes[name] == closed

    def test_too_few_observations_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth",
             "--model", "vasicek", "--n-obs", "1"],
        )
        assert result.exit_code == 2

    def test_bad_start_date_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth",
             "--model", "vasicek", "--start", "2012-02-30"],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--start" in result.output
        assert "day is out of range for month" in result.output
        assert not (tmp_path / "panel.csv").exists()

    @pytest.mark.parametrize("model, maturities", [
        ("vasicek", ("30", "40")),
        ("g2pp", ("30",)),
    ])
    def test_maturity_count_other_than_the_factor_count_is_usage_error(
        self, runner, tmp_path, model, maturities
    ):
        # fit-ml inverts exactly one instrument per factor
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth", "--model", model,
             "--n-obs", "20", *(arg for m in maturities for arg in ("--maturity", m))],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        factors = MODELS[model].factors
        assert (f"needs exactly {factors} --maturity value(s), got {len(maturities)}"
                in result.output)
        assert not (tmp_path / "panel.csv").exists()
        assert not (tmp_path / "run_log.jsonl").exists()

    def test_start_date_sets_the_schedule(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "synth", "--model", "vasicek",
             "--n-obs", "3", "--start", "2012-02-29", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        panel = fileio.ingest_panel(tmp_path / "panel.csv")
        assert [d for d, _ in panel.observations] == [
            dt.date(2012, 2, 29), dt.date(2012, 3, 7), dt.date(2012, 3, 14)
        ]
        (entry,) = read_log(tmp_path)
        assert entry["config"]["start"] == "2012-02-29"


class TestModelChoices:
    def test_every_model_choice_list_comes_from_the_table(self):
        choices = {
            name: param.type.choices
            for name, command in main.commands.items()
            for param in command.params
            if param.name == "model"
        }
        assert set(choices) == {
            "fit-ml", "calibrate", "price", "surface", "check-arbitrage", "oracle", "synth"}
        for name in ("price", "surface", "oracle"):
            assert list(choices[name]) == list(MODELS)
        for name in ("fit-ml", "synth"):
            assert list(choices[name]) == fitted_by("ml") == ["vasicek", "g2pp"]
        assert list(choices["calibrate"]) == fitted_by("calibration") == ["holee", "hullwhite"]
        # the analytic dP/dT scan is the two-factor model's own
        assert list(choices["check-arbitrage"]) == ["g2pp"]
        assert all(set(c) <= set(MODELS) for c in choices.values())


class TestArgumentRanges:
    """Out-of-range numbers are usage errors (exit 2) that name the option,
    caught before any work starts."""

    @pytest.mark.parametrize(
        "args, option",
        [
            (["oracle", "--model", "vasicek", "--paths", "1"], "--paths"),
            # paths come in antithetic pairs, and a standard error needs two
            (["oracle", "--model", "vasicek", "--paths", "2"], "--paths"),
            (["oracle", "--model", "vasicek", "--paths", "3"], "--paths"),
            (["oracle", "--model", "vasicek", "--paths", "4001"], "--paths"),
            (["oracle", "--model", "vasicek", "--step", "0"], "--step"),
            (["oracle", "--model", "vasicek", "--step", "-0.01"], "--step"),
            (["oracle", "--model", "vasicek", "--seed", "-1"], "--seed"),
            # one past the largest uint64 Philox key word
            (["oracle", "--model", "vasicek", "--seed", str(2**64)], "--seed"),
            (["synth", "--model", "vasicek", "--seed", "-1"], "--seed"),
            (["synth", "--model", "vasicek", "--seed", str(2**64)], "--seed"),
            (["synth", "--model", "vasicek", "--gap-days", "0"], "--gap-days"),
            (["fit-ml", "--model", "vasicek", "--restarts", "0"], "--restarts"),
            (["fit-ml", "--model", "vasicek", "--seed", "-2"], "--seed"),
            # nan and inf: a finite float is required
            (["oracle", "--model", "vasicek", "--maturity", "nan"], "--maturity"),
            (["oracle", "--model", "vasicek", "--maturity", "inf"], "--maturity"),
            (["oracle", "--model", "vasicek", "--step", "nan"], "--step"),
            (["synth", "--model", "vasicek", "--maturity", "inf"], "--maturity"),
            (["synth", "--model", "vasicek", "--maturity", "nan"], "--maturity"),
            (["price", "--model", "vasicek", "--params", "{vasicek.params}",
              "--state", "{short.state}", "--maturity", "nan"], "--maturity"),
            (["check-arbitrage", "--curve", "{curve.csv}", "--model", "g2pp",
              "--tau-lo", "-inf"], "--tau-lo"),
            (["check-arbitrage", "--curve", "{curve.csv}", "--model", "g2pp",
              "--tau-hi", "nan"], "--tau-hi"),
            (["check-arbitrage"], "--curve"),
            # without --model the audit reads only the curve
            (["check-arbitrage", "--curve", "{curve.csv}",
              "--params", "{vasicek.params}"], "--params"),
            (["check-arbitrage", "--curve", "{curve.csv}", "--state", "{g2.state}"], "--state"),
            (["check-arbitrage", "--curve", "{curve.csv}", "--tau-lo", "3"], "--tau-lo"),
            (["check-arbitrage", "--curve", "{curve.csv}", "--tau-lo", "3",
              "--tau-hi", "1"], "--tau-lo"),
            # the default value, given explicitly, is still given
            (["check-arbitrage", "--curve", "{curve.csv}", "--tau-hi", "25"], "--tau-hi"),
        ],
    )
    def test_out_of_range_is_usage_error(self, runner, inputs, tmp_path, args, option):
        if args[0] == "fit-ml":
            args = [*args, "--panel", str(inputs / "panel.csv")]
        # "{name}" stands for the input file of that name
        args = [str(inputs / a[1:-1]) if a.startswith("{") else a for a in args]
        result = runner.invoke(main, ["--output-dir", str(tmp_path), *args])
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "run_log.jsonl").exists()

    def test_model_option_from_a_config_file_needs_model(self, runner, inputs, tmp_path):
        # a config value is given as much as a flag is
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau_hi=10.0\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "check-arbitrage",
             "--curve", str(inputs / "curve.csv")],
        )
        assert result.exit_code == 2, result.output
        assert "--tau-hi needs --model" in result.output
        assert not (tmp_path / "run_log.jsonl").exists()

    def test_odd_path_count_names_the_pairs(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "oracle", "--model", "vasicek", "--paths", "5"],
        )
        assert result.exit_code == 2
        assert "Invalid value for '--paths': 5 is odd; paths come in antithetic pairs" in (
            result.output
        )

    def test_paths_help_says_the_count_is_even(self, runner):
        result = runner.invoke(main, ["oracle", "--help"])
        assert result.exit_code == 0, result.output
        # click wraps the help column; compare it with the wrapping undone
        text = " ".join(result.output.split())
        assert (
            "--paths INTEGER RANGE Even number of Monte-Carlo paths, drawn in "
            "antithetic pairs. [default: 100000; x>=4]"
        ) in text

    def test_config_value_is_range_checked(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_paths=1\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "oracle",
             "--model", "vasicek"],
        )
        assert result.exit_code == 2
        assert "--paths" in result.output

    def test_config_value_must_be_finite(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("maturity=inf\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "oracle",
             "--model", "vasicek"],
        )
        assert result.exit_code == 2
        assert "Invalid value for '--maturity'" in result.output

    def test_largest_seed_runs(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "oracle", "--model", "vasicek",
             "--maturity", "1.0", "--paths", "10", "--step", "0.02",
             "--seed", str(2**64 - 1)],
        )
        assert result.exit_code == 0, result.output
        (entry,) = read_log(tmp_path)
        assert entry["seed"] == 2**64 - 1


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, runner, inputs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("restarts=2\nseed=9\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "fit-ml",
             "--model", "vasicek", "--panel", str(inputs / "panel.csv")],
        )
        assert result.exit_code == 0, result.output
        (entry,) = read_log(tmp_path)
        assert entry["config"]["restarts"] == 2
        assert entry["config"]["seed"] == 9

    def test_explicit_flag_beats_config(self, runner, inputs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\nrestarts=2\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "fit-ml",
             "--model", "vasicek", "--panel", str(inputs / "panel.csv"),
             "--seed", "4"],
        )
        assert result.exit_code == 0, result.output
        (entry,) = read_log(tmp_path)
        assert entry["config"]["seed"] == 4
        assert entry["config"]["restarts"] == 2

    def test_unknown_config_keys_are_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_path=7\nseed=3\nmodle=g2pp\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "synth",
             "--model", "vasicek", "--n-obs", "5"],
        )
        assert result.exit_code == 2
        assert "n_path" in result.output
        assert "modle" in result.output
        assert "'seed'" not in result.output
        assert not (tmp_path / "panel.csv").exists()

    def test_valid_config_key_still_applies(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_obs=5\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--output-dir", str(tmp_path), "synth",
             "--model", "vasicek"],
        )
        assert result.exit_code == 0, result.output
        (entry,) = read_log(tmp_path)
        assert entry["config"]["n_obs"] == 5

    def test_output_dir_from_config(self, runner, inputs, tmp_path):
        outdir = tmp_path / "from-config"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output_dir={outdir}\n")
        result = runner.invoke(
            main,
            ["--config", str(cfg), "price",
             "--model", "vasicek", "--params", str(inputs / "vasicek.params"),
             "--state", str(inputs / "short.state"), "--maturity", "2.0"],
        )
        assert result.exit_code == 0, result.output
        assert (outdir / "price.txt").exists()


class TestOutputDirEnvVar:
    def test_env_var_default(self, runner, inputs, tmp_path):
        outdir = tmp_path / "via-env"
        result = runner.invoke(
            main,
            ["price", "--model", "vasicek",
             "--params", str(inputs / "vasicek.params"),
             "--state", str(inputs / "short.state"), "--maturity", "2.0"],
            env={"CURVEFORGE_OUTPUT_DIR": str(outdir)},
        )
        assert result.exit_code == 0, result.output
        assert (outdir / "price.txt").exists()
        assert (outdir / "run_log.jsonl").exists()

    def test_flag_beats_env_var(self, runner, inputs, tmp_path):
        flagged = tmp_path / "flagged"
        ignored = tmp_path / "ignored"
        result = runner.invoke(
            main,
            ["--output-dir", str(flagged), "price",
             "--model", "vasicek", "--params", str(inputs / "vasicek.params"),
             "--state", str(inputs / "short.state"), "--maturity", "2.0"],
            env={"CURVEFORGE_OUTPUT_DIR": str(ignored)},
        )
        assert result.exit_code == 0
        assert (flagged / "price.txt").exists()
        assert not ignored.exists()


class TestRunLog:
    def test_appends_one_line_per_run(self, runner, inputs, tmp_path):
        for _ in range(2):
            result = runner.invoke(
                main,
                ["--output-dir", str(tmp_path), "price",
                 "--model", "vasicek", "--params", str(inputs / "vasicek.params"),
                 "--state", str(inputs / "short.state"), "--maturity", "2.0"],
            )
            assert result.exit_code == 0
        lines = (tmp_path / "run_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]  # no timestamps: identical runs, identical lines

    def test_entry_is_replayable(self, runner, inputs, tmp_path):
        result = runner.invoke(
            main,
            ["--output-dir", str(tmp_path), "oracle",
             "--model", "vasicek", "--maturity", "1.5",
             "--paths", "1000", "--step", "0.01", "--seed", "3"],
        )
        assert result.exit_code == 0
        (entry,) = read_log(tmp_path)
        cfg = entry["config"]
        replay_dir = tmp_path / "replay"
        replay = runner.invoke(
            main,
            ["--output-dir", str(replay_dir), "oracle",
             "--model", cfg["model"], "--maturity", str(cfg["maturity"]),
             "--paths", str(cfg["n_paths"]), "--step", str(cfg["step"]),
             "--seed", str(cfg["seed"])],
        )
        assert replay.exit_code == 0
        assert (replay_dir / "oracle.txt").read_bytes() == (
            tmp_path / "oracle.txt"
        ).read_bytes()
