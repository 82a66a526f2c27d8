"""The benchmark's tracer wraps module attributes of the package by name
(benchmarks/tracer.py).  A refactor that moves or drops one of them breaks
every traced benchmark run; these tests catch that in seconds."""

import contextlib
import datetime as dt
import importlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

import curveforge
import curveforge.cli
import curveforge.estimation
from curveforge import fileio
from curveforge.curve import flat_curve
from curveforge.daycount import year_fraction
from curveforge.diagnostics import (
    _BISECT_LEVELS,
    _BISECT_STEPS,
    MATURITY_GRID,
    find_increasing_price_state,
)
from curveforge.estimation import StateSeries
from curveforge.hjm import HoLeeParams, HullWhiteParams, holee_price, hullwhite_price
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import G2Params, G2State

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def new_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    # workloads.Evaluations replaces estimation.minimize for good; put the
    # original back after the test
    monkeypatch.setattr(curveforge.estimation, "minimize", curveforge.estimation.minimize)
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    tracer = tracer_mod.Tracer()
    tracer.install(workloads.Evaluations())
    return tracer


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer = new_tracer(monkeypatch)
    wrapped = list(tracer._restore)
    try:
        assert wrapped
        for owner, name, original in wrapped:
            assert getattr(owner, name) is not original, f"{owner}.{name} not wrapped"
    finally:
        tracer.uninstall()
    for owner, name, original in wrapped:
        assert getattr(owner, name) is original, f"{owner}.{name} not restored"


def test_every_exported_name_resolves():
    missing = [name for name in curveforge.__all__ if not hasattr(curveforge, name)]
    assert missing == []


def test_traced_calibrate_counts_objective_price_and_curve_calls(monkeypatch, tmp_path):
    """The calibrate workload's traced counters must move: ls_objective is
    reached through calibration's module global, the prices through
    calibration's holee_price, and the lookups through DiscountCurve."""
    asof = dt.date(2013, 1, 7)
    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=asof)
    fileio.write_curve(tmp_path / "curve.csv", curve)
    sections = []
    for weeks in (60, 61):
        date = asof + dt.timedelta(weeks=weeks)
        t = year_fraction(asof, date)
        quotes = [(tau, holee_price(HoLeeParams(sigma=0.02), curve, 0.05, t, t + tau))
                  for tau in (0.25, 1.0, 5.0, 10.0)]
        sections.append((date, quotes))
    fileio.write_cross_sections(tmp_path / "sections.csv", sections)

    tracer = new_tracer(monkeypatch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            curveforge.cli.main(
                ["--output-dir", str(tmp_path), "calibrate", "--model", "holee",
                 "--cross-section", str(tmp_path / "sections.csv"),
                 "--curve", str(tmp_path / "curve.csv")],
                standalone_mode=False,
            )
    finally:
        tracer.uninstall()
    for name in ("cli.main", "calibration.calibrate", "calibration.ls_objective",
                 "hjm.holee_price", "curve.log_discount", "curve.forward"):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["hjm.holee_price"] == tracer.calls["calibration.ls_objective"]


def test_traced_calibrate_looks_each_curve_up_once_per_search(monkeypatch, tmp_path):
    """The Ho-Lee search evaluates each section's prepared objective, which
    looks its curve up once (log D at the maturities and at the date, the
    forward at the date); the reference evaluation of the chosen sigma
    looks it up once more.  So the lookups and the ls_objective calls grow
    with the dates, not with the search's evaluations."""
    asof = dt.date(2013, 1, 7)
    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=asof)
    fileio.write_curve(tmp_path / "curve.csv", curve)
    dates = [asof + dt.timedelta(weeks=weeks) for weeks in (60, 61)]
    sections = []
    for date in dates:
        t = year_fraction(asof, date)
        quotes = [(tau, holee_price(HoLeeParams(sigma=0.02), curve, 0.05, t, t + tau))
                  for tau in (0.25, 1.0, 5.0, 10.0)]
        sections.append((date, quotes))
    fileio.write_cross_sections(tmp_path / "sections.csv", sections)
    tracer = traced_command(
        monkeypatch,
        ["--output-dir", str(tmp_path), "calibrate", "--model", "holee",
         "--cross-section", str(tmp_path / "sections.csv"),
         "--curve", str(tmp_path / "curve.csv")],
    )
    assert tracer.calls["calibration.calibrate"] == len(dates)
    assert tracer.calls["calibration.ls_objective"] == len(dates)
    assert tracer.calls["hjm.holee_price"] == len(dates)
    assert tracer.calls["curve.log_discount"] == 2 * 2 * len(dates)
    assert tracer.calls["curve.forward"] == 2 * len(dates)
    assert tracer.count["calibration.nfev"] == len(dates)


def test_traced_hullwhite_calibrate_counts_each_dates_refines(monkeypatch, tmp_path):
    """A Hull-White calibrate refines its profile in a through calibration's
    ``minimize``, which the tracer replaces: every date runs at least one
    traced refine, each of whose evaluations is counted.  The curve is
    still looked up once per search and once for the reference objective,
    not once per a."""
    asof = dt.date(2013, 1, 7)
    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=asof)
    fileio.write_curve(tmp_path / "curve.csv", curve)
    params = HullWhiteParams(a=0.08, sigma=0.02)
    dates = [asof + dt.timedelta(weeks=weeks) for weeks in (60, 61)]
    sections = []
    for date in dates:
        t = year_fraction(asof, date)
        quotes = [(tau, hullwhite_price(params, curve, 0.05, t, t + tau))
                  for tau in (0.25, 1.0, 5.0, 10.0)]
        sections.append((date, quotes))
    fileio.write_cross_sections(tmp_path / "sections.csv", sections)
    tracer = traced_command(
        monkeypatch,
        ["--output-dir", str(tmp_path), "calibrate", "--model", "hullwhite",
         "--cross-section", str(tmp_path / "sections.csv"),
         "--curve", str(tmp_path / "curve.csv")],
    )
    date_spans = [i for i, span in enumerate(tracer.spans) if span["name"] == "date"]
    assert len(date_spans) == len(dates)
    for i in date_spans:
        assert any(span["name"] == "restart" and span["parent"] == i
                   for span in tracer.spans)
    assert tracer.count["calibration.nfev"] == tracer.calls["calibration.objective"]
    assert tracer.count["calibration.nfev"] >= len(dates)
    assert tracer.count["calibration.converged_dates"] == len(dates)
    assert tracer.calls["calibration.ls_objective"] == len(dates)
    assert tracer.calls["hjm.hullwhite_price"] == len(dates)
    assert tracer.calls["curve.log_discount"] == 2 * 2 * len(dates)
    assert tracer.calls["curve.forward"] == 2 * len(dates)


@pytest.mark.parametrize("model, factors", [("vasicek", 1), ("g2pp", 2)])
def test_traced_oracle_counts_every_normal(monkeypatch, tmp_path, model, factors):
    """The oracle workload's rng counters must move: mc_zero_price draws its
    normals through montecarlo's normal_block, one per antithetic pair (two
    paths), step and factor."""
    n_paths, maturity, step = 600, 3.0, 1.0 / 252.0
    tracer = new_tracer(monkeypatch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            curveforge.cli.main(
                ["--output-dir", str(tmp_path), "oracle", "--model", model,
                 "--paths", str(n_paths)],
                standalone_mode=False,
            )
    finally:
        tracer.uninstall()
    assert tracer.calls["montecarlo.mc_zero_price"] == 1
    assert tracer.calls["rng.normal_block"] > 0
    n_steps = math.ceil(maturity / step)
    assert tracer.count["montecarlo.path_steps"] == n_paths * n_steps
    assert tracer.count["rng.normals"] == n_paths // 2 * n_steps * factors


def traced_command(monkeypatch, argv):
    """Run one CLI command in-process under a fresh tracer; return it."""
    tracer = new_tracer(monkeypatch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            curveforge.cli.main(argv, standalone_mode=False)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_surface_and_audits_count_writes_and_derivative_calls(
    monkeypatch, tmp_path
):
    """The surface workload's counters: one surface write per surface, two
    writes per audit (the CSV and the text), and one derivative call for
    the scan plus at most one per _BISECT_LEVELS bisection steps, so at most
    1 + ceil(_BISECT_STEPS / _BISECT_LEVELS) = 9.  The CLI reaches every
    writer through the fileio module, so replacing a module attribute sees
    the call."""
    asof = dt.date(2013, 1, 7)
    curve = flat_curve(0.04, span=50.0, n_pillars=50, asof=asof)
    fileio.write_curve(tmp_path / "curve.csv", curve)
    fileio.params_to_file(tmp_path / "g2pp.params", "g2pp",
                          G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4))
    weeks = 30
    states = StateSeries(
        times=np.arange(weeks) / 52.0,
        values=np.column_stack((np.linspace(-0.01, 0.01, weeks), np.zeros(weeks))),
        dates=[asof + dt.timedelta(weeks=k) for k in range(weeks)],
    )
    fileio.write_states(tmp_path / "states.csv", states)
    tracer = traced_command(
        monkeypatch,
        ["--output-dir", str(tmp_path), "surface", "--model", "g2pp",
         "--params", str(tmp_path / "g2pp.params"),
         "--states", str(tmp_path / "states.csv"),
         "--curve", str(tmp_path / "curve.csv")],
    )
    assert tracer.calls["fileio.write_surface"] == 1
    assert tracer.count["fileio.write_calls"] == 1
    assert tracer.count["diagnostics.cells"] == weeks * len(MATURITY_GRID)

    rendered = []
    render = fileio.render_arbitrage_text

    def counted_render(report):
        rendered.append(report)
        return render(report)

    monkeypatch.setattr(fileio, "render_arbitrage_text", counted_render)
    inverting, _, _ = find_increasing_price_state(
        curveforge.cli._DEFAULT_PARAMS["g2pp"], curve)
    for j, state in enumerate((G2State(0.0, 0.0, 0.0), inverting)):
        fileio.state_to_file(tmp_path / f"audit{j}.state", state)
        tracer = traced_command(
            monkeypatch,
            ["--output-dir", str(tmp_path), "check-arbitrage", "--model", "g2pp",
             "--state", str(tmp_path / f"audit{j}.state"),
             "--curve", str(tmp_path / "curve.csv")],
        )
        assert tracer.calls["fileio.write_arbitrage"] == 1
        assert tracer.count["fileio.write_calls"] == 2
        assert len(rendered) == j + 1
        assert 1 <= tracer.calls["diagnostics.g2pp_dPdT"] <= 1 + math.ceil(
            _BISECT_STEPS / _BISECT_LEVELS)
    # the inverting state has brackets to bisect, all in one call per
    # _BISECT_LEVELS steps
    assert rendered[-1].derivative_sign_changes
    assert tracer.calls["diagnostics.g2pp_dPdT"] > 1


def test_traced_fit_looks_the_curve_up_once_per_fit(monkeypatch, tmp_path):
    """The fit workload's curve counters must move, and only per fit: the
    two-factor likelihood takes its curve terms (log D at the dates and at
    both maturities) once per panel, so the lookups do not grow with the
    number of likelihood evaluations."""
    asof = dt.date(2013, 1, 7)
    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=asof)
    fileio.write_curve(tmp_path / "curve.csv", curve)
    panel = synth_panel(
        "g2pp", G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4),
        [asof + dt.timedelta(weeks=k) for k in range(20)],
        [("12Y", dt.date(2025, 1, 6)), ("20Y", dt.date(2033, 1, 3))],
        curve=curve, seed=0,
    )
    fileio.write_panel(tmp_path / "panel.csv", panel)
    seen = []
    for restarts in (1, 2):
        tracer = traced_command(
            monkeypatch,
            ["--output-dir", str(tmp_path), "fit-ml", "--model", "g2pp",
             "--panel", str(tmp_path / "panel.csv"),
             "--curve", str(tmp_path / "curve.csv"), "--restarts", str(restarts)],
        )
        assert tracer.calls["estimation.fit_ml"] == 1
        seen.append((tracer.count["estimation.nfev"], tracer._layer_calls("curve")))
    (nfev_1, curve_1), (nfev_2, curve_2) = seen
    assert 0 < nfev_1 < nfev_2
    # one lookup at the observation dates and one per maturity
    assert curve_1 == curve_2 == 3


def test_traced_fit_counts_points_not_calls(monkeypatch, tmp_path):
    """fit_ml runs its restarts as one lockstep search, one estimation.minimize
    call per fit that evaluates many points per objective call.  The fit's
    unit of work stays the likelihood evaluation: the traced
    ``estimation.nfev`` is the sum of the restarts' point counts, equal to
    what an untraced ``workloads.Evaluations`` counts, and the traced
    ``estimation.nit`` is the report's ``iterations``."""
    asof = dt.date(2013, 1, 7)
    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=asof)
    fileio.write_curve(tmp_path / "curve.csv", curve)
    panel = synth_panel(
        "g2pp", G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4),
        [asof + dt.timedelta(weeks=k) for k in range(20)],
        [("12Y", dt.date(2025, 1, 6)), ("20Y", dt.date(2033, 1, 3))],
        curve=curve, seed=0,
    )
    fileio.write_panel(tmp_path / "panel.csv", panel)
    argv = ["fit-ml", "--model", "g2pp", "--panel", str(tmp_path / "panel.csv"),
            "--curve", str(tmp_path / "curve.csv"), "--restarts", "3"]
    searches = []
    search = curveforge.estimation.minimize

    def recorded(fun, x0):
        searches.append(search(fun, x0))
        return searches[-1]

    monkeypatch.setattr(curveforge.estimation, "minimize", recorded)
    tracer = traced_command(monkeypatch, ["--output-dir", str(tmp_path / "traced"), *argv])
    (res,) = searches
    assert len(res.restart_nfev) == 3
    assert tracer.count["estimation.nfev"] == sum(res.restart_nfev) == res.nfev
    assert tracer.calls["estimation.objective"] < res.nfev
    report = fileio.read_keyvalues(tmp_path / "traced" / "fit_report.txt")
    assert tracer.count["estimation.nit"] == int(report["iterations"]) == res.nit

    monkeypatch.syspath_prepend(str(BENCHMARKS))
    evaluations = importlib.import_module("workloads").Evaluations()
    with contextlib.redirect_stdout(io.StringIO()):
        curveforge.cli.main(["--output-dir", str(tmp_path / "untraced"), *argv],
                            standalone_mode=False)
    assert evaluations.total == tracer.count["estimation.nfev"]
    assert len(searches) == 2
