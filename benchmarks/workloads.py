"""The four workloads: their inputs, their CLI commands and their checks.

Inputs are written by this file from the workload seed alone, before any
timing starts; the program only ever sees the generated files.  Each
workload is a fixed list of commands (one "round").  A command belongs to a
kind (``oracle:g2pp``, ``fit-ml:vasicek``, ...) and reports how many units
of work it did: simulated paths, likelihood evaluations, calibrated dates,
priced cells or audited states.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import curveforge.estimation
from curveforge import fileio
from curveforge.calibration import CrossSection, ls_objective
from curveforge.estimation import loglik_g2pp, loglik_vasicek
from curveforge.hjm import HoLeeParams, holee_price, hullwhite_price
from curveforge.shortrate import G2State, g2pp_price, vasicek_price

ASOF0 = dt.date(2013, 1, 7)
FLAT_RATE = 0.04
# the standard 14-tenor surface grid (diagnostics.MATURITY_GRID), restated
# so that the generated inputs do not depend on the program
TENORS = (1 / 12, 2 / 12, 3 / 12, 6 / 12, 9 / 12, 1.0, 2.0, 3.0, 5.0, 7.0,
          10.0, 15.0, 20.0, 25.0)
# The CLI's built-in parameter values, except for the two-factor model: its
# default (sigma 0.21, eta 0.49, rho -0.99) prices long bonds above 1 for
# some states, which is what check-arbitrage exists to find.  Surfaces and
# fits use the README example instead, whose prices stay inside (0, 1].
SURFACE_PARAMS = {
    "vasicek": {"a": 1.7051, "b": 0.0937, "sigma": 0.3721},
    "g2pp": {"a": 0.3, "b": 0.6, "sigma": 0.03, "eta": 0.02, "rho": 0.4},
    "holee": {"sigma": 0.3071},
    "hullwhite": {"a": 0.0813, "sigma": 0.0215},
}
EVALUATIONS = "likelihood evaluations"

# A Monte-Carlo case is checked at |closed - mc| < ORACLE_Z_LIMIT * stderr.
# A correct simulator exceeds 3 standard errors in 0.27% of cases, so a
# 3-sigma gate would fail about one seed in a hundred here by chance; 4
# sigma (6e-5 per case) keeps the gate on real bias.  Cases beyond 3
# standard errors are still counted and printed.
ORACLE_Z_LIMIT = 4.0
ORACLE_PATHS = 45_000  # three normals blocks for a one-factor case
CALIBRATE_DATES = 52
CALIBRATE_NOISE = 1e-5
HOLEE_SIGMA = 0.0215
SURFACE_WEEKS = 800
ARBITRAGE_STATES = 4
SURFACE_SAMPLES = 40
SURFACE_RTOL = 1e-12


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]  # paths to earlier artifacts are round-relative
    units: int | str  # a fixed count, or EVALUATIONS counted while it runs;
    # kinds with no units run and are checked but do not enter work_per_s


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class Evaluations:
    """The one pass-through of ``curveforge.estimation.minimize``: sums
    ``res.nfev`` over every fit_ml optimizer restart, one wrapper call per
    restart.  A tracer may set ``inner``, a function
    ``(minimize, fun, x0, *args, **kwargs) -> res``, to see each restart."""

    def __init__(self):
        self.total = 0
        self.inner = None
        original = curveforge.estimation.minimize

        def minimize(*args, **kwargs):
            if self.inner is None:
                res = original(*args, **kwargs)
            else:
                res = self.inner(original, *args, **kwargs)
            self.total += int(res.nfev)
            return res

        curveforge.estimation.minimize = minimize


# -- input writers ------------------------------------------------------------


def write_text(path: Path, lines) -> str:
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_flat_curve(path: Path, span: int, asof: dt.date | None = None) -> str:
    lines = [f"# asof={asof.isoformat()}"] if asof else []
    lines.append("tau,discount_factor")
    for i in range(1, span + 1):
        lines.append(f"{float(i)!r},{math.exp(-FLAT_RATE * i)!r}")
    return write_text(path, lines)


def write_params(path: Path, model: str, values: dict) -> str:
    return write_text(path, [f"model={model}"] + [f"{k}={v!r}" for k, v in values.items()])


def years(date: dt.date) -> float:
    """ACT/365F years from the curve date."""
    return (date - ASOF0).days / 365.0


def ar1_path(rng, n, level, sd, persistence=0.98):
    """Stationary Gaussian AR(1) path around ``level``."""
    x = np.empty(n)
    x[0] = rng.normal(0.0, sd)
    shock = sd * math.sqrt(1.0 - persistence**2)
    for k in range(1, n):
        x[k] = persistence * x[k - 1] + rng.normal(0.0, shock)
    return level + x


def read_log(outdir: Path) -> list[str]:
    return (outdir / "run_log.jsonl").read_text().splitlines()


def last_log_entry(outdir: Path) -> dict:
    return json.loads(read_log(outdir)[-1])


# -- workloads ----------------------------------------------------------------


class Workload:
    """Inputs under ``workdir/inputs``; commands; checks of one round."""

    name = ""
    repeat = 0  # index of the command re-run for the determinism check

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        salt = sorted(WORKLOADS).index(self.name)
        self.rng = np.random.default_rng([seed, salt])
        self.commands: list[Command] = []
        self.info: dict[str, float] = {}

    def check(self, rdir: Path) -> list[Check]:
        raise NotImplementedError

    def headline(self, work: dict, rounds: int) -> tuple[str, float, str]:
        """The workload's own throughput over its whole raw command time."""
        name, unit, prefix = self.headline_spec
        wall = sum(entry[1] for entry in work.values())
        units = sum(entry[0] for kind, entry in work.items() if kind.startswith(prefix))
        return name, units / wall, unit


class Oracle(Workload):
    """Monte-Carlo oracle for the four models at CLI defaults."""

    name = "oracle"
    headline_spec = ("oracle.paths_per_s", "paths/s", "oracle:")
    models = ("hullwhite", "vasicek", "holee", "g2pp")

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        for i, model in enumerate(self.models):
            mc_seed = len(self.models) * seed + i
            self.commands.append(Command(
                f"oracle:{model}",
                ("oracle", "--model", model, "--paths", str(ORACLE_PATHS),
                 "--seed", str(mc_seed)),
                ORACLE_PATHS))

    def check(self, rdir):
        checks = []
        beyond_3se = 0
        for i, model in enumerate(self.models):
            out = fileio.read_keyvalues(rdir / f"c{i}" / "oracle.txt")
            closed, mc, se = (float(out[k]) for k in ("closed", "mc_value", "mc_stderr"))
            z = (mc - closed) / se
            beyond_3se += abs(z) >= 3.0
            checks.append(Check(f"oracle.{model}.closed_vs_mc",
                                abs(z) < ORACLE_Z_LIMIT, f"z={z:+.3f}"))
        self.info["oracle.cases_beyond_3se"] = beyond_3se
        return checks


class Fit(Workload):
    """synth a weekly panel per model and fit it back by exact ML."""

    name = "fit"
    repeat = 2  # synth vasicek
    # The README two-factor example and a fast-reverting one-factor model:
    # a 260-week panel identifies both well enough that fit_ml converged off
    # the search-box boundary on each of seeds 0-39.  (At the CLI defaults,
    # synth g2pp raises an uncaught ValueError on some seeds, e.g. 7, and
    # the vasicek fit stops unconverged on seeds 4 and 34.)
    params = {
        "g2pp": SURFACE_PARAMS["g2pp"],
        "vasicek": {"a": 5.0, "b": 0.05, "sigma": 0.1},
    }

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.curve = write_flat_curve(self.inputs / "curve.csv", span=80)
        self.param_files = {m: write_params(self.inputs / f"{m}.params", m, v)
                            for m, v in self.params.items()}
        s = str(seed)
        for i, model in enumerate(("g2pp", "vasicek")):
            # synth and its fit form one kind, so a slower synth shows too.
            # Only the two-factor evaluations count as work: a one-factor
            # evaluation is so cheap that the optimizer's own per-iteration
            # cost, which varies with the seed, makes its rate spread ~19%.
            kind = f"synth+fit-ml:{model}"
            work = EVALUATIONS if model == "g2pp" else 0
            curve = ("--curve", self.curve) if model == "g2pp" else ()
            self.commands.append(Command(
                kind,
                ("synth", "--model", model, "--params", self.param_files[model],
                 "--seed", s) + curve,
                0))
            self.commands.append(Command(
                kind,
                ("fit-ml", "--model", model, "--panel", f"c{2 * i}/panel.csv",
                 "--seed", s) + curve,
                work))

    def check(self, rdir):
        checks = []
        curve = fileio.ingest_curve(self.curve)
        margin = 0.0
        for i, model in enumerate(("g2pp", "vasicek")):
            report = fileio.read_keyvalues(rdir / f"c{2 * i + 1}" / "fit_report.txt")
            panel = fileio.ingest_panel(rdir / f"c{2 * i}" / "panel.csv")
            truth = fileio.params_from_file(self.param_files[model], model)
            if model == "g2pp":
                ll_true = loglik_g2pp(truth, curve, panel)
            else:
                ll_true = loglik_vasicek(truth, panel)
            ll_fit = float(report["loglik"])
            margin += ll_fit - ll_true
            checks.append(Check(f"fit.{model}.converged", report["converged"] == "true",
                                f"converged={report['converged']}"))
            checks.append(Check(f"fit.{model}.off_boundary", report["boundary"] == "false",
                                f"boundary={report['boundary']}"))
            checks.append(Check(f"fit.{model}.loglik_at_least_truth", ll_fit >= ll_true,
                                f"fitted {ll_fit:.6f} vs generating {ll_true:.6f}"))
        self.info["fit.loglik_margin"] = margin
        return checks

    def headline(self, work, rounds):
        wall = sum(entry[1] for entry in work.values())
        return "fit.fits_per_min", 60.0 * 2 * rounds / wall, "fits/min"


class Calibrate(Workload):
    """Weekly Ho-Lee cross-sections on the 14-tenor grid, one year long."""

    name = "calibrate"
    headline_spec = ("calibrate.dates_per_s", "dates/s", "calibrate:")

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.curve = write_flat_curve(self.inputs / "curve.csv", span=40, asof=ASOF0)
        rows = ["date,maturity_years,zero_price"]
        sigma2 = HOLEE_SIGMA**2
        for k in range(CALIBRATE_DATES):
            # dates in the second year after the curve date, short rate
            # swinging +-1.5% around the curve level
            asof = ASOF0 + dt.timedelta(weeks=53 + k)
            t = years(asof)
            r = FLAT_RATE + 0.015 * math.sin(2.0 * math.pi * k / CALIBRATE_DATES)
            for tau in TENORS:
                # Ho-Lee price off a flat curve: exp(-sigma^2 t tau^2 / 2 - tau r)
                price = math.exp(-0.5 * sigma2 * t * tau * tau - tau * r)
                price += self.rng.normal(0.0, CALIBRATE_NOISE)
                rows.append(f"{asof.isoformat()},{tau!r},{price!r}")
        self.sections = write_text(self.inputs / "sections.csv", rows)
        self.commands.append(Command(
            "calibrate:holee",
            ("calibrate", "--model", "holee", "--cross-section", self.sections,
             "--curve", self.curve),
            CALIBRATE_DATES))

    def check(self, rdir):
        checks = []
        series = fileio.ingest_calibration(rdir / "c0" / "calibration.csv")
        curve = fileio.ingest_curve(self.curve)
        sections = fileio.ingest_cross_sections(self.sections)
        truth = HoLeeParams(sigma=HOLEE_SIGMA)
        objectives = []
        worse = []
        for rec, (date, quotes) in zip(series.records, sections):
            xs = CrossSection(asof=date, quotes=list(quotes), curve=curve)
            at_truth = ls_objective("holee", truth, xs)
            objectives.append(rec.objective)
            if not rec.objective <= at_truth:
                worse.append(date.isoformat())
        checks.append(Check("calibrate.dates", len(series.records) == CALIBRATE_DATES,
                            f"{len(series.records)} dates"))
        checks.append(Check("calibrate.all_converged",
                            all(rec.converged for rec in series.records), ""))
        checks.append(Check("calibrate.objective_at_most_truth", not worse,
                            f"worse than generating params on {worse}"))
        self.info["calibrate.rmse"] = math.sqrt(float(np.mean(objectives)))
        return checks


class Surface(Workload):
    """Price one long weekly state series on the tenor grid for every
    model, then audit a handful of two-factor states for arbitrage."""

    name = "surface"
    headline_spec = ("surface.cells_per_s", "cells/s", "surface:")
    models = ("vasicek", "g2pp", "holee", "hullwhite")

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        # covers the last state date plus the 25y tenor
        self.curve = write_flat_curve(self.inputs / "curve.csv", span=50, asof=ASOF0)
        self.param_files = {m: write_params(self.inputs / f"{m}.params", m, v)
                            for m, v in SURFACE_PARAMS.items()}
        dates = [ASOF0 + dt.timedelta(weeks=k) for k in range(SURFACE_WEEKS)]
        r, x, y = (ar1_path(self.rng, SURFACE_WEEKS, level, 0.005).tolist()
                   for level in (FLAT_RATE, 0.0, 0.0))
        self.states = {
            "r": write_text(self.inputs / "states_r.csv", ["date,time,r"] + [
                f"{d.isoformat()},{years(d)!r},{v!r}" for d, v in zip(dates, r)]),
            "xy": write_text(self.inputs / "states_xy.csv", ["date,time,x,y"] + [
                f"{d.isoformat()},{years(d)!r},{a!r},{b!r}"
                for d, a, b in zip(dates, x, y)]),
        }
        for model in self.models:
            states = self.states["xy" if model == "g2pp" else "r"]
            curve = () if model == "vasicek" else ("--curve", self.curve)
            self.commands.append(Command(
                f"surface:{model}",
                ("surface", "--model", model, "--params", self.param_files[model],
                 "--states", states) + curve,
                SURFACE_WEEKS * len(TENORS)))
        picks = np.linspace(0, SURFACE_WEEKS - 1, ARBITRAGE_STATES).astype(int)
        self.audit_times = []
        for j, k in enumerate(picks):
            state = write_text(self.inputs / f"audit{j}.state", [
                f"x={x[k]!r}", f"y={y[k]!r}", f"t={years(dates[k])!r}"])
            self.audit_times.append(years(dates[k]))
            self.commands.append(Command(
                "check-arbitrage:g2pp",
                ("check-arbitrage", "--model", "g2pp", "--state", state,
                 "--curve", self.curve),
                1))

    def _scalar_price(self, model, params, curve, states, i, tau):
        t = float(states.times[i])
        if model == "vasicek":
            return vasicek_price(params, float(states.values[i]), t, t + tau)
        if model == "g2pp":
            x, y = states.values[i]
            return g2pp_price(params, curve, G2State(float(x), float(y), t), t + tau)
        price = holee_price if model == "holee" else hullwhite_price
        return price(params, curve, float(states.values[i]), t, t + tau)

    def check(self, rdir):
        checks = []
        curve = fileio.ingest_curve(self.curve)
        sample_rng = np.random.default_rng(self.seed)
        for i, model in enumerate(self.models):
            outdir = rdir / f"c{i}"
            path = outdir / "surface.csv"
            surface = fileio.ingest_surface(path)
            values = surface.values
            in_range = bool(np.all(np.isfinite(values)) and np.all(values > 0.0)
                            and np.all(values <= 1.0))
            missing = last_log_entry(outdir)["results"]["missing_cells"]
            checks.append(Check(f"surface.{model}.cells_in_unit_interval",
                                in_range and missing == 0 and values.shape ==
                                (SURFACE_WEEKS, len(TENORS)),
                                f"shape {values.shape}, {missing} missing cells"))
            params = fileio.params_from_file(self.param_files[model], model)
            states = fileio.ingest_states(self.states["xy" if model == "g2pp" else "r"])
            worst = 0.0
            for _ in range(SURFACE_SAMPLES):
                row = int(sample_rng.integers(SURFACE_WEEKS))
                col = int(sample_rng.integers(len(TENORS)))
                ref = self._scalar_price(model, params, curve, states, row, TENORS[col])
                worst = max(worst, abs(values[row, col] - ref) / ref)
            checks.append(Check(f"surface.{model}.matches_scalar_prices",
                                worst <= SURFACE_RTOL, f"worst relative error {worst:.3g}"))
            with tempfile.TemporaryDirectory(dir=rdir) as tmp:
                again = Path(tmp) / "surface.csv"
                fileio.write_surface(again, surface)
                same = again.read_bytes() == path.read_bytes()
            checks.append(Check(f"surface.{model}.reingests_identically", same, ""))
        for j, t in enumerate(self.audit_times):
            outdir = rdir / f"c{len(self.models) + j}"
            report = fileio.ingest_arbitrage(outdir / "arbitrage.csv")
            logged = last_log_entry(outdir)["results"]
            checks.append(Check(f"surface.audit{j}.report",
                                logged["violations"] == len(report.violations),
                                f"t={t:.3f}: {len(report.violations)} violations, "
                                f"{logged['sign_changes']} derivative sign changes"))
        return checks


WORKLOADS = {w.name: w for w in (Oracle, Fit, Calibrate, Surface)}


def round_argv(command: Command, index: int) -> list[str]:
    """Arguments of one command, run from its round directory: artifacts go
    to ``c<index>``, so every round logs the same configuration."""
    return ["--output-dir", f"c{index}", *command.argv]
