"""Per-layer tracing installed from outside the package.

Every wrapper replaces a module attribute on the module that does the
calling (``curveforge.montecarlo.normal_block``, not
``curveforge.rng.normal_block``, because montecarlo binds the name at
import), or a method on ``DiscountCurve``.  Nothing under ``src/`` is
edited, and ``uninstall`` puts every original back.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time of the wrapped frames it encloses, so the self
times of all frames add up to the time spent under the outermost frame
(``cli.main``).  A layer's busy time counts only its outermost frames, so
nested calls inside one layer are not counted twice.  Coarse spans
(command, calibration date, optimizer restart, Monte-Carlo call) are kept
in memory with their parent span; leaf calls only feed counters.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

import curveforge.calibration
import curveforge.cli
import curveforge.curve
import curveforge.diagnostics
import curveforge.estimation
import curveforge.fileio
import curveforge.montecarlo
from workloads import Check

FILEIO_READS = (
    "ingest_panel", "ingest_curve", "ingest_cross_sections", "ingest_states",
    "ingest_bonds", "ingest_bond_quotes", "read_keyvalues", "params_from_file",
    "state_from_file",
)
FILEIO_WRITES = (
    "write_panel", "write_curve", "write_surface", "write_arbitrage",
    "write_calibration", "write_states", "write_keyvalues", "params_to_file",
    "atomic_write_text",
)
# a restart is useful when it ends within this distance of the best
# log-likelihood, the tolerance fit_ml itself uses for its convergence flag
USEFUL_LOGLIK_TOL = 1e-4
USEFUL_OBJECTIVE_RTOL = 1e-6

# per-layer metric name -> unit, in report order
LAYER_METRICS = {
    "rng.calls": "count", "rng.normals": "count", "rng.busy_s": "s",
    "rng.self_s": "s", "rng.normals_per_s": "1/s", "rng.bytes_computed": "bytes",
    "montecarlo.calls": "count", "montecarlo.busy_s": "s",
    "montecarlo.self_s": "s", "montecarlo.path_steps": "count",
    "montecarlo.path_steps_per_s": "1/s", "montecarlo.synth_s": "s",
    "estimation.fits": "count", "estimation.busy_s": "s",
    "estimation.self_s": "s", "estimation.nfev": "count",
    "estimation.nit": "count", "estimation.loglik_us": "us",
    "estimation.optimizer_self_s": "s", "estimation.maxiter_hits": "count",
    "estimation.useful_restart_ratio": "ratio",
    "calibration.dates": "count", "calibration.busy_s": "s",
    "calibration.self_s": "s", "calibration.objective_calls": "count",
    "calibration.objective_us": "us", "calibration.nfev": "count",
    "calibration.optimizer_self_s": "s", "calibration.converged_ratio": "ratio",
    "calibration.useful_start_ratio": "ratio", "calibration.failed_dates": "count",
    "diagnostics.cells": "count", "diagnostics.surface_busy_s": "s",
    "diagnostics.surface_self_s": "s", "diagnostics.self_s": "s",
    "diagnostics.failed_cells": "count", "diagnostics.dPdT_calls": "count",
    "diagnostics.scan_busy_s": "s",
    "shortrate.calls": "count", "shortrate.busy_s": "s",
    "shortrate.self_s": "s", "shortrate.us_per_call": "us",
    "hjm.calls": "count", "hjm.busy_s": "s", "hjm.self_s": "s",
    "hjm.us_per_call": "us",
    "curve.calls": "count", "curve.busy_s": "s", "curve.self_s": "s",
    "curve.us_per_call": "us",
    "daycount.calls": "count", "daycount.busy_s": "s", "daycount.self_s": "s",
    "fileio.read_calls": "count", "fileio.read_bytes": "bytes",
    "fileio.read_busy_s": "s", "fileio.write_calls": "count",
    "fileio.write_bytes": "bytes", "fileio.write_busy_s": "s",
    "fileio.self_s": "s",
    "cli.commands": "count", "cli.busy_s": "s", "cli.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio", "trace.accounted_ratio": "ratio",
}

# counters that must be non-zero on the workload whose mechanism moves them;
# a renamed or bypassed entry point then reads zero instead of going missing
MUST_MOVE = {
    "oracle": (
        "rng.calls", "rng.normals", "rng.busy_s", "rng.normals_per_s",
        "rng.bytes_computed", "montecarlo.calls", "montecarlo.busy_s",
        "montecarlo.self_s", "montecarlo.path_steps",
        "montecarlo.path_steps_per_s",
    ),
    "fit": (
        "estimation.fits", "estimation.busy_s", "estimation.self_s",
        "estimation.nfev", "estimation.nit", "estimation.loglik_us",
        "estimation.optimizer_self_s", "estimation.useful_restart_ratio",
        "montecarlo.synth_s", "shortrate.calls", "shortrate.busy_s",
        "shortrate.us_per_call", "curve.calls", "curve.busy_s",
        "curve.us_per_call", "daycount.calls", "daycount.busy_s",
        "fileio.read_calls", "fileio.read_bytes", "fileio.read_busy_s",
    ),
    "calibrate": (
        "calibration.dates", "calibration.busy_s", "calibration.self_s",
        "calibration.objective_calls", "calibration.objective_us",
        "calibration.nfev", "calibration.optimizer_self_s",
        "calibration.converged_ratio", "calibration.useful_start_ratio",
        "hjm.calls", "hjm.busy_s", "hjm.us_per_call", "curve.calls",
        "curve.busy_s", "curve.us_per_call", "fileio.read_calls",
        "fileio.read_bytes", "fileio.read_busy_s",
    ),
    "surface": (
        "diagnostics.cells", "diagnostics.surface_busy_s",
        "diagnostics.surface_self_s", "diagnostics.dPdT_calls",
        "diagnostics.scan_busy_s", "shortrate.calls", "shortrate.busy_s",
        "shortrate.us_per_call", "hjm.calls", "hjm.busy_s", "hjm.us_per_call",
        "curve.calls", "curve.busy_s", "curve.us_per_call",
        "fileio.write_calls", "fileio.write_bytes", "fileio.write_busy_s",
    ),
}
ALWAYS_MOVE = ("cli.commands", "cli.busy_s", "cli.self_s")


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Counters, busy and self times per layer, and coarse spans."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._span_stack: list[int] = []
        self._date: dict | None = None
        self._command = -1
        self._evaluations = None
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.fn_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []

    # -- frames and spans ---------------------------------------------------

    def _frame(self, layer, key, fn_name, original, args, kwargs):
        """Run one wrapped call; return (result, elapsed, outermost)."""
        frame = [0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._depth[layer] -= 1
            if self._stack:
                self._stack[-1][0] += elapsed
            self.self_time[key] += elapsed - frame[0]
            outermost = self._depth[layer] == 0
            if outermost:
                self.busy[layer] += elapsed
            self.fn_time[fn_name] += elapsed
            self.calls[fn_name] += 1
        return result, elapsed, outermost

    def _span_frame(self, name, layer, key, fn_name, original, args, kwargs):
        parent = self._span_stack[-1] if self._span_stack else None
        span = {"name": name, "parent": parent, "command": self._command,
                "start": time.perf_counter()}
        self.spans.append(span)
        self._span_stack.append(len(self.spans) - 1)
        try:
            return self._frame(layer, key, fn_name, original, args, kwargs)
        finally:
            self._span_stack.pop()
            span["end"] = time.perf_counter()

    def _replace(self, owner, name, make):
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, make(original))

    def wrap(self, owner, name, layer, key=None, span=None, before=None,
             after=None):
        """Replace ``owner.name`` with a traced pass-through.

        ``after(args, result, elapsed, outermost)`` runs when the call
        returns normally; ``before()`` runs first.
        """
        key = key or layer
        fn_name = f"{layer}.{name}"

        def make(original):
            def traced(*args, **kwargs):
                if before is not None:
                    before()
                if span:
                    result, elapsed, outer = self._span_frame(
                        span, layer, key, fn_name, original, args, kwargs)
                else:
                    result, elapsed, outer = self._frame(
                        layer, key, fn_name, original, args, kwargs)
                if after is not None:
                    after(args, result, elapsed, outer)
                return result

            return traced

        self._replace(owner, name, make)

    def traced_minimize(self, layer, on_result):
        """A traced call of scipy's minimize, ``(minimize, fun, x0, ...)``:
        one restart span per call, one frame per objective evaluation."""
        fn_name = f"{layer}.minimize"

        def call(original, fun, x0, *args, **kwargs):
            def objective(theta, *fargs):
                result, _, _ = self._frame(
                    layer, layer, f"{layer}.objective", fun, (theta, *fargs), {})
                return result

            res, _, _ = self._span_frame(
                "restart", layer, f"{layer}.optimizer", fn_name, original,
                (objective, x0, *args), kwargs)
            on_result(res)
            return res

        return call

    def uninstall(self):
        if self._evaluations is not None:
            self._evaluations.inner = None
            self._evaluations = None
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def begin_command(self, index: int):
        self._command = index

    # -- installation -------------------------------------------------------

    def install(self, evaluations):
        """Wrap every entry point; fit_ml's optimizer restarts are seen
        through ``evaluations`` (workloads.Evaluations), the pass-through
        already in place."""
        cli = curveforge.cli
        mc = curveforge.montecarlo
        cal = curveforge.calibration
        diag = curveforge.diagnostics
        fio = curveforge.fileio

        self.wrap(cli, "main", "cli", span="command")

        # the CLI calls fileio through the module object
        for name in FILEIO_READS:
            self.wrap(fio, name, "fileio", after=self._fileio_hook("read"))
        for name in FILEIO_WRITES:
            self.wrap(fio, name, "fileio", after=self._fileio_hook("write"))

        self.wrap(cli, "mc_zero_price", "montecarlo", span="mc_call",
                  after=self._after_mc)
        self.wrap(cli, "synth_panel", "montecarlo")
        self.wrap(mc, "normal_block", "rng", after=self._after_normals)
        self.wrap(mc, "standard_normals", "rng", after=self._after_normals)
        self.wrap(mc, "path_generator", "rng")

        self.wrap(cli, "fit_ml", "estimation", after=self._after_fit)
        self._evaluations = evaluations
        evaluations.inner = self.traced_minimize("estimation", self._after_restart_est)

        self.wrap(cli, "calibrate_series", "calibration", after=self._after_series)
        self.wrap(cal, "calibrate", "calibration", key="calibration.optimizer",
                  span="date", before=self._open_date, after=self._close_date)
        traced = self.traced_minimize("calibration", self._after_restart_cal)
        self._replace(cal, "minimize", lambda original: functools.partial(traced, original))
        self.wrap(cal, "ls_objective", "calibration", after=self._after_objective)

        self.wrap(cli, "build_surface", "diagnostics", key="diagnostics.surface",
                  after=self._after_surface)
        self.wrap(cli, "scan_derivative_signs", "diagnostics")
        self.wrap(diag, "g2pp_dPdT", "diagnostics")

        for owner in (cli, diag, mc):
            self.wrap(owner, "vasicek_price", "shortrate")
            self.wrap(owner, "g2pp_price", "shortrate")
        for owner in (cli, cal, diag):
            self.wrap(owner, "holee_price", "hjm")
            self.wrap(owner, "hullwhite_price", "hjm")

        # curve lookups are methods, so they are wrapped on the class
        self.wrap(curveforge.curve.DiscountCurve, "log_discount", "curve")
        self.wrap(curveforge.curve.DiscountCurve, "forward", "curve")

        for owner in (curveforge.estimation, cal, mc):
            self.wrap(owner, "year_fraction", "daycount")

    # -- hooks --------------------------------------------------------------

    def _fileio_hook(self, kind):
        def after(args, result, elapsed, outermost):
            if outermost:
                self.count[f"fileio.{kind}_calls"] += 1
                self.count[f"fileio.{kind}_busy_s"] += elapsed
                self.count[f"fileio.{kind}_bytes"] += os.path.getsize(args[0])

        return after

    def _after_mc(self, args, result, elapsed, outermost):
        _, _, state0, T, config = args[:5]
        t0 = float(getattr(state0, "t", 0.0))
        self.count["montecarlo.path_steps"] += (
            config.n_paths * math.ceil((T - t0) / config.step))

    def _after_normals(self, args, result, elapsed, outermost):
        self.count["rng.normals"] += result.size
        # a uniform buffer and the normals derived from it, 8 bytes each
        self.count["rng.bytes_computed"] += 2 * result.nbytes

    def _after_restart_est(self, res):
        self.count["estimation.nfev"] += res.nfev
        self.count["estimation.nit"] += res.nit
        self.count["estimation.maxiter_hits"] += res.status in (1, 2)

    def _after_fit(self, args, result, elapsed, outermost):
        lls = result.report.restart_logliks
        self.count["estimation.restarts"] += len(lls)
        self.count["estimation.useful_restarts"] += sum(
            math.isfinite(ll) and ll >= result.loglik - USEFUL_LOGLIK_TOL
            for ll in lls)

    def _open_date(self):
        self._date = {"starts": [], "objective_calls": 0}

    def _after_restart_cal(self, res):
        self.count["calibration.nfev"] += res.nfev
        if self._date is not None:
            self._date["starts"].append(float(res.fun))

    def _after_objective(self, args, result, elapsed, outermost):
        if self._date is not None:
            self._date["objective_calls"] += 1

    def _close_date(self, args, result, elapsed, outermost):
        date, self._date = self._date, None
        starts = date["starts"]
        if starts:
            best = min(starts)
            self.count["calibration.starts"] += len(starts)
            self.count["calibration.useful_starts"] += sum(
                f <= best + abs(best) * USEFUL_OBJECTIVE_RTOL for f in starts)
        else:
            # a one-dimensional search is one start whose evaluations are
            # the objective calls made for this date
            self.count["calibration.starts"] += 1
            self.count["calibration.useful_starts"] += 1
            self.count["calibration.nfev"] += date["objective_calls"]

    def _after_series(self, args, result, elapsed, outermost):
        records = result.records
        self.count["calibration.dates"] += len(records)
        self.count["calibration.converged_dates"] += sum(r.converged for r in records)
        self.count["calibration.failed_dates"] += sum(r.params is None for r in records)

    def _after_surface(self, args, result, elapsed, outermost):
        self.count["diagnostics.cells"] += result.values.size
        self.count["diagnostics.failed_cells"] += len(result.failures)

    # -- report -------------------------------------------------------------

    def _layer_calls(self, layer):
        return sum(n for name, n in self.calls.items()
                   if name.startswith(layer + "."))

    def metrics(self, traced_wall: float, untraced_wall: float,
                exit_nonzero: int) -> dict[str, float]:
        c, busy, st, ft, calls = (self.count, self.busy, self.self_time,
                                  self.fn_time, self.calls)
        m = {}
        m["rng.calls"] = self._layer_calls("rng")
        m["rng.normals"] = c["rng.normals"]
        m["rng.busy_s"] = busy["rng"]
        m["rng.self_s"] = st["rng"]
        m["rng.normals_per_s"] = _ratio(c["rng.normals"], busy["rng"])
        m["rng.bytes_computed"] = c["rng.bytes_computed"]

        mc_time = ft["montecarlo.mc_zero_price"]
        m["montecarlo.calls"] = self._layer_calls("montecarlo")
        m["montecarlo.busy_s"] = busy["montecarlo"]
        m["montecarlo.self_s"] = st["montecarlo"]
        m["montecarlo.path_steps"] = c["montecarlo.path_steps"]
        m["montecarlo.path_steps_per_s"] = _ratio(c["montecarlo.path_steps"], mc_time)
        m["montecarlo.synth_s"] = ft["montecarlo.synth_panel"]

        m["estimation.fits"] = calls["estimation.fit_ml"]
        m["estimation.busy_s"] = busy["estimation"]
        m["estimation.self_s"] = st["estimation"]
        m["estimation.nfev"] = c["estimation.nfev"]
        m["estimation.nit"] = c["estimation.nit"]
        m["estimation.loglik_us"] = 1e6 * _ratio(
            ft["estimation.objective"], calls["estimation.objective"])
        m["estimation.optimizer_self_s"] = st["estimation.optimizer"]
        m["estimation.maxiter_hits"] = c["estimation.maxiter_hits"]
        m["estimation.useful_restart_ratio"] = _ratio(
            c["estimation.useful_restarts"], c["estimation.restarts"])

        m["calibration.dates"] = c["calibration.dates"]
        m["calibration.busy_s"] = busy["calibration"]
        m["calibration.self_s"] = st["calibration"]
        m["calibration.objective_calls"] = calls["calibration.ls_objective"]
        m["calibration.objective_us"] = 1e6 * _ratio(
            ft["calibration.ls_objective"], calls["calibration.ls_objective"])
        m["calibration.nfev"] = c["calibration.nfev"]
        m["calibration.optimizer_self_s"] = st["calibration.optimizer"]
        m["calibration.converged_ratio"] = _ratio(
            c["calibration.converged_dates"], c["calibration.dates"])
        m["calibration.useful_start_ratio"] = _ratio(
            c["calibration.useful_starts"], c["calibration.starts"])
        m["calibration.failed_dates"] = c["calibration.failed_dates"]

        m["diagnostics.cells"] = c["diagnostics.cells"]
        m["diagnostics.surface_busy_s"] = ft["diagnostics.build_surface"]
        m["diagnostics.surface_self_s"] = st["diagnostics.surface"]
        m["diagnostics.self_s"] = st["diagnostics"] + st["diagnostics.surface"]
        m["diagnostics.failed_cells"] = c["diagnostics.failed_cells"]
        m["diagnostics.dPdT_calls"] = calls["diagnostics.g2pp_dPdT"]
        m["diagnostics.scan_busy_s"] = ft["diagnostics.scan_derivative_signs"]

        for layer in ("shortrate", "hjm", "curve", "daycount"):
            n = self._layer_calls(layer)
            m[f"{layer}.calls"] = n
            m[f"{layer}.busy_s"] = busy[layer]
            m[f"{layer}.self_s"] = st[layer]
            if layer != "daycount":
                m[f"{layer}.us_per_call"] = 1e6 * _ratio(busy[layer], n)

        for kind in ("read", "write"):
            for what in ("calls", "bytes", "busy_s"):
                m[f"fileio.{kind}_{what}"] = c[f"fileio.{kind}_{what}"]
        m["fileio.self_s"] = st["fileio"]

        m["cli.commands"] = calls["cli.main"]
        m["cli.busy_s"] = busy["cli"]
        m["cli.self_s"] = st["cli"]
        m["cli.exit_nonzero"] = exit_nonzero

        m["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall) - 1.0
        m["trace.accounted_ratio"] = _ratio(sum(st.values()), traced_wall)
        if list(m) != list(LAYER_METRICS):
            raise RuntimeError("per-layer metrics out of sync with LAYER_METRICS")
        return {name: float(value) for name, value in m.items()}


def self_test(workload: str, metrics: dict[str, float]) -> list[Check]:
    """Checks on the traced run: expected counters moved, and the self
    times account for the traced wall time."""
    checks = []
    for name in MUST_MOVE[workload] + ALWAYS_MOVE:
        checks.append(Check(f"trace.nonzero.{name}", metrics[name] > 0.0,
                            f"{name}={metrics[name]:.6g}"))
    accounted = metrics["trace.accounted_ratio"]
    checks.append(Check("trace.self_times_account_for_wall",
                        0.97 <= accounted <= 1.0 + 1e-9,
                        f"sum of self times / traced wall = {accounted:.4f}"))
    return checks
