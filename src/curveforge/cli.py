"""Command-line interface.

Every subcommand reads CSV/key=value inputs, runs one module, and writes
its artifacts atomically into the output directory (flag --output-dir,
environment variable CURVEFORGE_OUTPUT_DIR, or the working directory).  A
JSON-lines run log (run_log.jsonl) records the command, its effective
configuration and a hash of it, the seed, and headline results — enough to
re-execute any run identically.  No timestamps are logged: identical
invocations append identical lines.

Exit codes: 0 success, 1 domain error (bad data, failed fit), 2 usage
error (unknown flags, missing files, invalid model for the command).

A config file (flat key=value, '#' comments) supplies defaults for any
option, with explicit command-line flags taking precedence; keys use
underscores (e.g. ``n_paths=200000``).  A key that names no option of any
command (nor ``output_dir``) is a usage error.
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import json
import math
import os
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import fileio
from .calibration import CrossSection, calibrate_series
from .curve import DiscountCurve, build_initial_curve, flat_curve
from .daycount import parse_date
from .diagnostics import build_surface, check_monotone, scan_derivative_signs
from .errors import CurveforgeError
from .estimation import FitConfig, fit_ml
from .hjm import HoLeeParams, HullWhiteParams, holee_price, hullwhite_price
from .models import MODELS, fitted_by, param_fields
from .montecarlo import SimConfig, mc_zero_price, synth_panel
from .shortrate import G2Params, VasicekParams, g2pp_price, vasicek_price

_DEFAULT_PARAMS = {
    "vasicek": VasicekParams(a=1.7051, b=0.0937, sigma=0.3721),
    "g2pp": G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
    "holee": HoLeeParams(sigma=0.3071),
    "hullwhite": HullWhiteParams(a=0.0813, sigma=0.0215),
}
_DEFAULT_CURVE_RATE = 0.04
# a simulation seed keys a uint64 Philox stream
_SIM_SEED = click.IntRange(0, 2**64 - 1)
RUN_LOG_NAME = "run_log.jsonl"


class _Date(click.ParamType):
    """An ISO ``YYYY-MM-DD`` date; anything else is a usage error."""

    name = "date"

    def convert(self, value, param, ctx):
        try:
            return parse_date(value)
        except ValueError as exc:
            self.fail(f"{value!r} is not a YYYY-MM-DD date: {exc}", param, ctx)


class _FiniteFloat(click.FloatRange):
    """A finite float within the given bounds, if any; nan, inf and -inf
    are usage errors that name the option, as out-of-range values are."""

    name = "float"

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return number

    def _describe_range(self):
        if self.min is None and self.max is None:
            return ""
        return super()._describe_range()


_FINITE = _FiniteFloat()


class _PathCount(click.IntRange):
    """An even path count of at least 4: the oracle draws antithetic pairs,
    and a standard error needs two of them."""

    def __init__(self):
        super().__init__(min=4)

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if number % 2:
            self.fail(f"{number} is odd; paths come in antithetic pairs", param, ctx)
        return number


def domain_errors(fn):
    """Convert package domain errors into exit-code-1 CLI failures."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CurveforgeError as exc:
            raise click.ClickException(str(exc))

    return wrapper


def _log_run(output_dir: str, command: str, config: dict, seed, results: dict):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    entry = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "results": results,
    }
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    with open(os.path.join(output_dir, RUN_LOG_NAME), "a") as handle:
        handle.write(line + "\n")


def _out(ctx: click.Context, name: str) -> str:
    return os.path.join(ctx.obj["output_dir"], name)


def _echo(text: str) -> None:
    """Print one line to the current sys.stdout.  Named explicitly, the
    stream is not kept in click's per-stream cache, which would hold every
    stream a caller ever redirected stdout to."""
    click.echo(text, file=sys.stdout)


def _load_params(model: str, path: str | None):
    if path is None:
        return _DEFAULT_PARAMS[model]
    return fileio.params_from_file(path, model)


def _load_curve(path: str | None) -> DiscountCurve:
    if path is None:
        return flat_curve(_DEFAULT_CURVE_RATE, span=40.0, n_pillars=40)
    return fileio.ingest_curve(path)


def _closed_price(model: str, params, state, T: float, curve: DiscountCurve):
    if model == "vasicek":
        return vasicek_price(params, state.r, state.t, T)
    if model == "g2pp":
        return g2pp_price(params, curve, state, T)
    if model == "holee":
        return holee_price(params, curve, state.r, state.t, T)
    if model == "hullwhite":
        return hullwhite_price(params, curve, state.r, state.t, T)
    raise ValueError(f"unknown model {model!r}")


@click.group()
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="key=value file with defaults for any option.",
)
@click.option(
    "--output-dir",
    envvar="CURVEFORGE_OUTPUT_DIR",
    default=None,
    help="Directory for all artifacts (default: CURVEFORGE_OUTPUT_DIR or cwd).",
)
@click.pass_context
def main(ctx, config_path, output_dir):
    """Gaussian term-structure toolkit: curves, fits, audits, simulation."""
    config = fileio.read_keyvalues(config_path) if config_path else {}
    commands = ctx.command.commands
    options = {"output_dir"} | {
        param.name for command in commands.values() for param in command.params
    }
    unknown = [key for key in config if key not in options]
    if unknown:
        raise click.UsageError(
            f"unknown config keys {', '.join(map(repr, unknown))}: they match "
            "no option of any command"
        )
    if output_dir is None:
        output_dir = config.get("output_dir", os.getcwd())
    os.makedirs(output_dir, exist_ok=True)
    ctx.obj = {"output_dir": output_dir, "config": config}
    if config:
        ctx.default_map = {name: dict(config) for name in commands}


@main.command()
@click.option("--bonds", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--quotes", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--clean", is_flag=True, help="Quotes are clean prices (add accrued).")
@click.option("--flat-extrapolation", is_flag=True)
@click.pass_context
@domain_errors
def bootstrap(ctx, bonds, quotes, clean, flat_extrapolation):
    """Bootstrap a discount curve from coupon-bond quotes."""
    bond_list = {b.bond_id: b for b in fileio.ingest_bonds(bonds)}
    quote_rows = fileio.ingest_bond_quotes(quotes)
    missing = [bid for bid, _, _ in quote_rows if bid not in bond_list]
    if missing:
        raise click.UsageError(f"quotes reference unknown bond ids {missing}")
    curve = build_initial_curve(
        [(bond_list[bid], settle, price) for bid, settle, price in quote_rows],
        clean=clean,
        flat_extrapolation=flat_extrapolation,
    )
    out = _out(ctx, "curve.csv")
    fileio.write_curve(out, curve)
    _log_run(
        ctx.obj["output_dir"],
        "bootstrap",
        {"bonds": bonds, "quotes": quotes, "clean": clean,
         "flat_extrapolation": flat_extrapolation},
        None,
        {"pillars": len(curve.pillars), "span": curve.span},
    )
    _echo(f"wrote {out} ({len(curve.pillars)} pillars, span {curve.span:g}y)")


@main.command("fit-ml")
@click.option("--model", type=click.Choice(fitted_by("ml")), required=True)
@click.option("--panel", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--curve", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--negotiated-only", is_flag=True,
              help="Drop dates not flagged as negotiated before fitting.")
@click.option("--restarts", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.pass_context
@domain_errors
def fit_ml_cmd(ctx, model, panel, curve, negotiated_only, restarts, seed):
    """Maximum-likelihood fit of a state-space model to a price panel."""
    panel_data = fileio.ingest_panel(panel)
    if negotiated_only:
        panel_data = panel_data.filter_negotiated()
    curve_data = fileio.ingest_curve(curve) if curve else None
    if MODELS[model].needs_curve and curve_data is None:
        raise click.UsageError(f"--curve is required for the {model} model")
    result = fit_ml(
        model,
        panel_data,
        curve=curve_data,
        config=FitConfig(restarts=restarts, seed=seed),
    )
    fileio.params_to_file(_out(ctx, "fit_params.txt"), model, result.params)
    fileio.write_states(_out(ctx, "fit_states.csv"), result.states)
    fileio.write_keyvalues(
        _out(ctx, "fit_report.txt"),
        {
            "model": model,
            "loglik": result.loglik,
            "converged": result.report.converged,
            "boundary": result.report.boundary,
            "restarts": result.report.restarts,
            "iterations": result.report.iterations,
        },
    )
    params_map = {
        name: getattr(result.params, name)
        for name in param_fields(model)
    }
    _log_run(
        ctx.obj["output_dir"],
        "fit-ml",
        {"model": model, "panel": panel, "curve": curve,
         "negotiated_only": negotiated_only, "restarts": restarts, "seed": seed},
        seed,
        {"loglik": result.loglik, "converged": result.report.converged,
         "params": params_map},
    )
    _echo(
        f"loglik {result.loglik:.6f} converged={result.report.converged} "
        + " ".join(f"{k}={v:.6g}" for k, v in params_map.items())
    )


@main.command("calibrate")
@click.option("--model", type=click.Choice(fitted_by("calibration")), required=True)
@click.option("--cross-section", "section_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--curve", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--per-date-curve", is_flag=True,
              help="Re-anchor each date to the previous date's observed curve.")
@click.pass_context
@domain_errors
def calibrate_cmd(ctx, model, section_path, curve, per_date_curve):
    """Least-squares calibration of a forward-curve model, date by date.

    Every date is anchored on the --curve file (one fixed initial curve),
    or with --per-date-curve each date after the first on the previous
    date's quotes.
    """
    sections_raw = fileio.ingest_cross_sections(section_path)
    base_curve = fileio.ingest_curve(curve)
    if base_curve.asof is None:
        raise click.UsageError(
            "the curve file must carry an '# asof=YYYY-MM-DD' line so "
            "cross-section offsets are well defined"
        )
    sections = []
    for i, (date, quotes) in enumerate(sections_raw):
        if per_date_curve and i > 0:
            prev_date, prev_quotes = sections_raw[i - 1]
            anchor = DiscountCurve(
                pillars=tuple(prev_quotes), asof=prev_date,
                flat_extrapolation=True,
            )
        else:
            anchor = base_curve
        sections.append(CrossSection(asof=date, quotes=list(quotes), curve=anchor))
    series = calibrate_series(model, sections)
    fileio.write_calibration(_out(ctx, "calibration.csv"), series)
    summary_map: dict[str, object] = {"model": model, "dates": len(series.records)}
    for name, (mean, sd) in series.summary.items():
        summary_map[f"{name}_mean"] = mean
        if sd is not None:
            summary_map[f"{name}_sd"] = sd
    fileio.write_keyvalues(_out(ctx, "calibration_summary.txt"), summary_map)
    _log_run(
        ctx.obj["output_dir"],
        "calibrate",
        {"model": model, "cross_section": section_path, "curve": curve,
         "per_date_curve": per_date_curve},
        None,
        {k: v for k, v in summary_map.items() if k != "model"},
    )
    _echo(
        f"calibrated {len(series.records)} dates; "
        + " ".join(
            f"{name}={mean:.6g}" for name, (mean, _) in series.summary.items()
        )
    )


@main.command("price")
@click.option("--model", type=click.Choice(list(MODELS)), required=True)
@click.option("--params", "params_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--state", "state_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--maturity", type=_FINITE, required=True)
@click.option("--curve", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_context
@domain_errors
def price_cmd(ctx, model, params_path, state_path, maturity, curve):
    """Closed-form zero-coupon price at a given state."""
    params = fileio.params_from_file(params_path, model)
    state = fileio.state_from_file(state_path, model)
    if MODELS[model].needs_curve and curve is None:
        raise click.UsageError(f"--curve is required for the {model} model")
    curve_data = _load_curve(curve) if MODELS[model].needs_curve else None
    value = _closed_price(model, params, state, maturity, curve_data)
    fileio.write_keyvalues(
        _out(ctx, "price.txt"),
        {"model": model, "maturity": maturity, "price": value},
    )
    _log_run(
        ctx.obj["output_dir"],
        "price",
        {"model": model, "params": params_path, "state": state_path,
         "maturity": maturity, "curve": curve},
        None,
        {"price": value},
    )
    _echo(fileio._fmt(value))


@main.command("surface")
@click.option("--model", type=click.Choice(list(MODELS)), required=True)
@click.option("--params", "params_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--states", "states_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--curve", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_context
@domain_errors
def surface_cmd(ctx, model, params_path, states_path, curve):
    """Price a state series on the standard tenor grid."""
    params = fileio.params_from_file(params_path, model)
    states = fileio.ingest_states(states_path)
    two_factor = np.asarray(states.values).ndim == 2
    if (MODELS[model].factors == 2) != two_factor:
        raise click.UsageError(
            f"state file is {'two' if two_factor else 'one'}-factor but the "
            f"model {model!r} is not"
        )
    if MODELS[model].needs_curve and curve is None:
        raise click.UsageError(f"--curve is required for the {model} model")
    curve_data = _load_curve(curve) if curve else None
    result = build_surface(model, params, states, curve_data)
    out = _out(ctx, "surface.csv")
    fileio.write_surface(out, result)
    _log_run(
        ctx.obj["output_dir"],
        "surface",
        {"model": model, "params": params_path, "states": states_path,
         "curve": curve},
        None,
        {"dates": len(result.dates), "missing_cells": len(result.failures)},
    )
    _echo(
        f"wrote {out} ({len(result.dates)} dates, "
        f"{len(result.failures)} missing cells)"
    )


_MODEL_AUDIT_OPTIONS = (("params_path", "--params"), ("state_path", "--state"),
                        ("tau_lo", "--tau-lo"), ("tau_hi", "--tau-hi"))


@main.command("check-arbitrage")
@click.option("--curve", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Audit the pillars of this curve file for inversions.")
@click.option("--model", type=click.Choice(["g2pp"]), default=None,
              help="Scan the model's analytic dP/dT instead of a price list.")
@click.option("--params", "params_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--tau-lo", type=_FINITE, default=1.0 / 12.0, show_default=True)
@click.option("--tau-hi", type=_FINITE, default=25.0, show_default=True)
@click.pass_context
@domain_errors
def check_arbitrage_cmd(ctx, curve, model, params_path, state_path, tau_lo, tau_hi):
    """Static-arbitrage audit of a curve or of model prices."""
    # the curve audit reads none of the model's options
    given = [option for name, option in _MODEL_AUDIT_OPTIONS
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
    if model is None and given:
        raise click.UsageError(f"{given[0]} needs --model")
    curve_data = fileio.ingest_curve(curve)
    if model is None:
        report = check_monotone(list(curve_data.pillars))
    else:
        params = _load_params(model, params_path)
        state = (
            fileio.state_from_file(state_path, model)
            if state_path
            else MODELS[model].default_state(params, curve_data)
        )
        report = scan_derivative_signs(
            params, curve_data, state, tau_lo=tau_lo, tau_hi=tau_hi
        )
    fileio.write_arbitrage(_out(ctx, "arbitrage.csv"), report)
    fileio.atomic_write_text(
        _out(ctx, "arbitrage.txt"), fileio.render_arbitrage_text(report)
    )
    _log_run(
        ctx.obj["output_dir"],
        "check-arbitrage",
        {"curve": curve, "model": model, "params": params_path,
         "state": state_path, "tau_lo": tau_lo, "tau_hi": tau_hi},
        None,
        {"violations": len(report.violations),
         "sign_changes": len(report.derivative_sign_changes)},
    )
    _echo(
        f"{len(report.violations)} violations, "
        f"{len(report.derivative_sign_changes)} derivative sign changes"
    )


@main.command("oracle")
@click.option("--model", type=click.Choice(list(MODELS)), required=True)
@click.option("--params", "params_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--curve", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--maturity", type=_FINITE, default=3.0, show_default=True)
@click.option("--paths", "n_paths", type=_PathCount(), default=100_000,
              show_default=True,
              help="Even number of Monte-Carlo paths, drawn in antithetic pairs.")
@click.option("--step", type=_FiniteFloat(min=0.0, min_open=True),
              default=1.0 / 252.0, help="Simulation step in years [default: 1/252].")
@click.option("--seed", type=_SIM_SEED, default=0, show_default=True)
@click.pass_context
@domain_errors
def oracle_cmd(ctx, model, params_path, state_path, curve, maturity, n_paths,
               step, seed):
    """Compare the closed-form price against its Monte-Carlo estimate."""
    spec = MODELS[model]
    params = _load_params(model, params_path)
    curve_data = _load_curve(curve)
    state = (
        fileio.state_from_file(state_path, model)
        if state_path
        else spec.default_state(params, curve_data)
    )
    model_curve = curve_data if spec.needs_curve else None
    closed = _closed_price(model, params, state, maturity, model_curve)
    config = SimConfig(n_paths=n_paths, step=step, seed=seed)
    estimate = mc_zero_price(model, params, state, maturity, config, curve=model_curve)
    z = (estimate.value - closed) / estimate.stderr if estimate.stderr else math.nan
    results = {
        "model": model,
        "maturity": maturity,
        "closed": closed,
        "mc_value": estimate.value,
        "mc_stderr": estimate.stderr,
        "z": z,
        "within_3se": bool(abs(estimate.value - closed) < 3.0 * estimate.stderr),
        "n_paths": n_paths,
        "step": step,
        "seed": seed,
    }
    fileio.write_keyvalues(_out(ctx, "oracle.txt"), results)
    _log_run(
        ctx.obj["output_dir"],
        "oracle",
        {"model": model, "params": params_path, "state": state_path,
         "curve": curve, "maturity": maturity, "n_paths": n_paths,
         "step": step, "seed": seed},
        seed,
        {k: results[k] for k in ("closed", "mc_value", "mc_stderr", "within_3se")},
    )
    _echo(
        f"closed {closed:.8f} vs mc {estimate.value:.8f} "
        f"(se {estimate.stderr:.2e}, z {z:+.2f})"
    )


def _calendar_date(ctx, start: dt.date, days: float, options: list, what: str) -> dt.date:
    """``start`` plus ``days`` rounded to whole days; a date off the
    calendar is a usage error naming the ``options``."""
    try:
        return start + dt.timedelta(days=round(days))
    except OverflowError:
        raise click.BadParameter(
            f"{what} falls outside the calendar ({dt.date.min} to {dt.date.max})",
            ctx=ctx, param_hint=options,
        ) from None


@main.command("synth")
@click.option("--model", type=click.Choice(fitted_by("ml")), required=True)
@click.option("--params", "params_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--curve", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--state", "state_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--start", type=_Date(), default="2010-01-04", show_default=True)
@click.option("--n-obs", type=click.IntRange(min=2), default=260, show_default=True)
@click.option("--gap-days", type=click.IntRange(min=1), default=7, show_default=True)
@click.option("--maturity", "maturities", type=_FINITE, multiple=True,
              help="Instrument maturity in years from start (repeatable).")
@click.option("--seed", type=_SIM_SEED, default=0, show_default=True)
@click.pass_context
@domain_errors
def synth_cmd(ctx, model, params_path, curve, state_path, start, n_obs,
              gap_days, maturities, seed):
    """Generate a synthetic price panel by exact simulation."""
    spec = MODELS[model]
    if not maturities:
        maturities = (30.0, 40.0)[: spec.factors]
    elif len(maturities) != spec.factors:
        raise click.UsageError(
            f"the {spec.factors}-factor {model} panel needs exactly "
            f"{spec.factors} --maturity value(s), got {len(maturities)}"
        )
    _calendar_date(ctx, start, (n_obs - 1) * gap_days, ["--start", "--n-obs", "--gap-days"],
                   f"the last of {n_obs} dates {gap_days} days apart from {start}")
    schedule = [start + dt.timedelta(days=i * gap_days) for i in range(n_obs)]
    instruments = [
        (f"Z{i + 1}", _calendar_date(ctx, start, tau * 365.0, ["--maturity"],
                                     f"{tau} years from {start}"))
        for i, tau in enumerate(maturities)
    ]
    params = _load_params(model, params_path)
    curve_data = fileio.ingest_curve(curve) if curve else None
    if spec.needs_curve and curve_data is None:
        curve_data = flat_curve(_DEFAULT_CURVE_RATE, span=80.0, n_pillars=80)
    state0 = fileio.state_from_file(state_path, model) if state_path else None
    panel = synth_panel(
        model, params, schedule, instruments,
        curve=curve_data, state0=state0, seed=seed,
    )
    out = _out(ctx, "panel.csv")
    fileio.write_panel(out, panel)
    _log_run(
        ctx.obj["output_dir"],
        "synth",
        {"model": model, "params": params_path, "curve": curve,
         "state": state_path, "start": start.isoformat(), "n_obs": n_obs,
         "gap_days": gap_days, "maturities": list(maturities), "seed": seed},
        seed,
        {"observations": len(panel.observations),
         "instruments": len(panel.instruments)},
    )
    _echo(
        f"wrote {out} ({len(panel.observations)} dates x "
        f"{len(panel.instruments)} instruments)"
    )


if __name__ == "__main__":
    main()
