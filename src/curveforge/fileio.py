"""CSV and key=value file handling for the command-line tools.

All data files are plain comma-separated text with ISO-8601 dates and
decimal-point numerics, locale-independent.  Floats are written with
``repr`` so every emitted file re-ingests bit-identically.  Writers are
atomic: content goes to a temp file in the target directory and is renamed
into place, so a crashed run never leaves a partial file at the final path.

One reader parses every CSV schema: leading '# key=value' lines are
metadata, blank records are skipped and a quoted field may span lines.  One
IngestionError lists every offending line.  Params and state files accept
only the fields of their class (and ``model`` in a params file).

Schemas
-------
panel:          date,instrument_id,price,maturity[,negotiated]
curve:          tau,discount_factor   (optional '# asof=YYYY-MM-DD' and
                '# flat_extrapolation=true' lines)
cross-section:  date,maturity_years,zero_price
bonds:          id,face,coupon_rate,frequency,maturity[,first_coupon]
bond quotes:    id,settlement,price
surface:        date,P_1m,...,P_25y   (empty cell = missing)
arbitrage:      tau_low,tau_high,p_low,p_high
calibration:    date,param_name,value,objective,converged  (long format; a
                failed date is one row with param_name=error, the message
                in value, objective empty)
states:         [date,]time,r  or  [date,]time,x,y
params/state/config: key=value lines, '#' comments
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import io
import itertools
import math
import os
import tempfile

import numpy as np

from .bonds import CouponBond
from .calibration import CalibrationRecord, CalibrationSeries
from .curve import DiscountCurve
from .daycount import parse_date
from .diagnostics import MATURITY_GRID, ArbitrageReport, PriceSurface, check_violation
from .errors import IngestionError
from .estimation import PricePanel, StateSeries
from .models import MODELS, fitted_by, param_fields

PANEL_COLUMNS = ("date", "instrument_id", "price", "maturity")
CURVE_COLUMNS = ("tau", "discount_factor")
SECTION_COLUMNS = ("date", "maturity_years", "zero_price")
BOND_COLUMNS = ("id", "face", "coupon_rate", "frequency", "maturity")
QUOTE_COLUMNS = ("id", "settlement", "price")
ARBITRAGE_COLUMNS = ("tau_low", "tau_high", "p_low", "p_high")
CALIBRATION_COLUMNS = ("date", "param_name", "value", "objective", "converged")
STATE_COLUMNS = (("time", "x", "y"), ("time", "r"))


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def _tenor_label(tau: float) -> str:
    months = tau * 12.0
    if tau < 1.0:
        return f"P_{int(round(months))}m"
    return f"P_{int(round(tau))}y"


SURFACE_COLUMNS = ("date",) + tuple(_tenor_label(tau) for tau in MATURITY_GRID)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to ``path`` via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_table(
    path: str | os.PathLike, what: str, schema, group=None, allow_empty=False
):
    """Read a CSV file in one pass; return (meta, header, results).

    Leading '#' lines are metadata, key -> (line, value).  ``schema`` takes
    the stripped header and returns the row function or raises ValueError.
    Blank records are skipped; the others need one cell per column and go
    to ``row(*stripped cells)``.  ``group(key, rests)`` then runs, if given,
    on the results gathered by their first element, under the line of the
    first.  Every ValueError is kept under the line where its record starts
    and all are raised in one IngestionError; so is a file without data
    records, unless ``allow_empty``.
    """
    with open(path, newline="") as handle:
        lines = handle.readlines()  # split at \r, \n and \r\n only, as csv does
    meta: dict[str, tuple[int, str]] = {}
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        key, eq, value = lines[start].lstrip("#").strip().partition("=")
        start += 1
        if eq:
            meta[key.strip()] = (start, value.strip())
    records = csv.reader(lines[start:])
    problems: list[tuple[int, str]] = []
    done: list[tuple[int, object]] = []

    def attempt(lineno, fn, args):
        try:
            done.append((lineno, fn(*args)))
        except ValueError as exc:
            problems.append((lineno, str(exc)))

    next_line = start + 1
    try:
        cells = next(records, None)
        if cells is None:
            raise IngestionError("file has no header row", line=next_line)
        header = [cell.strip() for cell in cells]
        try:
            row = schema(header)
        except ValueError as exc:
            raise IngestionError(str(exc), line=next_line) from None
        next_line = start + records.line_num + 1
        for cells in records:
            lineno, next_line = next_line, start + records.line_num + 1
            if not cells or len(cells) == 1 and cells[0].isspace():
                continue
            if len(cells) != len(header):
                raise IngestionError(
                    f"expected {len(header)} cells, found {len(cells)}", line=lineno
                )
            attempt(lineno, row, map(str.strip, cells))
    except csv.Error as exc:
        raise IngestionError(str(exc), line=next_line) from exc
    if group is not None:
        gathered: dict[object, tuple[int, list]] = {}
        for lineno, (key, *rest) in done:
            gathered.setdefault(key, (lineno, []))[1].append(rest)
        done.clear()
        for key, (lineno, rests) in gathered.items():
            attempt(lineno, group, (key, rests))
    if problems:
        raise IngestionError(f"{what} file rejected", lines=problems)
    if not done and not allow_empty:
        raise IngestionError(f"{what} file has no data rows")
    return meta, header, [result for _, result in done]


def _columns(columns: tuple[str, ...], row, optional=()):
    """Schema for a header of ``columns`` followed by any of the
    ``optional`` trailing columns, each record read by ``row``."""

    def schema(header):
        allowed = list(columns) + [c for c in optional if c in header]
        if header != allowed:
            raise ValueError(f"header {header!r} does not match schema {allowed!r}")
        return row

    return schema


def _build(cls, **fields):
    """``cls(**fields)``, a ValueError from its checks raised as an
    IngestionError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise IngestionError(str(exc)) from exc


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"unparseable {what} {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {text!r}")
    return value


def _parse_flag(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"unparseable flag {text!r}")


# ---------------------------------------------------------------------------
# price panels


def ingest_panel(path: str | os.PathLike) -> PricePanel:
    """Read a long-format price panel, validating every row.

    All malformed rows are collected and reported together, each with its
    line number, rather than stopping at the first.
    """
    maturities: dict[str, dt.date] = {}
    by_date: dict[dt.date, dict[str, float]] = {}
    flags: dict[dt.date, bool] = {}

    def row(date, name, price, maturity, *negotiated):
        date = parse_date(date)
        if not name:
            raise ValueError("empty instrument_id")
        price = _parse_float(price, "price")
        if not 0.0 < price <= 1.0:
            raise ValueError(f"price {price} outside (0, 1]")
        maturity = parse_date(maturity)
        if maturity <= date:
            raise ValueError(f"maturity {maturity} not after quote date {date}")
        if name in maturities and maturities[name] != maturity:
            raise ValueError(
                f"instrument {name!r} maturity {maturity} conflicts with "
                f"earlier {maturities[name]}"
            )
        if name in by_date.get(date, {}):
            raise ValueError(f"duplicate quote for {name!r} on {date}")
        if negotiated:
            flag = _parse_flag(negotiated[0])
            if flags.setdefault(date, flag) != flag:
                raise ValueError(f"conflicting negotiated flags on {date}")
        maturities.setdefault(name, maturity)
        by_date.setdefault(date, {})[name] = price

    _read_table(path, "panel", _columns(PANEL_COLUMNS, row, ("negotiated",)))
    dates = sorted(by_date)
    observations = [(d, by_date[d]) for d in dates]
    instruments = sorted(maturities.items())
    negotiated = [flags[d] for d in dates] if flags else None
    return PricePanel(
        observations=observations, instruments=instruments, negotiated=negotiated
    )


def write_panel(path: str | os.PathLike, panel: PricePanel) -> None:
    maturity = dict(panel.instruments)
    out = io.StringIO()
    writer = csv.writer(out)
    has_flag = panel.negotiated is not None
    writer.writerow(PANEL_COLUMNS + (("negotiated",) if has_flag else ()))
    for i, (date, quotes) in enumerate(panel.observations):
        for name, _ in panel.instruments:
            if name not in quotes:
                continue
            row = [
                date.isoformat(),
                name,
                _fmt(quotes[name]),
                maturity[name].isoformat(),
            ]
            if has_flag:
                row.append("1" if panel.negotiated[i] else "0")
            writer.writerow(row)
    atomic_write_text(path, out.getvalue())


# ---------------------------------------------------------------------------
# discount curves


def ingest_curve(path: str | os.PathLike) -> DiscountCurve:
    previous = -math.inf

    def pillar(tau, discount_factor):
        nonlocal previous
        tau = _parse_float(tau, "tau")
        if tau <= 0:
            raise ValueError(f"tau {tau} not positive")
        if tau < previous:
            raise ValueError(f"tau {tau} below the previous pillar's {previous}")
        if tau == previous:
            raise ValueError(f"tau {tau} repeats the previous pillar")
        previous = tau
        discount_factor = _parse_float(discount_factor, "discount factor")
        if not 0.0 < discount_factor <= 1.0:
            raise ValueError(f"discount factor {discount_factor} outside (0, 1]")
        return tau, discount_factor

    schema = _columns(CURVE_COLUMNS, pillar)
    meta, _, pillars = _read_table(path, "curve", schema, allow_empty=True)
    settings = {}
    for key, parse in (("asof", parse_date), ("flat_extrapolation", _parse_flag)):
        if key in meta:
            lineno, text = meta[key]
            try:
                settings[key] = parse(text)
            except ValueError as exc:
                raise IngestionError(f"{key}: {exc}", line=lineno) from exc
    return _build(DiscountCurve, pillars=tuple(pillars), **settings)


def write_curve(path: str | os.PathLike, curve: DiscountCurve) -> None:
    out = io.StringIO()
    if curve.asof is not None:
        out.write(f"# asof={curve.asof.isoformat()}\n")
    if curve.flat_extrapolation:
        out.write("# flat_extrapolation=true\n")
    writer = csv.writer(out)
    writer.writerow(CURVE_COLUMNS)
    for tau, df in curve.pillars:
        writer.writerow([_fmt(tau), _fmt(df)])
    atomic_write_text(path, out.getvalue())


# ---------------------------------------------------------------------------
# cross-sections


def ingest_cross_sections(
    path: str | os.PathLike,
) -> list[tuple[dt.date, list[tuple[float, float]]]]:
    """Read dated zero quotes, grouped by date in ascending order."""
    by_date: dict[dt.date, dict[float, float]] = {}

    def row(date, maturity_years, zero_price):
        date = parse_date(date)
        tau = _parse_float(maturity_years, "maturity")
        if tau <= 0:
            raise ValueError(f"maturity {tau} not positive")
        price = _parse_float(zero_price, "price")
        if not 0.0 < price <= 1.0:
            raise ValueError(f"price {price} outside (0, 1]")
        if tau in by_date.setdefault(date, {}):
            raise ValueError(f"duplicate maturity {tau} on {date}")
        by_date[date][tau] = price

    _read_table(path, "cross-section", _columns(SECTION_COLUMNS, row))
    return [(d, sorted(by_date[d].items())) for d in sorted(by_date)]


def write_cross_sections(
    path: str | os.PathLike,
    sections: list[tuple[dt.date, list[tuple[float, float]]]],
) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(SECTION_COLUMNS)
    for date, quotes in sections:
        for tau, price in quotes:
            writer.writerow([date.isoformat(), _fmt(tau), _fmt(price)])
    atomic_write_text(path, out.getvalue())


# ---------------------------------------------------------------------------
# coupon bonds and their quotes


def ingest_bonds(path: str | os.PathLike) -> list[CouponBond]:
    seen: set[str] = set()

    def row(bond_id, face, coupon_rate, frequency, maturity, *first_coupon):
        if not bond_id:
            raise ValueError("empty bond id")
        if bond_id in seen:
            raise ValueError(f"duplicate bond id {bond_id!r}")
        anchor = None
        if first_coupon and first_coupon[0]:
            anchor = parse_date(first_coupon[0])
        bond = CouponBond(
            bond_id=bond_id,
            face=_parse_float(face, "face"),
            coupon_rate=_parse_float(coupon_rate, "coupon rate"),
            frequency=int(frequency),
            maturity=parse_date(maturity),
            schedule_anchor=anchor,
        )
        seen.add(bond_id)
        return bond

    schema = _columns(BOND_COLUMNS, row, optional=("first_coupon",))
    return _read_table(path, "bond", schema, allow_empty=True)[2]


def _quote(bond_id, settlement, price):
    price = _parse_float(price, "price")
    if price <= 0:
        raise ValueError(f"price {price} not positive")
    return bond_id, parse_date(settlement), price


def ingest_bond_quotes(
    path: str | os.PathLike,
) -> list[tuple[str, dt.date, float]]:
    schema = _columns(QUOTE_COLUMNS, _quote)
    return _read_table(path, "quote", schema, allow_empty=True)[2]


# ---------------------------------------------------------------------------
# surfaces and arbitrage reports


def write_surface(path: str | os.PathLike, surface: PriceSurface) -> None:
    lines = [",".join(("date",) + tuple(_tenor_label(t) for t in surface.maturities))]
    for date, row in zip(surface.dates, surface.values.tolist()):
        label = date.isoformat() if isinstance(date, dt.date) else _fmt(date)
        cells = [repr(v) if math.isfinite(v) else "" for v in row]
        lines.append(",".join([label, *cells]))
    # csv.writer ends every row with \r\n
    atomic_write_text(path, "\r\n".join(lines) + "\r\n")


def _surface_price(cell: str, label: str) -> float:
    if cell == "":
        return math.nan
    price = _parse_float(cell, label)
    if not 0.0 < price <= 1.0:
        raise ValueError(f"{label} {price} outside (0, 1]")
    return price


def _surface_row(date, *cells):
    try:
        date = parse_date(date)
    except ValueError:
        date = _parse_float(date, "date")
    return date, list(map(_surface_price, cells, SURFACE_COLUMNS[1:]))


def ingest_surface(path: str | os.PathLike) -> PriceSurface:
    _, _, rows = _read_table(path, "surface", _columns(SURFACE_COLUMNS, _surface_row))
    return _build(
        PriceSurface,
        dates=[date for date, _ in rows],
        maturities=MATURITY_GRID,
        values=np.array([cells for _, cells in rows]),
    )


def _join_violations(report: ArbitrageReport, seps: tuple[str, ...]) -> str:
    """Every violation as seps[0] T_low seps[1] T_high seps[2] P_low
    seps[3] P_high seps[4], the fields written with _fmt, rows joined.

    Every field is one of a few floats (an audit of n maturities has at
    most 2n), so each distinct float is formatted once and the rows are
    gathered by index.  Floats are told apart by bit pattern: -0.0 and 0.0
    keep their own repr.
    """
    n = len(report.violations)
    values = np.fromiter(
        itertools.chain.from_iterable(report.violations), dtype=float
    ).reshape(n, 4)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    parts = np.empty((n, 9), dtype=object)
    parts[:, 0::2] = np.array(seps, dtype=object)
    parts[:, 1::2] = text[index.reshape(n, 4)]
    return "".join(parts.ravel().tolist())


def write_arbitrage(path: str | os.PathLike, report: ArbitrageReport) -> None:
    header = ",".join(ARBITRAGE_COLUMNS) + "\r\n"
    rows = _join_violations(report, ("", ",", ",", ",", "\r\n"))
    atomic_write_text(path, header + rows)


def _violation(*cells):
    violation = tuple(_parse_float(c, name) for c, name in zip(cells, ARBITRAGE_COLUMNS))
    check_violation(*violation)
    return violation


def ingest_arbitrage(path: str | os.PathLike) -> ArbitrageReport:
    schema = _columns(ARBITRAGE_COLUMNS, _violation)
    _, _, violations = _read_table(path, "arbitrage", schema, allow_empty=True)
    return _build(ArbitrageReport, violations=violations)


def render_arbitrage_text(report: ArbitrageReport) -> str:
    """Human-readable, line-oriented rendering of an arbitrage report."""
    text = _join_violations(
        report, ("VIOLATION maturity ", " -> ", ": price rises ", " -> ", "\n")
    )
    for T in report.derivative_sign_changes:
        text += f"DERIVATIVE SIGN CHANGE at T={_fmt(T)}\n"
    return text or "CLEAN no static-arbitrage violations found\n"


# ---------------------------------------------------------------------------
# calibration series


def write_calibration(path: str | os.PathLike, series: CalibrationSeries) -> None:
    """Write per-date fitted parameters in long format, one row per
    parameter; a failed date becomes a single error row."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CALIBRATION_COLUMNS)
    for rec in series.records:
        if rec.params is None:
            writer.writerow(
                [rec.asof.isoformat(), "error", rec.error or "", "", "0"]
            )
            continue
        for name, value in vars(rec.params).items():
            writer.writerow(
                [
                    rec.asof.isoformat(),
                    name,
                    _fmt(value),
                    _fmt(rec.objective),
                    "1" if rec.converged else "0",
                ]
            )
    atomic_write_text(path, out.getvalue())


def _calibration_row(date, *rest):
    return (parse_date(date), *rest)


def _calibration_record(date: dt.date, rows) -> CalibrationRecord:
    """One date's rows, each [param_name, value, objective, converged]."""
    names = [name for name, *_ in rows]
    if names == ["error"]:
        return CalibrationRecord(
            asof=date,
            params=None,
            objective=None,
            converged=False,
            error=rows[0][1] or None,
        )
    values = {name: _parse_float(value, name) for name, value, *_ in rows}
    models = [m for m in fitted_by("calibration") if set(param_fields(m)) == set(names)]
    if not models:
        raise ValueError(
            f"parameter names {sorted(set(names))} match no calibratable model"
        )
    params = MODELS[models[0]].params(**values)
    outcomes = {(objective, converged) for *_, objective, converged in rows}
    if len(outcomes) != 1:
        raise ValueError(f"inconsistent objective/converged on {date}")
    ((objective, converged),) = outcomes
    objective = _parse_float(objective, "objective")
    converged = _parse_flag(converged)
    if len(values) != len(names):
        raise ValueError(f"duplicate parameter rows on {date}")
    return CalibrationRecord(
        asof=date, params=params, objective=objective, converged=converged
    )


def ingest_calibration(path: str | os.PathLike) -> CalibrationSeries:
    """Read a calibration series written by write_calibration."""
    schema = _columns(CALIBRATION_COLUMNS, _calibration_row)
    _, _, records = _read_table(path, "calibration", schema, group=_calibration_record)
    return CalibrationSeries(records=records)


# ---------------------------------------------------------------------------
# state series


def write_states(path: str | os.PathLike, states) -> None:
    """Write a state series: time,r (one factor) or time,x,y (two), with a
    leading date column when the series carries dates."""
    values = np.asarray(states.values, dtype=float)
    two_factor = values.ndim == 2
    columns = ("time", "x", "y") if two_factor else ("time", "r")
    has_dates = states.dates is not None
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow((("date",) if has_dates else ()) + columns)
    for i, t in enumerate(np.asarray(states.times, dtype=float)):
        row = [states.dates[i].isoformat()] if has_dates else []
        row.append(_fmt(t))
        if two_factor:
            row.extend([_fmt(values[i, 0]), _fmt(values[i, 1])])
        else:
            row.append(_fmt(values[i]))
        writer.writerow(row)
    atomic_write_text(path, out.getvalue())


def _state_schema(header):
    """Row function for a state header: an optional date column, then one
    of STATE_COLUMNS.  A row reads as (date or None, time, r or [x, y])."""
    has_dates = header[:1] == ["date"]
    names = tuple(header[1:] if has_dates else header)
    if names not in STATE_COLUMNS:
        raise ValueError(f"header {header!r} matches neither state schema")

    def row(*cells):
        date = parse_date(cells[0]) if has_dates else None
        time, *factors = map(_parse_float, cells[1:] if has_dates else cells, names)
        return date, time, factors if len(factors) == 2 else factors[0]

    return row


def ingest_states(path: str | os.PathLike):
    """Read a state series written by write_states."""
    _, header, rows = _read_table(path, "state", _state_schema)
    dates, times, values = zip(*rows)
    return StateSeries(
        times=np.array(times),
        values=np.array(values),
        dates=list(dates) if header[0] == "date" else None,
    )


# ---------------------------------------------------------------------------
# key=value files: parameters, states, configuration


def _keyvalue_lines(path: str | os.PathLike) -> dict[str, tuple[int, str]]:
    """key -> (line, value) of a key=value file; blank and '#' lines are
    skipped, and malformed or repeated keys are rejected together."""
    with open(path) as handle:
        raw = handle.read().splitlines()
    out: dict[str, tuple[int, str]] = {}
    problems: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append((lineno, f"expected key=value, got {stripped!r}"))
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            problems.append((lineno, f"duplicate key {key!r}"))
            continue
        out[key] = (lineno, value.strip())
    if problems:
        raise IngestionError("key=value file rejected", lines=problems)
    return out


def read_keyvalues(path: str | os.PathLike) -> dict[str, str]:
    return {key: value for key, (_, value) in _keyvalue_lines(path).items()}


def write_keyvalues(path: str | os.PathLike, mapping: dict[str, object]) -> None:
    lines = []
    for key, value in mapping.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_record(path: str | os.PathLike, what: str, cls, missing_text, **fixed):
    """``cls`` from a key=value file holding its fields as finite floats.

    A field with a default may be left out; ``missing_text(names)`` words
    the error for the others.  A ``fixed`` key may appear, with its given
    value only.  Any other key, and every unparseable value, is rejected
    under its line, all in one IngestionError.
    """
    entries = _keyvalue_lines(path)
    for key, expected in fixed.items():
        if key in entries and entries[key][1] != expected:
            raise IngestionError(
                f"file declares {key} {entries[key][1]!r}, expected {expected!r}"
            )
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    required = [k for k, d in defaults.items() if d is dataclasses.MISSING]
    missing = [k for k in required if k not in entries]
    if missing:
        raise IngestionError(missing_text(missing))
    values: dict[str, float] = {}
    problems: list[tuple[int, str]] = []
    for key, (lineno, text) in entries.items():
        try:
            if key in defaults:
                values[key] = _parse_float(text, key)
            elif key not in fixed:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError(f"{what} file rejected", lines=problems)
    return cls(**values)


def params_from_file(path: str | os.PathLike, model: str):
    """Load a parameter set for ``model`` from a key=value file."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    return _read_record(
        path,
        "params",
        MODELS[model].params,
        lambda keys: f"missing parameter keys {keys} for {model}",
        model=model,
    )


def params_to_file(path: str | os.PathLike, model: str, params) -> None:
    write_keyvalues(path, {"model": model, **dataclasses.asdict(params)})


def state_from_file(path: str | os.PathLike, model: str):
    """Load a pricing state: (x, y, t) for the two-factor model, (r, t)
    otherwise; t defaults to 0."""
    return _read_record(
        path,
        "state",
        MODELS[model].state,
        lambda keys: f"missing state key {keys[0]!r}",
    )


def state_to_file(path: str | os.PathLike, state) -> None:
    write_keyvalues(path, dataclasses.asdict(state))
