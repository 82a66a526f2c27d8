"""CSV and key=value file handling for the command-line tools.

All data files are plain comma-separated text with ISO-8601 dates and
decimal-point numerics, locale-independent.  Floats are written with
``repr`` so every emitted file re-ingests bit-identically.  Writers are
atomic: content goes to a temp file in the target directory and is renamed
into place, so a crashed run never leaves a partial file at the final path.

Schemas
-------
panel:          date,instrument_id,price,maturity[,negotiated]
curve:          tau,discount_factor   (optional '# key=value' header lines)
cross-section:  date,maturity_years,zero_price
bonds:          id,face,coupon_rate,frequency,maturity[,first_coupon]
bond quotes:    id,settlement,price
surface:        date,P_1m,...,P_25y   (empty cell = missing)
arbitrage:      tau_low,tau_high,p_low,p_high
calibration:    date,param_name,value,objective,converged  (long format; a
                failed date is one row with param_name=error, the message
                in value, objective empty)
params/state/config: key=value lines, '#' comments
"""

from __future__ import annotations

import csv
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
from .diagnostics import MATURITY_GRID, ArbitrageReport, PriceSurface
from .errors import IngestionError
from .estimation import PricePanel
from .hjm import HoLeeParams, HullWhiteParams, ShortRateState
from .models import PARAM_TYPES, param_fields
from .shortrate import G2State

PANEL_COLUMNS = ("date", "instrument_id", "price", "maturity")
CURVE_COLUMNS = ("tau", "discount_factor")
SECTION_COLUMNS = ("date", "maturity_years", "zero_price")
BOND_COLUMNS = ("id", "face", "coupon_rate", "frequency", "maturity")
QUOTE_COLUMNS = ("id", "settlement", "price")
ARBITRAGE_COLUMNS = ("tau_low", "tau_high", "p_low", "p_high")
CALIBRATION_COLUMNS = ("date", "param_name", "value", "objective", "converged")


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


def _read_rows(path: str | os.PathLike, columns: tuple[str, ...], optional=()):
    """Parse a CSV file, yielding (line_number, row_dict) pairs.

    Validates the header against ``columns`` plus any ``optional`` trailing
    columns.  Leading '# key=value' lines are returned as metadata.
    """
    with open(path, newline="") as handle:
        raw_lines = handle.read().splitlines()
    meta: dict[str, str] = {}
    body_start = 0
    for line in raw_lines:
        if not line.startswith("#"):
            break
        body_start += 1
        stripped = line.lstrip("#").strip()
        if "=" in stripped:
            key, _, value = stripped.partition("=")
            meta[key.strip()] = value.strip()
    body = raw_lines[body_start:]
    if not body:
        raise IngestionError("file has no header row", line=body_start + 1)
    header = next(csv.reader([body[0]]))
    header = [h.strip() for h in header]
    allowed = list(columns) + [c for c in optional if c in header]
    if header != allowed:
        raise IngestionError(
            f"header {header!r} does not match schema {allowed!r}",
            line=body_start + 1,
        )
    rows = []
    for offset, line in enumerate(body[1:], start=body_start + 2):
        if not line.strip():
            continue
        cells = next(csv.reader([line]))
        if len(cells) != len(header):
            raise IngestionError(
                f"expected {len(header)} cells, found {len(cells)}", line=offset
            )
        rows.append((offset, dict(zip(header, (c.strip() for c in cells)))))
    return meta, header, rows


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
    _, header, rows = _read_rows(path, PANEL_COLUMNS, optional=("negotiated",))
    has_flag = "negotiated" in header
    problems: list[tuple[int, str]] = []
    maturities: dict[str, dt.date] = {}
    by_date: dict[dt.date, dict[str, float]] = {}
    flags: dict[dt.date, bool] = {}
    for lineno, row in rows:
        try:
            date = parse_date(row["date"])
            name = row["instrument_id"]
            if not name:
                raise ValueError("empty instrument_id")
            price = _parse_float(row["price"], "price")
            if not 0.0 < price <= 1.0:
                raise ValueError(f"price {price} outside (0, 1]")
            maturity = parse_date(row["maturity"])
            if maturity <= date:
                raise ValueError(f"maturity {maturity} not after quote date {date}")
            if name in maturities and maturities[name] != maturity:
                raise ValueError(
                    f"instrument {name!r} maturity {maturity} conflicts with "
                    f"earlier {maturities[name]}"
                )
            if name in by_date.get(date, {}):
                raise ValueError(f"duplicate quote for {name!r} on {date}")
            if has_flag:
                flag = _parse_flag(row["negotiated"])
                if date in flags and flags[date] != flag:
                    raise ValueError(f"conflicting negotiated flags on {date}")
                flags[date] = flag
            maturities.setdefault(name, maturity)
            by_date.setdefault(date, {})[name] = price
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("panel file rejected", lines=problems)
    if not by_date:
        raise IngestionError("panel file has no data rows")
    dates = sorted(by_date)
    observations = [(d, by_date[d]) for d in dates]
    instruments = sorted(maturities.items())
    negotiated = [flags[d] for d in dates] if has_flag else None
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
    meta, _, rows = _read_rows(path, CURVE_COLUMNS)
    problems: list[tuple[int, str]] = []
    pillars: list[tuple[float, float]] = []
    for lineno, row in rows:
        try:
            tau = _parse_float(row["tau"], "tau")
            df = _parse_float(row["discount_factor"], "discount factor")
            pillars.append((tau, df))
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("curve file rejected", lines=problems)
    asof = parse_date(meta["asof"]) if "asof" in meta else None
    flat = _parse_flag(meta["flat_extrapolation"]) if "flat_extrapolation" in meta else False
    try:
        return DiscountCurve(
            pillars=tuple(pillars), flat_extrapolation=flat, asof=asof
        )
    except ValueError as exc:
        raise IngestionError(str(exc)) from exc


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
    _, _, rows = _read_rows(path, SECTION_COLUMNS)
    problems: list[tuple[int, str]] = []
    by_date: dict[dt.date, list[tuple[float, float]]] = {}
    for lineno, row in rows:
        try:
            date = parse_date(row["date"])
            tau = _parse_float(row["maturity_years"], "maturity")
            if tau <= 0:
                raise ValueError(f"maturity {tau} not positive")
            price = _parse_float(row["zero_price"], "price")
            if not 0.0 < price <= 1.0:
                raise ValueError(f"price {price} outside (0, 1]")
            if any(existing == tau for existing, _ in by_date.get(date, [])):
                raise ValueError(f"duplicate maturity {tau} on {date}")
            by_date.setdefault(date, []).append((tau, price))
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("cross-section file rejected", lines=problems)
    if not by_date:
        raise IngestionError("cross-section file has no data rows")
    return [(d, sorted(by_date[d])) for d in sorted(by_date)]


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
    _, header, rows = _read_rows(path, BOND_COLUMNS, optional=("first_coupon",))
    has_anchor = "first_coupon" in header
    problems: list[tuple[int, str]] = []
    bonds: list[CouponBond] = []
    seen: set[str] = set()
    for lineno, row in rows:
        try:
            bond_id = row["id"]
            if not bond_id:
                raise ValueError("empty bond id")
            if bond_id in seen:
                raise ValueError(f"duplicate bond id {bond_id!r}")
            anchor = None
            if has_anchor and row["first_coupon"]:
                anchor = parse_date(row["first_coupon"])
            bond = CouponBond(
                bond_id=bond_id,
                face=_parse_float(row["face"], "face"),
                coupon_rate=_parse_float(row["coupon_rate"], "coupon rate"),
                frequency=int(row["frequency"]),
                maturity=parse_date(row["maturity"]),
                schedule_anchor=anchor,
            )
            seen.add(bond_id)
            bonds.append(bond)
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("bond file rejected", lines=problems)
    return bonds


def ingest_bond_quotes(
    path: str | os.PathLike,
) -> list[tuple[str, dt.date, float]]:
    _, _, rows = _read_rows(path, QUOTE_COLUMNS)
    problems: list[tuple[int, str]] = []
    quotes: list[tuple[str, dt.date, float]] = []
    for lineno, row in rows:
        try:
            price = _parse_float(row["price"], "price")
            if price <= 0:
                raise ValueError(f"price {price} not positive")
            quotes.append((row["id"], parse_date(row["settlement"]), price))
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("quote file rejected", lines=problems)
    return quotes


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


def ingest_surface(path: str | os.PathLike) -> PriceSurface:
    _, header, rows = _read_rows(path, SURFACE_COLUMNS)
    problems: list[tuple[int, str]] = []
    dates: list[dt.date] | list[float] = []
    values = []
    for lineno, row in rows:
        try:
            raw = row["date"]
            try:
                date = parse_date(raw)
            except ValueError:
                date = _parse_float(raw, "date")
            cells = [
                math.nan if row[c] == "" else _parse_float(row[c], c)
                for c in SURFACE_COLUMNS[1:]
            ]
            dates.append(date)
            values.append(cells)
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("surface file rejected", lines=problems)
    if not values:
        raise IngestionError("surface file has no data rows")
    return PriceSurface(
        dates=dates, maturities=MATURITY_GRID, values=np.array(values)
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


def ingest_arbitrage(path: str | os.PathLike) -> ArbitrageReport:
    _, _, rows = _read_rows(path, ARBITRAGE_COLUMNS)
    problems: list[tuple[int, str]] = []
    violations = []
    for lineno, row in rows:
        try:
            violations.append(
                tuple(_parse_float(row[c], c) for c in ARBITRAGE_COLUMNS)
            )
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("arbitrage file rejected", lines=problems)
    return ArbitrageReport(violations=violations)


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


def ingest_calibration(path: str | os.PathLike) -> CalibrationSeries:
    """Read a calibration series written by write_calibration."""
    _, _, rows = _read_rows(path, CALIBRATION_COLUMNS)
    problems: list[tuple[int, str]] = []
    grouped: dict[dt.date, list[tuple[int, dict[str, str]]]] = {}
    order: list[dt.date] = []
    for lineno, row in rows:
        try:
            date = parse_date(row["date"])
        except ValueError as exc:
            problems.append((lineno, str(exc)))
            continue
        if date not in grouped:
            order.append(date)
        grouped.setdefault(date, []).append((lineno, row))
    records: list[CalibrationRecord] = []
    for date in order:
        date_rows = grouped[date]
        names = [row["param_name"] for _, row in date_rows]
        if names == ["error"]:
            records.append(
                CalibrationRecord(
                    asof=date,
                    params=None,
                    objective=None,
                    converged=False,
                    error=date_rows[0][1]["value"] or None,
                )
            )
            continue
        try:
            values = {
                row["param_name"]: _parse_float(row["value"], row["param_name"])
                for _, row in date_rows
            }
            if set(names) == {"sigma"}:
                params = HoLeeParams(sigma=values["sigma"])
            elif set(names) == {"a", "sigma"}:
                params = HullWhiteParams(a=values["a"], sigma=values["sigma"])
            else:
                raise ValueError(
                    f"parameter names {sorted(set(names))} match no "
                    "calibratable model"
                )
            objectives = {row["objective"] for _, row in date_rows}
            flags = {row["converged"] for _, row in date_rows}
            if len(objectives) != 1 or len(flags) != 1:
                raise ValueError(f"inconsistent objective/converged on {date}")
            records.append(
                CalibrationRecord(
                    asof=date,
                    params=params,
                    objective=_parse_float(objectives.pop(), "objective"),
                    converged=_parse_flag(flags.pop()),
                )
            )
        except ValueError as exc:
            problems.append((date_rows[0][0], str(exc)))
    if problems:
        raise IngestionError("calibration file rejected", lines=problems)
    if not records:
        raise IngestionError("calibration file has no data rows")
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


def ingest_states(path: str | os.PathLike):
    """Read a state series written by write_states."""
    from .estimation import StateSeries

    with open(path, newline="") as handle:
        first = handle.readline()
    header = [h.strip() for h in next(csv.reader([first]))]
    has_dates = header and header[0] == "date"
    base = tuple(header[1:] if has_dates else header)
    if base == ("time", "x", "y"):
        two_factor = True
    elif base == ("time", "r"):
        two_factor = False
    else:
        raise IngestionError(
            f"header {header!r} matches neither state schema", line=1
        )
    columns = (("date",) if has_dates else ()) + base
    _, _, rows = _read_rows(path, columns)
    problems: list[tuple[int, str]] = []
    dates: list[dt.date] = []
    times: list[float] = []
    values: list = []
    for lineno, row in rows:
        try:
            if has_dates:
                dates.append(parse_date(row["date"]))
            times.append(_parse_float(row["time"], "time"))
            if two_factor:
                values.append(
                    [_parse_float(row["x"], "x"), _parse_float(row["y"], "y")]
                )
            else:
                values.append(_parse_float(row["r"], "r"))
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise IngestionError("state file rejected", lines=problems)
    if not times:
        raise IngestionError("state file has no data rows")
    return StateSeries(
        times=np.array(times),
        values=np.array(values),
        dates=dates if has_dates else None,
    )


# ---------------------------------------------------------------------------
# key=value files: parameters, states, configuration


def read_keyvalues(path: str | os.PathLike) -> dict[str, str]:
    with open(path) as handle:
        raw = handle.read().splitlines()
    out: dict[str, str] = {}
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
        out[key] = value.strip()
    if problems:
        raise IngestionError("key=value file rejected", lines=problems)
    return out


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


def params_from_file(path: str | os.PathLike, model: str):
    """Load a parameter set for ``model`` from a key=value file."""
    if model not in PARAM_TYPES:
        raise ValueError(f"unknown model {model!r}")
    mapping = read_keyvalues(path)
    if "model" in mapping and mapping["model"] != model:
        raise IngestionError(
            f"file declares model {mapping['model']!r}, expected {model!r}"
        )
    fields = param_fields(model)
    missing = [f for f in fields if f not in mapping]
    if missing:
        raise IngestionError(f"missing parameter keys {missing} for {model}")
    kwargs = {f: _parse_float(mapping[f], f) for f in fields}
    return PARAM_TYPES[model](**kwargs)


def params_to_file(path: str | os.PathLike, model: str, params) -> None:
    mapping: dict[str, object] = {"model": model}
    for field_name in param_fields(model):
        mapping[field_name] = getattr(params, field_name)
    write_keyvalues(path, mapping)


def state_from_file(path: str | os.PathLike, model: str):
    """Load a pricing state: (x, y, t) for the two-factor model, (r, t)
    otherwise."""
    mapping = read_keyvalues(path)
    t = _parse_float(mapping.get("t", "0"), "t")
    if model == "g2pp":
        for key in ("x", "y"):
            if key not in mapping:
                raise IngestionError(f"missing state key {key!r}")
        return G2State(
            x=_parse_float(mapping["x"], "x"),
            y=_parse_float(mapping["y"], "y"),
            t=t,
        )
    if "r" not in mapping:
        raise IngestionError("missing state key 'r'")
    return ShortRateState(r=_parse_float(mapping["r"], "r"), t=t)


def state_to_file(path: str | os.PathLike, state) -> None:
    if isinstance(state, G2State):
        write_keyvalues(path, {"x": state.x, "y": state.y, "t": state.t})
    else:
        write_keyvalues(path, {"r": state.r, "t": state.t})
