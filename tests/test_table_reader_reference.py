"""The table readers against a frozen copy of the per-record readers they
replaced.

Every fileio CSV reader hands its schema the whole table at once and checks
it column by column.  The reference below is a verbatim copy of the earlier
``_read_table``, which called one row function per record (and a group
function per calibration date), with the nine readers and their row
functions as they were, save two rules added to both since: a bond quote
with an empty id fails, and a surface date column takes the kind (ISO
dates or numeric times) of the first record whose date reads, a later
record of the other kind failing.  Both read the same seeded random
tables, valid and malformed: several bad records failing different checks,
one record failing two checks, blank and whitespace-only records, quoted
fields that span lines, CRLF line ends, metadata lines, repeated and
out-of-order curve pillars, duplicate quotes and conflicting panel
maturities and flags.  Each table must read to the same result, or fail
with the same IngestionError text and lines.
"""

import csv
import dataclasses
import datetime as dt
import math
import os
import random

import numpy as np
import pytest

from curveforge import fileio
from curveforge.bonds import CouponBond
from curveforge.calibration import CalibrationRecord, CalibrationSeries
from curveforge.curve import DiscountCurve
from curveforge.daycount import parse_date
from curveforge.diagnostics import MATURITY_GRID, ArbitrageReport, PriceSurface, check_violation
from curveforge.errors import IngestionError
from curveforge.estimation import PricePanel, StateSeries
from curveforge.models import MODELS, fitted_by, param_fields

# -- the reference: the per-record readers, verbatim --------------------------

PANEL_COLUMNS = ("date", "instrument_id", "price", "maturity")
CURVE_COLUMNS = ("tau", "discount_factor")
SECTION_COLUMNS = ("date", "maturity_years", "zero_price")
BOND_COLUMNS = ("id", "face", "coupon_rate", "frequency", "maturity")
QUOTE_COLUMNS = ("id", "settlement", "price")
ARBITRAGE_COLUMNS = ("tau_low", "tau_high", "p_low", "p_high")
CALIBRATION_COLUMNS = ("date", "param_name", "value", "objective", "converged")
STATE_COLUMNS = (("time", "x", "y"), ("time", "r"))


def _tenor_label(tau: float) -> str:
    months = tau * 12.0
    if tau < 1.0:
        return f"P_{int(round(months))}m"
    return f"P_{int(round(tau))}y"


SURFACE_COLUMNS = ("date",) + tuple(_tenor_label(tau) for tau in MATURITY_GRID)


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
    if not bond_id:
        raise ValueError("empty bond id")
    price = _parse_float(price, "price")
    if price <= 0:
        raise ValueError(f"price {price} not positive")
    return bond_id, parse_date(settlement), price


def ingest_bond_quotes(
    path: str | os.PathLike,
) -> list[tuple[str, dt.date, float]]:
    schema = _columns(QUOTE_COLUMNS, _quote)
    return _read_table(path, "quote", schema, allow_empty=True)[2]


def _surface_price(cell: str, label: str) -> float:
    if cell == "":
        return math.nan
    price = _parse_float(cell, label)
    if not 0.0 < price <= 1.0:
        raise ValueError(f"{label} {price} outside (0, 1]")
    return price


def ingest_surface(path: str | os.PathLike) -> PriceSurface:
    kinds = []

    def row(date, *cells):
        text = date
        try:
            date = parse_date(text)
        except ValueError:
            date = _parse_float(text, "date")
        kinds.append(type(date))
        if type(date) is not kinds[0]:
            kind = "an ISO date" if kinds[0] is dt.date else "a numeric time"
            raise ValueError(f"date {text!r} is not {kind} like the first record's")
        return date, list(map(_surface_price, cells, SURFACE_COLUMNS[1:]))

    _, _, rows = _read_table(path, "surface", _columns(SURFACE_COLUMNS, row))
    return _build(
        PriceSurface,
        dates=[date for date, _ in rows],
        maturities=MATURITY_GRID,
        values=np.array([cells for _, cells in rows]),
    )


def _violation(*cells):
    violation = tuple(_parse_float(c, name) for c, name in zip(cells, ARBITRAGE_COLUMNS))
    check_violation(*violation)
    return violation


def ingest_arbitrage(path: str | os.PathLike) -> ArbitrageReport:
    schema = _columns(ARBITRAGE_COLUMNS, _violation)
    _, _, violations = _read_table(path, "arbitrage", schema, allow_empty=True)
    return _build(ArbitrageReport, violations=violations)


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



# -- seeded random tables ------------------------------------------------------

DATES = ["2013-01-07", "2013-01-14", "2013-01-21", "2013-01-28"]
BAD_DATES = ["not-a-date", "2013-02-30", "2013-13-07", "", "07/01/2013"]
BAD_FLOATS = ["x", "nan", "inf", "-inf", "1e400", "", "1.0.0"]
TAUS = ["0.25", "0.5", "1.0", "2", "5.0", "1e1", "30"]


def _price(rng) -> str:
    return rng.choice([repr(rng.uniform(0.2, 1.0)), repr(rng.uniform(0.2, 1.0)),
                       "1", "1.0", ".5", "5e-1", "0.9"])


def _panel(rng):
    maturity = {"S": "2025-01-06", "L": "2033-01-03", "M": "2020-06-30", "L\nX": "2030-01-01"}
    flagged = rng.random() < 0.5
    header = ["date", "instrument_id", "price", "maturity"] + (["negotiated"] if flagged else [])
    rows = []
    for date in rng.sample(DATES, rng.randint(1, 4)):
        flag = rng.choice(["1", "0", "true", "no", "YES"])
        for name in rng.sample(sorted(maturity), rng.randint(1, 3)):
            rows.append([date, name, _price(rng), maturity[name]] + ([flag] if flagged else []))
    rng.shuffle(rows)
    bad = [BAD_DATES, ["", " "], BAD_FLOATS + ["0", "1.5", "-0.2"],
           BAD_DATES + ["2012-01-01", "2013-01-08"], ["maybe", "", "2"]]
    return header, rows, bad, []


def _curve(rng):
    knots = sorted(rng.sample(range(1, 120), rng.randint(0, 8)))
    rows = [[rng.choice([repr(k / 4), f"{k / 4:.2e}"]), repr(math.exp(-0.01 * k))]
            for k in knots]
    meta = rng.sample(["# asof=2013-01-05", "#flat_extrapolation = yes", "# a comment",
                       "# asof=2013-02-30", "# flat_extrapolation=maybe"], rng.randint(0, 2))
    bad = [BAD_FLOATS + ["0", "-1.0"], BAD_FLOATS + ["0", "1.5"]]
    return ["tau", "discount_factor"], rows, bad, meta


def _sections(rng):
    rows = [[date, tau, _price(rng)]
            for date in rng.sample(DATES, rng.randint(1, 3))
            for tau in rng.sample(TAUS, rng.randint(1, 5))]
    rng.shuffle(rows)
    bad = [BAD_DATES, BAD_FLOATS + ["0", "-1"], BAD_FLOATS + ["0", "1.5"]]
    return ["date", "maturity_years", "zero_price"], rows, bad, []


def _bonds(rng):
    anchored = rng.random() < 0.5
    rows = []
    for bond_id in rng.sample(["A", "B", "C", "G", "B,2", "Z\n9"], rng.randint(0, 4)):
        rate = rng.choice(["0.0", "0.06", "0.0525"])
        row = [bond_id, rng.choice(["100", "100.0", "1e2", "50.5"]), rate,
               "0" if rate == "0.0" else rng.choice(["1", "2", "4"]),
               rng.choice(["2015-01-07", "2025-01-06", "2030-01-06"])]
        rows.append(row + ([rng.choice(["", "2013-07-06", " 2013-06-15 "])] if anchored else []))
    bad = [["", " ", "A"], BAD_FLOATS + ["-100", "0"], BAD_FLOATS + ["-0.01"],
           ["two", "", "1.5", "-1", "0"], BAD_DATES, ["2013-02-30", "bad", "2031-01-01"]]
    header = ["id", "face", "coupon_rate", "frequency", "maturity"]
    return header + (["first_coupon"] if anchored else []), rows, bad, []


def _quotes(rng):
    rows = [[rng.choice(["A", "B", "B,2"]), rng.choice(DATES),
             rng.choice(["101.5", " 95.125", "1e2", repr(rng.uniform(80, 120))])]
            for _ in range(rng.randint(0, 5))]
    bad = [["", "C"], BAD_DATES, BAD_FLOATS + ["0", "-3.0"]]
    return ["id", "settlement", "price"], rows, bad, []


def _surface(rng):
    rows = [[rng.choice(DATES + ["0.0", "0.5", "1.25"])]
            + [_price(rng) if rng.random() < 0.9 else "" for _ in MATURITY_GRID]
            for _ in range(rng.randint(1, 5))]
    bad = [["soon", "nan", "2013-02-30", "", "inf"]] + [
        [b for b in BAD_FLOATS if b] + ["0", "1.5"]
    ] * len(MATURITY_GRID)
    return list(fileio.SURFACE_COLUMNS), rows, bad, []


def _arbitrage(rng):
    rows = []
    for _ in range(rng.randint(0, 5)):
        taus = sorted(rng.sample(["0.25", "1.0", "2.0", "3.0", "30.0"], 2), key=float)
        prices = sorted(rng.sample(["0.1", "0.9", "0.95", "0.99", "0.30000000000000004"], 2),
                        key=float)
        rows.append(taus + prices)
    return ["tau_low", "tau_high", "p_low", "p_high"], rows, [BAD_FLOATS] * 4, []


def _calibration(rng):
    rows = []
    for date in rng.sample(DATES, rng.randint(1, 4)):
        kind = rng.choice(["holee", "hullwhite", "error"])
        if kind == "error":
            message = rng.choice(["", "boom", "maturities must be distinct, after asof",
                                  "line one\nline two", "a \"quoted\" word"])
            rows.append([date, "error", message, "", "0"])
            continue
        objective, converged = repr(rng.uniform(0, 1e-17)), rng.choice(["1", "0", "true"])
        names = ["sigma"] if kind == "holee" else ["a", "sigma"]
        rows.extend([date, name, repr(rng.uniform(0.001, 0.5)), objective, converged]
                    for name in names)
    if rng.random() < 0.5:
        rng.shuffle(rows)
    bad = [BAD_DATES, ["kappa", "error", "sigma", "a"], BAD_FLOATS, BAD_FLOATS + ["0"],
           ["maybe", "", "2"]]
    return ["date", "param_name", "value", "objective", "converged"], rows, bad, []


def _states(rng):
    has_dates, two = rng.random() < 0.5, rng.random() < 0.5
    names = ["time"] + (["x", "y"] if two else ["r"])
    rows = []
    for k in range(rng.randint(1, 6)):
        row = [(dt.date(2013, 1, 7) + dt.timedelta(weeks=k)).isoformat()] if has_dates else []
        rows.append(row + [repr(k / 52)] + [repr(rng.uniform(-0.05, 0.05)) for _ in names[1:]])
    bad = ([BAD_DATES] if has_dates else []) + [BAD_FLOATS] * len(names)
    meta = ["# asof=2013-01-07"] if rng.random() < 0.2 else []
    return (["date"] if has_dates else []) + names, rows, bad, meta


TABLES = {
    "ingest_panel": _panel,
    "ingest_curve": _curve,
    "ingest_cross_sections": _sections,
    "ingest_bonds": _bonds,
    "ingest_bond_quotes": _quotes,
    "ingest_surface": _surface,
    "ingest_arbitrage": _arbitrage,
    "ingest_calibration": _calibration,
    "ingest_states": _states,
}


def _mutate(rng, header, rows, bad):
    """Spoil some of the valid records: bad cells (at times two in one
    record), repeated records (at times with a bad cell), swapped records,
    a cell taken from another record; rarely a record with a wrong cell
    count or a wrong header."""
    for _ in range(rng.choice([0, 0, 1, 2, 3, 5])):
        if not rows:
            break
        i, kind = rng.randrange(len(rows)), rng.random()
        if kind < 0.5:
            for _ in range(rng.choice([1, 1, 2])):
                j = rng.randrange(len(header))
                rows[i][j] = rng.choice(bad[j])
        elif kind < 0.65:
            copy = list(rows[i])
            if rng.random() < 0.5:
                j = rng.randrange(len(header))
                copy[j] = rng.choice(bad[j])
            rows.insert(rng.randrange(len(rows) + 1), copy)
        elif kind < 0.8:
            k = rng.randrange(len(rows))
            rows[i], rows[k] = rows[k], rows[i]
        else:
            j = rng.randrange(len(header))
            rows[i][j] = rng.choice(rows)[j]
    if rows and rng.random() < 0.04:
        i = rng.randrange(len(rows))
        rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + ["1"]
    if rng.random() < 0.02:
        header[-1] += "_"


def _cell(rng, text: str) -> str:
    if rng.random() < 0.1:
        text = f" {text} "
    if any(c in text for c in ',"\r\n') or rng.random() < 0.1:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render(rng, header, rows, meta) -> str:
    eol = rng.choice(["\n", "\r\n"])
    lines = list(meta)
    for k, cells in enumerate([header] + rows):
        if k and rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", " \t"]))
        lines.append(",".join(_cell(rng, c) for c in cells))
    text = eol.join(lines)
    return text if rng.random() < 0.3 else text + eol


def _canon(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, _canon(obj.tolist())]
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__, [_canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)]]
    if isinstance(obj, (list, tuple)):
        return [type(obj).__name__, [_canon(x) for x in obj]]
    if isinstance(obj, dict):
        return [[_canon(k), _canon(v)] for k, v in obj.items()]
    return [type(obj).__name__, repr(obj)]


def _outcome(read, path):
    try:
        return "read", _canon(read(path))
    except IngestionError as exc:
        return "rejected", str(exc), exc.line, exc.lines
    except Exception as exc:  # noqa: BLE001 - whatever the reference raised
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("reader", sorted(TABLES))
def test_random_tables_read_as_the_reference_reads_them(tmp_path, reader):
    path = tmp_path / "table.csv"
    kinds = {"read": 0, "one line": 0, "several lines": 0}
    for seed in range(250):
        rng = random.Random(f"{reader}-{seed}")
        header, rows, bad, meta = TABLES[reader](rng)
        _mutate(rng, header, rows, bad)
        path.write_bytes(_render(rng, header, rows, meta).encode())
        expected = _outcome(globals()[reader], path)
        assert _outcome(getattr(fileio, reader), path) == expected, path.read_text()
        if expected[0] == "read":
            kinds["read"] += 1
        elif expected[0] == "rejected":
            kinds["several lines" if len(expected[3]) > 1 else "one line"] += 1
    # the tables reach valid files, single failures and multi-line reports
    assert min(kinds.values()) > 0, kinds


def test_every_table_reader_is_compared():
    readers = [name for name in vars(fileio) if name.startswith("ingest_")]
    assert sorted(readers) == sorted(TABLES)
