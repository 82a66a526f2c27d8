"""CSV and key=value file handling for the command-line tools.

All data files are plain comma-separated text with ISO-8601 dates and
decimal-point numerics, locale-independent.  Floats are written with
``repr`` so every emitted file re-ingests bit-identically; a free-text
cell that ingest would not read back unchanged (empty, or with edge
whitespace, which ingest strips) is refused.  Writers are atomic: content
goes to a temp file in the target directory and is renamed into place, so
a crashed run never leaves a partial file at the final path.

One reader parses every CSV schema: leading '# key=value' lines are
metadata, blank records are skipped and a quoted field may span lines.  It
hands the schema the whole table at once, as stripped columns with the line
each record starts on.  Each schema checks a column at a time, in the order
a record's checks go, and the checks that depend on earlier records (pillar
order, repeats, conflicts, grouping) in record order; every record reports
only its first failed check.  One IngestionError lists every offending
line.  Params and state files accept only the fields of their class (and
``model`` in a params file).

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


def _text_cell(text: str, what: str) -> str:
    """``text`` as a CSV cell that ingest reads back unchanged.

    Ingest strips every cell (``str.strip``: spaces, line breaks, \\x85,
    \\x0c and the other Unicode whitespace) and reads an empty text cell as
    missing, so empty text or text with edge whitespace is refused with a
    ValueError that names the cell.
    """
    if not text or text != text.strip():
        raise ValueError(
            f"{what} {text!r} does not read back unchanged: a text cell must be "
            "non-empty, with no leading or trailing whitespace"
        )
    return text


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


class _Table:
    """The data records of a CSV table, column by column.

    ``columns[j]`` holds column j's stripped cells and ``lines[i]`` the line
    where record i starts.  Checks run over whole columns in the order a
    record is checked in; ``failed`` keeps each record's first failure
    (record -> message), and a check of values that need an earlier check
    to pass runs over the ``live`` records only.  ``later`` holds failures
    of groups of records, reported after the records' own.
    """

    def __init__(self, columns: list[list[str]], lines: list[int]):
        self.columns = columns
        self.lines = lines
        self.failed: dict[int, str] = {}
        self.later: list[tuple[int, str]] = []

    def fail(self, i: int, message: str) -> None:
        self.failed.setdefault(i, message)

    def live(self):
        """Indices of the records that have not failed, ascending."""
        failed = self.failed
        return [i for i in range(len(self.lines)) if i not in failed]

    def parsed(self, j: int, parse) -> list:
        """``parse`` of column j's cells; each record whose cell raises a
        ValueError fails with its message and reads as None."""
        values, errors = _parse_each(self.columns[j], parse)
        for i, message in errors.items():
            self.fail(i, message)
        return values

    def floats(self, j: int, what: str, blank_nan: bool = False) -> list[float]:
        """Column j as finite floats, as _parse_float reads a cell; a record
        whose cell is not one fails and reads as nan.  With ``blank_nan``
        an empty cell reads as nan and passes."""
        texts = self.columns[j]
        try:
            values = list(map(float, texts))
        except ValueError:
            values = []
            for i, text in enumerate(texts):
                try:
                    values.append(float(text))
                except ValueError:
                    values.append(math.nan)
                    if not (blank_nan and text == ""):
                        self.fail(i, f"unparseable {what} {text!r}")
        if not all(map(math.isfinite, values)):
            for i, (text, value) in enumerate(zip(texts, values)):
                if not math.isfinite(value) and not (blank_nan and text == ""):
                    self.fail(i, f"non-finite {what} {text!r}")
        return values

    def positive(self, values: list[float], message: str, top: float = math.inf):
        """Fail each record whose value v is not 0 < v <= top, with
        ``message.format(v)``."""
        for i, value in enumerate(values):
            if not 0.0 < value <= top:
                self.fail(i, message.format(value))


def _parse_each(texts: list[str], parse) -> tuple[list, dict[int, str]]:
    """(values, errors): ``parse`` of each text, each distinct text parsed
    once; errors maps the index of each text that raised a ValueError to
    its message, and its value is None."""
    parsed: dict[str, object] = {}
    bad: dict[str, str] = {}
    for text in dict.fromkeys(texts):
        try:
            parsed[text] = parse(text)
        except ValueError as exc:
            bad[text] = str(exc)
    errors = {i: bad[text] for i, text in enumerate(texts) if text in bad} if bad else {}
    return list(map(parsed.get, texts)), errors


def _read_table(path: str | os.PathLike, what: str, schema, allow_empty=False):
    """Read a CSV file in one pass; return (meta, header, result).

    Leading '#' lines are metadata, key -> (line, value).  ``schema`` takes
    the stripped header and returns the table function or raises
    ValueError.  Blank records are skipped; the others need one cell per
    column, and all of them go to the table function at once, as one
    _Table; it returns the result.  A file without data records is
    rejected unless ``allow_empty``.  The failures the table function
    marks are raised in one IngestionError, each under the line where its
    record starts.
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
    rows: list[list[str]] = []
    starts: list[int] = []
    next_line = start + 1
    try:
        cells = next(records, None)
        if cells is None:
            raise IngestionError("file has no header row", line=next_line)
        header = [cell.strip() for cell in cells]
        try:
            table = schema(header)
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
            rows.append(cells)
            starts.append(lineno)
    except csv.Error as exc:
        raise IngestionError(str(exc), line=next_line) from exc
    if not rows and not allow_empty:
        raise IngestionError(f"{what} file has no data rows")
    columns = [list(map(str.strip, column)) for column in zip(*rows)]
    data = _Table(columns or [[] for _ in header], starts)
    result = table(data)
    if data.failed or data.later:
        problems = [(starts[i], m) for i, m in sorted(data.failed.items())]
        raise IngestionError(f"{what} file rejected", lines=problems + data.later)
    return meta, header, result


def _columns(columns: tuple[str, ...], table, optional=()):
    """Schema for a header of ``columns`` followed by any of the
    ``optional`` trailing columns, the records read by ``table``."""

    def schema(header):
        allowed = list(columns) + [c for c in optional if c in header]
        if header != allowed:
            raise ValueError(f"header {header!r} does not match schema {allowed!r}")
        return table

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


def _panel_table(t: _Table):
    dates = t.parsed(0, parse_date)
    names = t.columns[1]
    for i, name in enumerate(names):
        if not name:
            t.fail(i, "empty instrument_id")
    prices = t.floats(2, "price")
    t.positive(prices, "price {} outside (0, 1]", top=1.0)
    ends = t.parsed(3, parse_date)
    for i in t.live():
        if ends[i] <= dates[i]:
            t.fail(i, f"maturity {ends[i]} not after quote date {dates[i]}")
    flagged = len(t.columns) > 4
    if flagged:
        marks, unparsed = _parse_each(t.columns[4], _parse_flag)
    maturities: dict[str, dt.date] = {}
    by_date: dict[dt.date, dict[str, float]] = {}
    flags: dict[dt.date, bool] = {}
    for i in t.live():
        date, name, maturity = dates[i], names[i], ends[i]
        if name in maturities and maturities[name] != maturity:
            problem = (f"instrument {name!r} maturity {maturity} conflicts with "
                       f"earlier {maturities[name]}")
        elif name in by_date.get(date, {}):
            problem = f"duplicate quote for {name!r} on {date}"
        elif flagged and i in unparsed:
            problem = unparsed[i]
        elif flagged and flags.setdefault(date, marks[i]) != marks[i]:
            problem = f"conflicting negotiated flags on {date}"
        else:
            maturities.setdefault(name, maturity)
            by_date.setdefault(date, {})[name] = prices[i]
            continue
        t.fail(i, problem)
    return maturities, by_date, flags


def ingest_panel(path: str | os.PathLike) -> PricePanel:
    """Read a long-format price panel, validating every row.

    All malformed rows are collected and reported together, each with its
    line number, rather than stopping at the first.
    """
    schema = _columns(PANEL_COLUMNS, _panel_table, ("negotiated",))
    maturities, by_date, flags = _read_table(path, "panel", schema)[2]
    dates = sorted(by_date)
    observations = [(d, by_date[d]) for d in dates]
    instruments = sorted(maturities.items())
    negotiated = [flags[d] for d in dates] if flags else None
    return PricePanel(
        observations=observations, instruments=instruments, negotiated=negotiated
    )


def write_panel(path: str | os.PathLike, panel: PricePanel) -> None:
    maturity = dict(panel.instruments)
    for name in maturity:
        _text_cell(name, "instrument_id")
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


def _curve_table(t: _Table):
    taus = t.floats(0, "tau")
    t.positive(taus, "tau {} not positive")
    previous = -math.inf
    for i in t.live():
        tau = taus[i]
        if tau < previous:
            t.fail(i, f"tau {tau} below the previous pillar's {previous}")
        elif tau == previous:
            t.fail(i, f"tau {tau} repeats the previous pillar")
        else:
            previous = tau
    dfs = t.floats(1, "discount factor")
    t.positive(dfs, "discount factor {} outside (0, 1]", top=1.0)
    return tuple(zip(taus, dfs))


def ingest_curve(path: str | os.PathLike) -> DiscountCurve:
    schema = _columns(CURVE_COLUMNS, _curve_table)
    meta, _, pillars = _read_table(path, "curve", schema, allow_empty=True)
    settings = {}
    for key, parse in (("asof", parse_date), ("flat_extrapolation", _parse_flag)):
        if key in meta:
            lineno, text = meta[key]
            try:
                settings[key] = parse(text)
            except ValueError as exc:
                raise IngestionError(f"{key}: {exc}", line=lineno) from exc
    return _build(DiscountCurve, pillars=pillars, **settings)


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


def _section_table(t: _Table):
    dates = t.parsed(0, parse_date)
    taus = t.floats(1, "maturity")
    t.positive(taus, "maturity {} not positive")
    prices = t.floats(2, "price")
    t.positive(prices, "price {} outside (0, 1]", top=1.0)
    by_date: dict[dt.date, dict[float, float]] = {}
    for i in t.live():
        date, tau = dates[i], taus[i]
        quotes = by_date.setdefault(date, {})
        if tau in quotes:
            t.fail(i, f"duplicate maturity {tau} on {date}")
        else:
            quotes[tau] = prices[i]
    return by_date


def ingest_cross_sections(
    path: str | os.PathLike,
) -> list[tuple[dt.date, list[tuple[float, float]]]]:
    """Read dated zero quotes, grouped by date in ascending order."""
    schema = _columns(SECTION_COLUMNS, _section_table)
    by_date = _read_table(path, "cross-section", schema)[2]
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


def _bond_table(t: _Table):
    # a repeated id is checked second but only against the bonds that
    # passed every check, so each bond is read whole, in record order
    bonds: list[CouponBond] = []
    seen: set[str] = set()
    for i, (bond_id, face, coupon_rate, frequency, maturity, *first_coupon) in (
        enumerate(zip(*t.columns))
    ):
        try:
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
        except ValueError as exc:
            t.fail(i, str(exc))
            continue
        seen.add(bond_id)
        bonds.append(bond)
    return bonds


def ingest_bonds(path: str | os.PathLike) -> list[CouponBond]:
    schema = _columns(BOND_COLUMNS, _bond_table, optional=("first_coupon",))
    return _read_table(path, "bond", schema, allow_empty=True)[2]


def _quote_table(t: _Table) -> list[tuple[str, dt.date, float]]:
    for i, bond_id in enumerate(t.columns[0]):
        if not bond_id:
            t.fail(i, "empty bond id")
    prices = t.floats(2, "price")
    t.positive(prices, "price {} not positive")
    settlements = t.parsed(1, parse_date)
    return list(zip(t.columns[0], settlements, prices))


def ingest_bond_quotes(
    path: str | os.PathLike,
) -> list[tuple[str, dt.date, float]]:
    schema = _columns(QUOTE_COLUMNS, _quote_table)
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


def _surface_date(text: str) -> dt.date | float:
    try:
        return parse_date(text)
    except ValueError:
        return _parse_float(text, "date")


def _surface_table(t: _Table):
    # the first record whose date reads decides the column's kind: ISO
    # dates or numeric times
    dates = t.parsed(0, _surface_date)
    kind = next((type(d) for d in dates if d is not None), None)
    name = "an ISO date" if kind is dt.date else "a numeric time"
    for i, date in enumerate(dates):
        if date is not None and type(date) is not kind:
            t.fail(i, f"date {t.columns[0][i]!r} is not {name} like the first record's")
    columns = []
    for j, label in enumerate(SURFACE_COLUMNS[1:], start=1):
        prices = t.floats(j, label, blank_nan=True)
        for i, price in enumerate(prices):
            if price <= 0.0 or price > 1.0:  # a blank or failed cell is nan
                t.fail(i, f"{label} {price} outside (0, 1]")
        columns.append(prices)
    return dates, np.array(columns).T.copy()


def ingest_surface(path: str | os.PathLike) -> PriceSurface:
    _, _, (dates, values) = _read_table(
        path, "surface", _columns(SURFACE_COLUMNS, _surface_table)
    )
    return _build(PriceSurface, dates=dates, maturities=MATURITY_GRID, values=values)


def _violation_pieces(report: ArbitrageReport, seps: tuple[str, ...]) -> list[str]:
    """Every violation as seps[0] T_low seps[1] T_high seps[2] P_low
    seps[3] P_high seps[4], the fields written with _fmt, in four pieces
    per row, for one join of the whole file.

    The rows are read from the report's index table: each field a row uses
    (an audit of n maturities has at most its 2n maturities and prices) is
    formatted once and joined once with the separators around each of its
    columns, and a row gathers its four pieces by index.
    """
    n = len(report.rows)
    if not n:
        return []
    used = np.zeros(len(report.fields), dtype=bool)
    used[report.rows] = True
    rows = (np.cumsum(used) - 1)[report.rows]
    text = np.array(list(map(_fmt, report.fields[used].tolist())), dtype=object)
    columns = (seps[0] + text + seps[1], text + seps[2], text + seps[3], text + seps[4])
    parts = np.empty((n, 4), dtype=object)
    for k, column in enumerate(columns):
        parts[:, k] = column[rows[:, k]]
    return parts.ravel().tolist()


def write_arbitrage(path: str | os.PathLike, report: ArbitrageReport) -> None:
    header = ",".join(ARBITRAGE_COLUMNS) + "\r\n"
    rows = _violation_pieces(report, ("", ",", ",", ",", "\r\n"))
    atomic_write_text(path, "".join([header, *rows]))


def _violation_table(t: _Table) -> list[tuple[float, float, float, float]]:
    columns = [t.floats(j, name) for j, name in enumerate(ARBITRAGE_COLUMNS)]
    t_lo, t_hi, p_lo, p_hi = np.array(columns)
    for i in np.flatnonzero(~((t_lo < t_hi) & (p_lo < p_hi))).tolist():
        if i not in t.failed:
            try:
                check_violation(*(column[i] for column in columns))
            except ValueError as exc:
                t.fail(i, str(exc))
    return list(zip(*columns))


def ingest_arbitrage(path: str | os.PathLike) -> ArbitrageReport:
    schema = _columns(ARBITRAGE_COLUMNS, _violation_table)
    _, _, violations = _read_table(path, "arbitrage", schema, allow_empty=True)
    return _build(ArbitrageReport, violations=violations)


def render_arbitrage_text(report: ArbitrageReport) -> str:
    """Human-readable, line-oriented rendering of an arbitrage report."""
    pieces = _violation_pieces(
        report, ("VIOLATION maturity ", " -> ", ": price rises ", " -> ", "\n")
    )
    pieces += [f"DERIVATIVE SIGN CHANGE at T={_fmt(T)}\n" for T in report.derivative_sign_changes]
    text = "".join(pieces)
    return text or "CLEAN no static-arbitrage violations found\n"


# ---------------------------------------------------------------------------
# calibration series


def write_calibration(path: str | os.PathLike, series: CalibrationSeries) -> None:
    """Write per-date fitted parameters in long format, one row per
    parameter; a failed date becomes a single error row, its message in
    the value cell (empty when it has none)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CALIBRATION_COLUMNS)
    for rec in series.records:
        if rec.params is None:
            date = rec.asof.isoformat()
            error = "" if rec.error is None else _text_cell(rec.error, f"error cell of {date}")
            writer.writerow([date, "error", error, "", "0"])
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


def _calibration_table(t: _Table) -> list[CalibrationRecord]:
    """Each date's rows, in the order of their first row, read as one
    record under the line of that row."""
    dates = t.parsed(0, parse_date)
    groups: dict[dt.date, tuple[int, list]] = {}
    rows = list(zip(*t.columns[1:]))
    for i in t.live():
        groups.setdefault(dates[i], (t.lines[i], []))[1].append(rows[i])
    records = []
    for date, (lineno, group) in groups.items():
        try:
            records.append(_calibration_record(date, group))
        except ValueError as exc:
            t.later.append((lineno, str(exc)))
    return records


def ingest_calibration(path: str | os.PathLike) -> CalibrationSeries:
    """Read a calibration series written by write_calibration."""
    schema = _columns(CALIBRATION_COLUMNS, _calibration_table)
    return CalibrationSeries(records=_read_table(path, "calibration", schema)[2])


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
    """Table function for a state header: an optional date column, then
    one of STATE_COLUMNS.  It returns (dates or None, times, values), the
    values an (n,) array of r or an (n, 2) array of x, y."""
    has_dates = header[:1] == ["date"]
    names = tuple(header[1:] if has_dates else header)
    if names not in STATE_COLUMNS:
        raise ValueError(f"header {header!r} matches neither state schema")

    def table(t: _Table):
        dates = t.parsed(0, parse_date) if has_dates else None
        first = 1 if has_dates else 0
        time, *factors = [t.floats(j, name) for j, name in enumerate(names, first)]
        values = np.column_stack(factors) if len(factors) == 2 else np.array(factors[0])
        return dates, np.array(time), values

    return table


def ingest_states(path: str | os.PathLike):
    """Read a state series written by write_states."""
    _, _, (dates, times, values) = _read_table(path, "state", _state_schema)
    return StateSeries(times=times, values=values, dates=dates)


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
