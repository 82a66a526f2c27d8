"""The arbitrage audit and the surface and report writers against frozen
copies of the per-pair and per-row code they replaced.

The ``ref_*`` functions below are verbatim copies of the earlier
implementations (an O(n^2) pair loop, one scalar derivative call per
bisection step, csv.writer rows with one repr per field), kept here as
differential oracles.  Every case must give the same violations, the same
crossings bit for bit, the same bytes on disk and the same errors.
"""

import csv
import datetime as dt
import io
import math
import struct

import numpy as np
import pytest

from curveforge import diagnostics, fileio
from curveforge.curve import flat_curve
from curveforge.diagnostics import (
    _BISECT_LEVELS,
    _BISECT_STEPS,
    _SIGN_SCAN_POINTS,
    MATURITY_GRID,
    ArbitrageReport,
    PriceSurface,
    check_monotone,
    scan_derivative_signs,
)
from curveforge.errors import OrderingError
from curveforge.shortrate import G2Params, G2State, g2pp_price

G2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)
CURVE = flat_curve(0.05, span=40.0, n_pillars=40)


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------


def _ref_fmt(x):
    return repr(float(x))


def ref_check_monotone(prices):
    taus = [tau for tau, _ in prices]
    if any(hi <= lo for lo, hi in zip(taus, taus[1:])):
        raise OrderingError("maturities must be strictly increasing")
    if any(p <= 0 for _, p in prices):
        raise ValueError("prices must be positive")
    violations = [
        (prices[i][0], prices[j][0], prices[i][1], prices[j][1])
        for i in range(len(prices))
        for j in range(i + 1, len(prices))
        if prices[j][1] > prices[i][1]
    ]
    return ArbitrageReport(violations=violations)


def ref_scan_derivative_signs(
    params, curve, state, tau_lo=1.0 / 12.0, tau_hi=25.0, n_points=_SIGN_SCAN_POINTS
):
    if tau_hi <= tau_lo:
        raise OrderingError("scan interval is empty")
    taus = np.linspace(tau_lo, tau_hi, n_points)
    maturities = state.t + taus
    derivs = diagnostics.g2pp_dPdT(params, curve, state, maturities)
    crossings = []
    for i in range(len(maturities) - 1):
        d0, d1 = derivs[i], derivs[i + 1]
        if d0 == 0.0:
            crossings.append(float(maturities[i]))
            continue
        if d0 * d1 < 0.0:
            lo, hi, dlo = maturities[i], maturities[i + 1], d0
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                dm = diagnostics.g2pp_dPdT(params, curve, state, mid)
                if dm == 0.0:
                    lo = hi = mid
                    break
                if (dm > 0) == (dlo > 0):
                    lo, dlo = mid, dm
                else:
                    hi = mid
            crossings.append(0.5 * (lo + hi))
    prices = g2pp_price(params, curve, state, maturities)
    monotone = ref_check_monotone(list(zip(taus.tolist(), prices.tolist())))
    return ArbitrageReport(
        violations=monotone.violations, derivative_sign_changes=crossings
    )


def ref_write_surface(path, surface):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("date",) + tuple(fileio._tenor_label(t) for t in surface.maturities))
    for i, date in enumerate(surface.dates):
        label = date.isoformat() if isinstance(date, dt.date) else _ref_fmt(date)
        cells = [
            "" if not math.isfinite(v) else _ref_fmt(v) for v in surface.values[i]
        ]
        writer.writerow([label] + cells)
    fileio.atomic_write_text(path, out.getvalue())


def ref_write_arbitrage(path, report):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(fileio.ARBITRAGE_COLUMNS)
    for t_lo, t_hi, p_lo, p_hi in report.violations:
        writer.writerow([_ref_fmt(t_lo), _ref_fmt(t_hi), _ref_fmt(p_lo), _ref_fmt(p_hi)])
    fileio.atomic_write_text(path, out.getvalue())


def ref_render_arbitrage_text(report):
    lines = []
    for t_lo, t_hi, p_lo, p_hi in report.violations:
        lines.append(
            f"VIOLATION maturity {_ref_fmt(t_lo)} -> {_ref_fmt(t_hi)}: "
            f"price rises {_ref_fmt(p_lo)} -> {_ref_fmt(p_hi)}"
        )
    for T in report.derivative_sign_changes:
        lines.append(f"DERIVATIVE SIGN CHANGE at T={_ref_fmt(T)}")
    if not lines:
        lines.append("CLEAN no static-arbitrage violations found")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def bits(values):
    """Bit patterns of floats, so that -0.0, 0.0 and NaNs compare exactly."""
    return [struct.pack("<d", float(v)) for v in values]


def violation_bits(report):
    return [bits(row) for row in report.violations]


def assert_same_report_files(tmp_path, report, reference):
    """The report writes the same CSV and text as the reference writers
    write for the reference report."""
    fileio.write_arbitrage(tmp_path / "new.csv", report)
    ref_write_arbitrage(tmp_path / "ref.csv", reference)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert fileio.render_arbitrage_text(report) == ref_render_arbitrage_text(reference)


def random_prices(rng, n, levels):
    """n (maturity, price) pairs on increasing maturities, prices drawn
    from a few levels so that ties are common."""
    taus = np.cumsum(rng.uniform(0.05, 1.0, n))
    prices = rng.choice(levels, n)
    return list(zip(taus.tolist(), prices.tolist()))


# ---------------------------------------------------------------------------
# check_monotone
# ---------------------------------------------------------------------------


class TestCheckMonotone:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_lists_with_ties(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        levels = rng.uniform(0.2, 1.0, int(rng.integers(1, 6)))
        prices = random_prices(rng, n, levels)
        report = check_monotone(prices)
        reference = ref_check_monotone(prices)
        assert violation_bits(report) == violation_bits(reference)
        assert_same_report_files(tmp_path, report, reference)

    def test_equal_prices_are_no_violation(self):
        prices = [(1.0, 0.9), (2.0, 0.9), (3.0, 0.9)]
        assert check_monotone(prices).violations == []
        assert ref_check_monotone(prices).violations == []

    def test_nan_prices(self, tmp_path):
        rng = np.random.default_rng(11)
        prices = random_prices(rng, 30, rng.uniform(0.2, 1.0, 4))
        for k in (0, 7, 8, 29):
            prices[k] = (prices[k][0], math.nan)
        report = check_monotone(prices)
        reference = ref_check_monotone(prices)
        assert report.violations
        assert violation_bits(report) == violation_bits(reference)
        assert_same_report_files(tmp_path, report, reference)

    def test_numpy_scalar_pairs(self, tmp_path):
        rng = np.random.default_rng(12)
        prices = [
            (np.float64(tau), np.float64(p))
            for tau, p in random_prices(rng, 40, rng.uniform(0.2, 1.0, 5))
        ]
        report = check_monotone(prices)
        reference = ref_check_monotone(prices)
        assert violation_bits(report) == violation_bits(reference)
        assert_same_report_files(tmp_path, report, reference)

    @pytest.mark.parametrize(
        "prices, error",
        [
            ([(2.0, 0.90), (1.0, 0.95)], OrderingError),
            ([(1.0, 0.90), (1.0, 0.95)], OrderingError),
            ([(1.0, 0.95), (2.0, 0.0)], ValueError),
            ([(1.0, 0.95), (2.0, -0.5)], ValueError),
            ([(1.0, -0.0)], ValueError),
            # the ordering check comes first
            ([(2.0, -1.0), (1.0, 0.95)], OrderingError),
        ],
    )
    def test_same_errors(self, prices, error):
        with pytest.raises(error) as new:
            check_monotone(prices)
        with pytest.raises(error) as ref:
            ref_check_monotone(prices)
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

TRICKY = [
    (-0.0, 1e-5, 5e-324, 1e16),
    (0.0, 1e16, -0.0, 5e-324),
    (1e-5, 1e16, 1e-5, 1e16),
    (-1.5, -0.0, -2.0, 0.0),
    (-0.0, 1e-5, 5e-324, 1e16),
    (0.1, 0.30000000000000004, 0.1, 0.2),
]


class TestReportWriters:
    def test_tricky_floats(self, tmp_path):
        report = ArbitrageReport(
            violations=list(TRICKY),
            derivative_sign_changes=[-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-5],
        )
        assert_same_report_files(tmp_path, report, report)
        text = (tmp_path / "new.csv").read_text()
        assert "-0.0,1e-05,5e-324,1e+16" in text
        assert "0.0,1e+16,-0.0,5e-324" in text

    def test_empty_report(self, tmp_path):
        report = ArbitrageReport(violations=[])
        assert_same_report_files(tmp_path, report, report)
        assert (tmp_path / "new.csv").read_bytes() == b"tau_low,tau_high,p_low,p_high\r\n"
        assert fileio.render_arbitrage_text(report) == (
            "CLEAN no static-arbitrage violations found\n"
        )

    def test_sign_changes_only(self, tmp_path):
        report = ArbitrageReport(violations=[], derivative_sign_changes=[3.25, 7.5])
        assert_same_report_files(tmp_path, report, report)

    def test_integer_and_numpy_fields(self, tmp_path):
        report = ArbitrageReport(
            violations=[(1, 2, np.float64(0.5), np.float32(0.75)), (1, 3, 0.5, 1)]
        )
        assert_same_report_files(tmp_path, report, report)


class TestSurfaceWriter:
    def surface(self, rng, dates):
        values = rng.uniform(0.05, 1.0, (len(dates), len(MATURITY_GRID)))
        values[rng.random(values.shape) < 0.1] = np.nan
        values[0, :] = np.nan
        values[-1, 2] = np.inf
        values[-1, 3] = 1.0
        return PriceSurface(dates=dates, maturities=MATURITY_GRID, values=values)

    def assert_same_file(self, tmp_path, surface):
        fileio.write_surface(tmp_path / "new.csv", surface)
        ref_write_surface(tmp_path / "ref.csv", surface)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_date_labels_with_nan_cells(self, tmp_path):
        dates = [dt.date(2013, 1, 7) + dt.timedelta(weeks=k) for k in range(25)]
        self.assert_same_file(tmp_path, self.surface(np.random.default_rng(1), dates))

    def test_float_dates_with_nan_cells(self, tmp_path):
        dates = [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, np.float64(2.5)]
        self.assert_same_file(tmp_path, self.surface(np.random.default_rng(2), dates))

    def test_all_finite(self, tmp_path):
        dates = [k / 52.0 for k in range(10)]
        values = np.random.default_rng(3).uniform(0.05, 1.0, (10, len(MATURITY_GRID)))
        surface = PriceSurface(dates=dates, maturities=MATURITY_GRID, values=values)
        self.assert_same_file(tmp_path, surface)

    def test_no_dates(self, tmp_path):
        surface = PriceSurface(
            dates=[], maturities=MATURITY_GRID, values=np.empty((0, len(MATURITY_GRID)))
        )
        self.assert_same_file(tmp_path, surface)


# ---------------------------------------------------------------------------
# derivative scan
# ---------------------------------------------------------------------------


class TestScanDerivativeSigns:
    @pytest.mark.parametrize("seed", range(4))
    def test_model_scan_matches_scalar_bisection(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        state = G2State(
            float(rng.normal(0, 0.2)), float(rng.normal(0, 0.2)), float(rng.uniform(0, 5))
        )
        report = scan_derivative_signs(G2, CURVE, state)
        reference = ref_scan_derivative_signs(G2, CURVE, state)
        assert bits(report.derivative_sign_changes) == bits(
            reference.derivative_sign_changes
        )
        assert violation_bits(report) == violation_bits(reference)
        assert_same_report_files(tmp_path, report, reference)

    def test_inverting_state_has_crossings(self, tmp_path):
        state, _, _ = diagnostics.find_increasing_price_state(G2, CURVE)
        report = scan_derivative_signs(G2, CURVE, state)
        reference = ref_scan_derivative_signs(G2, CURVE, state)
        assert reference.derivative_sign_changes and reference.violations
        assert bits(report.derivative_sign_changes) == bits(
            reference.derivative_sign_changes
        )
        assert_same_report_files(tmp_path, report, reference)


def polynomial_slope(roots, sign=1.0, counter=None, points=None):
    """A broadcasting stand-in for g2pp_dPdT: sign * prod(T - root).  It
    records the size of each call in ``counter`` and the maturities it
    differentiates in ``points``."""

    def slope(params, curve, state, T):
        if counter is not None:
            counter.append(np.size(T))
        if points is not None:
            points.update(np.ravel(T).tolist())
        out = sign * np.ones_like(T)
        for root in roots:
            out = out * (T - root)
        return out

    return slope


class TestBisectionContract:
    """Synthetic slopes on the grid t + linspace(1, 5, 5) = 1, 2, 3, 4, 5
    (t = 0): roots on a grid point, at a dyadic midpoint (an exact zero
    met mid-bisection) and off every dyadic point."""

    GRID = dict(tau_lo=1.0, tau_hi=5.0, n_points=5)
    STATE = G2State(x=0.0, y=0.0, t=0.0)

    @pytest.mark.parametrize(
        "roots, sign, expected_brackets",
        [
            ((), 1.0, 0),
            ((), -1.0, 0),
            ((11.0,), 1.0, 0),
            ((3.0,), 1.0, 0),  # zero at a grid point, no bracket
            ((2.7,), -1.0, 1),
            ((2.5,), 1.0, 1),  # exact zero at the first midpoint
            ((1.75,), 1.0, 1),  # exact zero at the second midpoint
            ((1.3, 2.75, 4.1), 1.0, 3),
            ((1.3, 3.0, 4.1), -1.0, 2),  # two brackets and a grid zero
            ((1.25, 2.5, 4.8), 1.0, 3),
            ((1.0,), 1.0, 0),  # zero at the first grid point
            ((5.0,), 1.0, 0),  # zero at the last grid point is not scanned
        ],
    )
    def test_matches_scalar_bisection(self, monkeypatch, roots, sign, expected_brackets):
        calls, points = [], set()
        monkeypatch.setattr(
            diagnostics, "g2pp_dPdT", polynomial_slope(roots, sign, calls, points)
        )
        report = scan_derivative_signs(G2, CURVE, self.STATE, **self.GRID)
        batched_calls, batched_points = list(calls), set(points)
        calls.clear()
        points.clear()
        reference = ref_scan_derivative_signs(G2, CURVE, self.STATE, **self.GRID)
        assert bits(report.derivative_sign_changes) == bits(
            reference.derivative_sign_changes
        )
        assert report.derivative_sign_changes == sorted(report.derivative_sign_changes)
        assert violation_bits(report) == violation_bits(reference)
        # one call for the grid, then one per _BISECT_LEVELS bisection steps
        # for the midpoint trees of all open brackets
        tree = 2**_BISECT_LEVELS - 1
        assert 1 <= len(batched_calls) <= 1 + math.ceil(_BISECT_STEPS / _BISECT_LEVELS)
        assert batched_calls[0] == self.GRID["n_points"]
        assert all(n % tree == 0 and n <= expected_brackets * tree for n in batched_calls[1:])
        if expected_brackets == 0:
            assert len(batched_calls) == 1
        else:
            assert batched_calls[1] == expected_brackets * tree
        # and every midpoint the scalar bisection visits, bit for bit, was
        # differentiated by the batched one
        assert points <= batched_points

    def test_exact_zero_closes_its_bracket_only(self, monkeypatch):
        # the 2.5 bracket closes after one step; the 1.3 one runs every step
        calls = []
        monkeypatch.setattr(
            diagnostics, "g2pp_dPdT", polynomial_slope((1.3, 2.5), 1.0, calls)
        )
        report = scan_derivative_signs(G2, CURVE, self.STATE, **self.GRID)
        assert calls == [5, 2 * 31] + [31] * (_BISECT_STEPS // _BISECT_LEVELS - 1)
        assert report.derivative_sign_changes[1] == 2.5
