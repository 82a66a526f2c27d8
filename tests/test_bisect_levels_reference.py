"""The derivative scan's five-level bisection against a frozen copy of the
one-level loop it replaced.

``_ref_scan_derivative_signs`` below is a verbatim copy of the earlier
``scan_derivative_signs``: one broadcast ``g2pp_dPdT`` call per bisection
step for the midpoints of all open brackets.  The scan now differentiates
the midpoints of the next ``_BISECT_LEVELS`` steps in one call and walks
them, so on every (params, state) pair it must report the same crossings
and violations bit for bit, including a crossing where the derivative is
exactly zero at a midpoint.
"""

import math

import numpy as np
import pytest

from curveforge import diagnostics
from curveforge.curve import flat_curve
from curveforge.diagnostics import (
    _BISECT_LEVELS,
    _BISECT_STEPS,
    _SIGN_SCAN_POINTS,
    check_monotone,
    g2pp_dPdT,
    scan_derivative_signs,
)
from curveforge.errors import OrderingError
from curveforge.shortrate import G2Params, G2State, g2pp_price

CURVE = flat_curve(0.04, span=50.0, n_pillars=50)


def _ref_scan_derivative_signs(
    params, curve, state, tau_lo=1.0 / 12.0, tau_hi=25.0, n_points=_SIGN_SCAN_POINTS
):
    if tau_hi <= tau_lo:
        raise OrderingError("scan interval is empty")
    taus = np.linspace(tau_lo, tau_hi, n_points)
    maturities = state.t + taus
    derivs = g2pp_dPdT(params, curve, state, maturities)
    d0, d1 = derivs[:-1], derivs[1:]
    bracket = np.flatnonzero(d0 * d1 < 0.0)
    lo, hi, dlo = maturities[bracket], maturities[bracket + 1], d0[bracket]
    active = np.ones(bracket.size, dtype=bool)
    for _ in range(_BISECT_STEPS):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        mid = 0.5 * (lo[rows] + hi[rows])
        dm = g2pp_dPdT(params, curve, state, mid)
        # an exact zero closes its bracket at the midpoint
        zero = dm == 0.0
        same = ~zero & ((dm > 0) == (dlo[rows] > 0))
        lo[rows[zero | same]] = mid[zero | same]
        dlo[rows[same]] = dm[same]
        hi[rows[~same]] = mid[~same]
        active[rows[zero]] = False
    crossings = maturities[:-1].copy()
    crossings[bracket] = 0.5 * (lo + hi)
    found = d0 == 0.0
    found[bracket] = True
    prices = g2pp_price(params, curve, state, maturities)
    report = check_monotone(np.column_stack((taus, prices)))
    report.derivative_sign_changes = crossings[found].tolist()
    return report


def bits(values):
    return [float(v).hex() for v in values]


def random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b = rng.uniform(0.02, 1.0, 2)
        sigma, eta = rng.uniform(0.005, 0.4, 2)
        rho = rng.uniform(-0.999, 0.5)
        x, y = rng.normal(0.0, 0.15, 2)
        yield G2Params(a, b, sigma, eta, rho), G2State(x, y, rng.uniform(0.0, 20.0))


def test_random_pairs_match_the_one_level_loop(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return g2pp_dPdT(*args)

    # the scan calls the module attribute; the reference the function itself
    monkeypatch.setattr(diagnostics, "g2pp_dPdT", counting)
    crossing_pairs = 0
    for params, state in random_pairs(240, seed=15):
        calls.clear()
        report = scan_derivative_signs(params, CURVE, state)
        reference = _ref_scan_derivative_signs(params, CURVE, state)
        assert bits(report.derivative_sign_changes) == bits(reference.derivative_sign_changes)
        assert report.violations == reference.violations
        # one call for the grid, then one per _BISECT_LEVELS steps
        assert len(calls) <= 1 + math.ceil(_BISECT_STEPS / _BISECT_LEVELS)
        if report.derivative_sign_changes:
            crossing_pairs += 1
    # the draw puts a crossing on about a quarter of the pairs
    assert crossing_pairs >= 40


def test_exact_zero_at_a_midpoint_is_reported_itself():
    params = G2Params(0.13, 0.3526, 0.2062, 0.4892, -0.99)
    state = G2State(-0.012009746556754167, -0.041513102120030336, 18.08097356313646)
    curve = flat_curve(0.04, span=50.0, n_pillars=50)
    assert g2pp_dPdT(params, curve, state, 18.99384206418868) == 0.0
    report = scan_derivative_signs(params, curve, state)
    reference = _ref_scan_derivative_signs(params, curve, state)
    assert report.derivative_sign_changes[0] == 18.99384206418868
    assert bits(report.derivative_sign_changes) == bits(reference.derivative_sign_changes)


@pytest.mark.parametrize("levels", [1, 3, 7])
def test_other_level_counts_match_too(monkeypatch, levels):
    # 40 steps in rounds of 1, 3 or 7 levels; with 3 and 7 the last round is shorter
    monkeypatch.setattr(diagnostics, "_BISECT_LEVELS", levels)
    for params, state in random_pairs(30, seed=levels):
        report = scan_derivative_signs(params, CURVE, state)
        reference = _ref_scan_derivative_signs(params, CURVE, state)
        assert bits(report.derivative_sign_changes) == bits(reference.derivative_sign_changes)
