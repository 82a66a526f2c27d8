"""The two-factor arbitrage audit against frozen copies of the code it
replaced.

The ``ref_*`` functions below are verbatim copies of the earlier
implementations: ``check_monotone`` building one tuple per violating pair
and checking each again in the report, ``_join_violations`` flattening the
tuples and telling their floats apart with ``np.unique`` on every write,
``g2pp_log_price`` taking V(T - t), V(T) and V(t) from three
``g2pp_variance`` calls, and ``g2pp_dPdT`` evaluating the variance slope at
tau and at T in two calls.  An audit through them and through the package
must give the same violations and crossings bit for bit and the same
``arbitrage.csv`` and ``arbitrage.txt`` bytes, and the prices must be equal
bit for bit at every input shape.
"""

import itertools
import struct

import numpy as np
import pytest

from curveforge import diagnostics, fileio, libm, shortrate
from curveforge.curve import flat_curve
from curveforge.diagnostics import (
    MATURITY_GRID,
    ArbitrageReport,
    check_monotone,
    scan_derivative_signs,
)
from curveforge.errors import OrderingError
from curveforge.shortrate import (
    G2Params,
    G2State,
    decay_loading,
    g2pp_log_price,
    g2pp_price,
    g2pp_variance,
)

CURVE = flat_curve(0.05, span=60.0, n_pillars=40)
DRAWS = 200
# a, b, sigma, eta of the CLI's default two-factor parameters
DEFAULT = np.array([0.13, 0.3526, 0.2062, 0.4892])


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------


def ref_check_monotone(prices):
    table = np.asarray(prices, dtype=float).reshape(-1, 2)
    taus, values = table[:, 0], table[:, 1]
    if np.any(taus[1:] <= taus[:-1]):
        raise OrderingError("maturities must be strictly increasing")
    if np.any(values <= 0):
        raise ValueError("prices must be positive")
    lo, hi = np.nonzero(np.triu(values[None, :] > values[:, None], 1))
    # the pairs share the n maturity and price floats rather than copying them
    tau, price = taus.tolist(), values.tolist()
    violations = [
        (tau[i], tau[j], price[i], price[j])
        for i, j in zip(lo.tolist(), hi.tolist())
    ]
    return ArbitrageReport(violations=violations)


def _ref_fmt(x):
    return repr(float(x))


def ref_join_violations(report, seps):
    n = len(report.violations)
    values = np.fromiter(
        itertools.chain.from_iterable(report.violations), dtype=float
    ).reshape(n, 4)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([_ref_fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
    parts = np.empty((n, 9), dtype=object)
    parts[:, 0::2] = np.array(seps, dtype=object)
    parts[:, 1::2] = text[index.reshape(n, 4)]
    return "".join(parts.ravel().tolist())


def ref_arbitrage_csv(report):
    header = ",".join(fileio.ARBITRAGE_COLUMNS) + "\r\n"
    return header + ref_join_violations(report, ("", ",", ",", ",", "\r\n"))


def ref_render_arbitrage_text(report):
    text = ref_join_violations(
        report, ("VIOLATION maturity ", " -> ", ": price rises ", " -> ", "\n")
    )
    for T in report.derivative_sign_changes:
        text += f"DERIVATIVE SIGN CHANGE at T={_ref_fmt(T)}\n"
    return text or "CLEAN no static-arbitrage violations found\n"


def ref_g2pp_log_price(params, curve, state, T):
    t = state.t
    if libm.anywhere(T < t):
        raise OrderingError(f"maturity {T} precedes state time {t}")
    tau = T - t
    market = curve.log_discount(T) - curve.log_discount(t)
    adjust = 0.5 * (
        g2pp_variance(params, t, T)
        - g2pp_variance(params, 0.0, T)
        + g2pp_variance(params, 0.0, t)
    )
    loadings = (
        decay_loading(params.a, tau) * state.x + decay_loading(params.b, tau) * state.y
    )
    out = market + adjust - loadings
    return out if isinstance(out, np.ndarray) else float(out)


def ref_g2pp_price(params, curve, state, T):
    return libm.exp(ref_g2pp_log_price(params, curve, state, T))


def ref_g2pp_dPdT(params, curve, state, T):
    t = state.t
    if libm.anywhere(T <= t):
        raise OrderingError(f"maturity {T} must exceed valuation time {t}")
    a, b = params.a, params.b
    sigma, eta, rho = params.sigma, params.eta, params.rho
    tau = T - t

    def dvar(u):
        ba = decay_loading(a, u)
        bb = decay_loading(b, u)
        return (
            libm.square(sigma * ba)
            + libm.square(eta * bb)
            + 2.0 * rho * sigma * eta * ba * bb
        )

    dlog = (
        -curve.forward(T)
        + 0.5 * (dvar(tau) - dvar(T))
        - libm.exp(-a * tau) * state.x
        - libm.exp(-b * tau) * state.y
    )
    out = ref_g2pp_price(params, curve, state, T) * dlog
    return out if isinstance(out, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def bits(values):
    """Bit patterns of floats, so that -0.0, 0.0 and NaNs compare exactly."""
    return [struct.pack("<d", float(v)) for v in values]


def violation_bits(report):
    return [bits(row) for row in report.violations]


def same_price(new, ref):
    """The same type and shape, and the same bits."""
    return (
        type(new) is type(ref)
        and np.shape(new) == np.shape(ref)
        and np.asarray(new).tobytes() == np.asarray(ref).tobytes()
    )


def assert_same_files(tmp_path, report, reference):
    fileio.write_arbitrage(tmp_path / "arbitrage.csv", report)
    assert (tmp_path / "arbitrage.csv").read_bytes() == ref_arbitrage_csv(reference).encode()
    assert fileio.render_arbitrage_text(report) == ref_render_arbitrage_text(reference)


def draw(rng, k):
    """A random parameter point and state.  Every other draw is near the
    CLI's default parameters, at their rho = -0.99, whose convexity inverts
    the long end of the curve at large state times or factor values; the
    others are anywhere."""
    if k % 2 == 0:
        scale = rng.uniform(0.8, 1.25, 4)
        params = G2Params(*(DEFAULT * scale).tolist(), rho=-0.99)
    else:
        params = G2Params(
            a=float(rng.uniform(0.02, 1.5)),
            b=float(rng.uniform(0.02, 1.5)),
            sigma=float(rng.uniform(0.005, 0.5)),
            eta=float(rng.uniform(0.005, 0.5)),
            rho=float(rng.uniform(-1.0, 1.0)),
        )
    spread = float(rng.choice([0.005, 0.05, 0.2]))
    x, y = rng.normal(0.0, spread, 2).tolist()
    if k % 4 == 0:
        # x below and y above zero push the long end up
        x, y = -abs(x), abs(y)
    state = G2State(x=x, y=y, t=float(rng.choice([0.0, rng.uniform(0.0, 15.0)])))
    return params, state


_DRAWS_RNG = np.random.default_rng(2026)
DRAWN = [draw(_DRAWS_RNG, k) for k in range(DRAWS)]


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------


def test_audits_match_the_reference(tmp_path, monkeypatch):
    clean = inverted = 0
    for params, state in DRAWN:
        report = scan_derivative_signs(params, CURVE, state)
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "g2pp_dPdT", ref_g2pp_dPdT)
            m.setattr(diagnostics, "g2pp_price", ref_g2pp_price)
            m.setattr(diagnostics, "check_monotone", ref_check_monotone)
            reference = scan_derivative_signs(params, CURVE, state)
        assert violation_bits(report) == violation_bits(reference)
        assert bits(report.derivative_sign_changes) == bits(
            reference.derivative_sign_changes
        )
        assert_same_files(tmp_path, report, reference)
        clean += not report.violations
        inverted += bool(report.violations)
    # both kinds of state are drawn often
    assert clean >= 20 and inverted >= 20


def test_check_monotone_matches_the_reference_on_random_lists(tmp_path):
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(0, 80))
        taus = np.cumsum(rng.uniform(0.05, 1.0, n))
        prices = rng.choice(rng.uniform(0.2, 1.0, int(rng.integers(1, 6))), n)
        pairs = list(zip(taus.tolist(), prices.tolist()))
        report = check_monotone(pairs)
        reference = ref_check_monotone(pairs)
        assert violation_bits(report) == violation_bits(reference)
        assert report.violations == reference.violations
        assert_same_files(tmp_path, report, reference)


def test_an_audits_violations_read_as_the_reference_list():
    rng = np.random.default_rng(8)
    taus = np.cumsum(rng.uniform(0.05, 1.0, 40))
    pairs = list(zip(taus.tolist(), rng.uniform(0.2, 1.0, 40).tolist()))
    violations = check_monotone(pairs).violations
    reference = ref_check_monotone(pairs).violations
    assert len(violations) == len(reference) > 10
    assert list(violations) == reference and violations == reference
    assert violations[0] == reference[0] and violations[-1] == reference[-1]
    assert violations[3:9:2] == reference[3:9:2]
    assert reference[5] in violations and (0.0, 1.0, 0.5, 0.6) not in violations
    assert repr(violations) == repr(reference)
    assert violations != reference[:-1] and violations != "text"
    with pytest.raises(IndexError):
        violations[len(reference)]
    # a report made from them takes their table as it is
    again = ArbitrageReport(violations=violations)
    assert again.fields is violations.fields and again.rows is violations.rows


# ---------------------------------------------------------------------------
# hand-made reports
# ---------------------------------------------------------------------------

HAND_MADE = {
    "single row": [(1.0, 2.0, 0.9, 0.95)],
    "one maturity, two prices": [(1.0, 2.0, 0.9, 0.95), (1.0, 3.0, 0.92, 0.97)],
    "signed zeros": [(-0.0, 1.0, 0.0, 0.5), (0.0, 1.0, -0.0, 0.5), (-0.0, 2.0, 0.0, 5e-324)],
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_reports_write_and_read_back(tmp_path, name):
    violations = HAND_MADE[name]
    report = ArbitrageReport(violations=list(violations), derivative_sign_changes=[-0.0, 2.5])
    assert report.violations == violations
    assert_same_files(tmp_path, report, report)
    back = fileio.ingest_arbitrage(tmp_path / "arbitrage.csv")
    assert violation_bits(back) == [bits(row) for row in violations]
    fileio.write_arbitrage(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "arbitrage.csv").read_bytes()


def test_signed_zeros_keep_their_own_text(tmp_path):
    report = ArbitrageReport(violations=HAND_MADE["signed zeros"])
    fileio.write_arbitrage(tmp_path / "arbitrage.csv", report)
    rows = (tmp_path / "arbitrage.csv").read_text().splitlines()[1:]
    assert rows == ["-0.0,1.0,0.0,0.5", "0.0,1.0,-0.0,0.5", "-0.0,2.0,0.0,5e-324"]
    assert fileio.render_arbitrage_text(report).splitlines()[1] == (
        "VIOLATION maturity 0.0 -> 1.0: price rises -0.0 -> 0.5"
    )


@pytest.mark.parametrize("row", [(2.0, 1.0, 0.9, 0.95), (1.0, 2.0, 0.95, 0.9),
                                 (1.0, 2.0, float("nan"), 0.9), (1, 1, 0, 1)])
def test_malformed_rows_refused_with_the_same_message(row):
    good = (0.5, 1.0, 0.5, 0.6)
    with pytest.raises(ValueError) as new:
        ArbitrageReport(violations=[good, row, row])
    with pytest.raises(ValueError) as ref:
        diagnostics.check_violation(*row)
    assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# prices
# ---------------------------------------------------------------------------


def test_log_prices_match_the_three_call_reference():
    rng = np.random.default_rng(11)
    grid = np.array((0.0,) + MATURITY_GRID[1:])  # a T == t column
    for params, state in DRAWN:
        x, y, t = state.x, state.y, state.t
        cases = [
            # scalar, and T == t
            (state, t + 3.25),
            (state, t),
            # 0-d arrays
            (G2State(np.array(x), np.array(y), np.array(t)), np.array(t + 0.5)),
            (state, np.array(t)),
            # 1-d maturities, the first at t
            (state, t + np.linspace(0.0, 25.0, 62)),
        ]
        # an 800-date by 14-tenor surface, and its cells as build_surface
        # prices them (every field one flat array)
        times = np.sort(rng.uniform(0.0, 15.0, 800))
        xs, ys = rng.normal(0.0, 0.05, (2, 800))
        surface = G2State(xs[:, None], ys[:, None], times[:, None])
        cells = times[:, None] + grid
        cases.append((surface, cells))
        rows = np.repeat(np.arange(800), 14)
        flat = G2State(xs[rows], ys[rows], times[rows])
        cases.append((flat, cells.ravel()))
        # 2n + 1 horizons on either side of the one-call limit
        for n in (2047, 2048):
            cases.append((state, t + np.linspace(0.0, 30.0, n)))
        for s, T in cases:
            new = g2pp_log_price(params, CURVE, s, T)
            ref = ref_g2pp_log_price(params, CURVE, s, T)
            assert same_price(new, ref)
            assert same_price(g2pp_price(params, CURVE, s, T), ref_g2pp_price(params, CURVE, s, T))
        assert np.shape(new) == (2048,)
    assert 2 * 2047 + 1 <= shortrate._ONE_CALL_HORIZONS < 2 * 2048 + 1


def test_log_price_refuses_a_maturity_before_the_state_time():
    params, state = DRAWN[0]
    state = G2State(state.x, state.y, 1.0)
    # an array's message names its first early maturity, as the scalar
    # call's message does, not the whole array
    for T in (0.5, np.array([2.0, 0.5, 0.25])):
        with pytest.raises(OrderingError) as new:
            g2pp_log_price(params, CURVE, state, T)
        with pytest.raises(OrderingError) as ref:
            ref_g2pp_log_price(params, CURVE, state, 0.5)
        assert str(new.value) == str(ref.value)
