"""The curve lookups against a frozen copy of the methods they replaced.

``ref_log_discount`` and ``ref_forward`` below are verbatim copies of the
earlier ``DiscountCurve.log_discount`` and ``DiscountCurve.forward``: two
element-wise comparisons with an ``.any()`` each, and a clamp before
``np.interp`` or the forward's index.  The lookups now check the range from
one fmin/fmax pair on arrays and plain comparisons on a float, and drop the
clamps.  On every input form (float, 0-d, 1-d, 2-d and empty arrays) and
every kind of point (0, the knots, the span, beyond it, negative, NaN) they
must return the same bits, of the same type and shape, or raise the same
error with the same message, and warn the same.

The last tests check that one lookup on a long array returns, element for
element, the bits of the lookups of each element as a float, so that a
series of dates can share one lookup.
"""

import math
import warnings

import numpy as np
import pytest

from curveforge.curve import DiscountCurve, flat_curve
from curveforge.errors import CurveforgeError, ExtrapolationError, OrderingError


def ref_log_discount(self, t):
    """log P(0, t); scalar in, scalar out (arrays broadcast)."""
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0).any():
        raise OrderingError("discount requested at negative maturity")
    span = self.span
    out = np.interp(np.minimum(t_arr, span), self._knots, self._logdfs)
    over = t_arr > span
    if over.any():
        if not self.flat_extrapolation:
            raise ExtrapolationError(
                f"maturity beyond curve span {span:.6g} "
                "(enable flat extrapolation to allow)"
            )
        out = out - self._fwds[-1] * np.where(over, t_arr - span, 0.0)
    return out if t_arr.ndim else float(out)


def ref_forward(self, t):
    """Instantaneous forward f(0, t); right-limit at pillar knots.

    At t == span the final segment's forward is returned; beyond it the
    flat-extrapolation flag governs.
    """
    t_arr = np.asarray(t, dtype=float)
    if (t_arr < 0).any():
        raise OrderingError("forward requested at negative maturity")
    span = self.span
    if (t_arr > span).any() and not self.flat_extrapolation:
        raise ExtrapolationError(
            f"forward beyond curve span {span:.6g} "
            "(enable flat extrapolation to allow)"
        )
    idx = np.searchsorted(self._knots, t_arr, side="right") - 1
    out = self._fwds[np.minimum(np.maximum(idx, 0), len(self._fwds) - 1)]
    return out if t_arr.ndim else float(out)


def _curves():
    pillars = ((0.5, 0.98), (1.0, 0.95), (2.0, 0.90), (5.0, 0.78))
    # rising discount factors give negative forwards, so a zero extension
    # beyond the span meets a negative rate
    rising = ((0.25, 0.99), (1.0, 0.995), (3.0, 0.97))
    curves = {}
    for flat in (False, True):
        tag = "flat" if flat else "bounded"
        curves[f"four-{tag}"] = DiscountCurve(pillars, flat_extrapolation=flat)
        curves[f"rising-{tag}"] = DiscountCurve(rising, flat_extrapolation=flat)
        curves[f"single-{tag}"] = DiscountCurve(((2.0, 0.9),), flat_extrapolation=flat)
        curves[f"thirty-{tag}"] = flat_curve(0.04, span=30.0, n_pillars=30,
                                             flat_extrapolation=flat)
    return curves


CURVES = _curves()


def _points(curve):
    """Named points on one curve: within [0, span], beyond it, negative and
    NaN."""
    knots = [tau for tau, _ in curve.pillars]
    span = curve.span
    inside = np.random.default_rng(len(knots)).uniform(0.0, span, 5).tolist()
    return {
        "zero": [0.0, -0.0],
        "knots": knots,
        "span": [span, math.nextafter(span, 0.0)],
        "inside": inside,
        "beyond": [math.nextafter(span, math.inf), span + 2.5, 1e6, math.inf],
        "negative": [-1e-300, -1.0, -math.inf],
        "nan": [math.nan],
    }


def _forms(points):
    """The input forms of a list of points, by name."""
    forms = {}
    for j, p in enumerate(points):
        forms[f"float{j}"] = p
        forms[f"float64-{j}"] = np.float64(p)
        forms[f"0d{j}"] = np.array(p)
        if math.isfinite(p) and p == int(p):
            forms[f"int{j}"] = int(p)
    forms["list"] = list(points)
    forms["1d"] = np.array(points)
    forms["2d"] = np.array(points * 2).reshape(2, -1)
    forms["column"] = np.array(points).reshape(-1, 1)
    return forms


def _outcome(lookup, curve, t):
    """What a lookup does: its value's type, dtype, shape and bytes, or the
    type and text of its error; plus the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = lookup(curve, t)
        except CurveforgeError as exc:
            result = (type(exc), str(exc))
        else:
            if isinstance(out, np.ndarray):
                result = ("ndarray", out.dtype.str, out.shape, out.tobytes())
            else:
                result = (type(out), np.float64(out).tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


LOOKUPS = [
    ("log_discount", ref_log_discount, DiscountCurve.log_discount),
    ("forward", ref_forward, DiscountCurve.forward),
]
KINDS = ["zero", "knots", "span", "inside", "beyond", "negative", "nan"]


@pytest.mark.parametrize("name, ref, new", LOOKUPS, ids=[c[0] for c in LOOKUPS])
@pytest.mark.parametrize("curve_name", sorted(CURVES))
@pytest.mark.parametrize("kind", KINDS)
def test_lookup_equals_frozen_copy(name, ref, new, curve_name, kind):
    curve = CURVES[curve_name]
    for form, t in _forms(_points(curve)[kind]).items():
        assert _outcome(new, curve, t) == _outcome(ref, curve, t), form


@pytest.mark.parametrize("name, ref, new", LOOKUPS, ids=[c[0] for c in LOOKUPS])
@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_mixed_and_empty_arrays_equal_frozen_copy(name, ref, new, curve_name):
    """Arrays that mix kinds: the first failing check decides, whatever the
    order of the elements, and NaN beside a bad point does not hide it."""
    curve = CURVES[curve_name]
    points = _points(curve)
    mixes = {
        "empty": np.array([]),
        "empty-2d": np.empty((0, 3)),
        "empty-list": [],
        "nan-only": np.full((2, 2), math.nan),
    }
    for a in KINDS:
        for b in KINDS:
            mixes[f"{a}+{b}"] = np.array(points[a] + points[b])
            mixes[f"nan+{a}+{b}"] = np.array([math.nan] + points[a] + points[b])
    for mix, t in mixes.items():
        assert _outcome(new, curve, t) == _outcome(ref, curve, t), mix
        if isinstance(t, np.ndarray) and t.size:
            back = t[::-1].copy()
            assert _outcome(new, curve, back) == _outcome(ref, curve, back), mix


@pytest.mark.parametrize("flat", [False, True], ids=["bounded", "flat"])
@pytest.mark.parametrize("method", ["log_discount", "forward"])
def test_long_array_equals_float_lookups(method, flat):
    """One lookup on the stacked points of 52 weekly dates equals the float
    lookups of its elements, bit for bit: the dates t and the maturities
    t + tau on a 14-tenor grid, the knots and 0, on a 60-pillar curve."""
    rng = np.random.default_rng(7)
    taus = np.cumsum(rng.uniform(0.1, 1.0, 60))
    curve = DiscountCurve(tuple(zip(taus.tolist(), np.exp(-0.04 * taus).tolist())),
                          flat_extrapolation=flat)
    tenors = np.array([1 / 12, 0.25, 0.5, 1, 2, 3, 5, 7, 10, 15, 20, 25, 30, 40])
    dates = 1.0 + np.arange(52) / 52.0
    stacked = np.concatenate([dates, (dates[:, None] + tenors).ravel(), taus, [0.0]])
    if not flat:
        stacked = stacked[stacked <= curve.span]
    lookup = getattr(curve, method)
    whole = lookup(stacked)
    one_by_one = np.array([lookup(float(t)) for t in stacked.tolist()])
    assert whole.tobytes() == one_by_one.tobytes()
    grid = lookup(stacked.reshape(1, -1, 1))
    assert grid.tobytes() == whole.tobytes()
