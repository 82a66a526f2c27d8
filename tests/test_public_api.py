"""The package's public names: ``curveforge.__all__`` is the API, so every
name in it must resolve on the package, once, in sorted order.  An export
left behind by a removed function fails here, not at import."""

import dataclasses
import inspect

import curveforge


def test_every_exported_name_resolves():
    missing = [name for name in curveforge.__all__ if not hasattr(curveforge, name)]
    assert missing == []


def test_exports_are_unique_and_sorted():
    assert len(set(curveforge.__all__)) == len(curveforge.__all__)
    assert curveforge.__all__ == sorted(curveforge.__all__)


# Every setting a caller of the public API can leave at its default: the
# defaulted parameters of each exported callable (``name(param)``) and of the
# methods of each exported class (``Class.method(param)``), and every field of
# the two run configurations (``Config.field``).  A new knob, or one removed,
# shows up as a change to this list.
SETTABLE_OPTIONS = (
    "ArbitrageReport(derivative_sign_changes)",
    "CalibrationRecord(error)",
    "CalibrationSeries(summary)",
    "CouponBond(schedule_anchor)",
    "CrossSection(short_rate)",
    "DiscountCurve(asof)",
    "DiscountCurve(flat_extrapolation)",
    "FitConfig.restarts",
    "FitConfig.seed",
    "G2State(t)",
    "IngestionError(line)",
    "IngestionError(lines)",
    "OptimizationError(partial)",
    "OptimizerReport(boundary)",
    "OptimizerReport(restart_logliks)",
    "PricePanel(negotiated)",
    "PriceSurface(failures)",
    "ShortRateState(t)",
    "SimConfig.n_paths",
    "SimConfig.seed",
    "SimConfig.step",
    "StateSeries(dates)",
    "build_initial_curve(clean)",
    "build_initial_curve(flat_extrapolation)",
    "find_increasing_price_state(magnitude)",
    "fit_ml(config)",
    "fit_ml(curve)",
    "flat_curve(asof)",
    "flat_curve(flat_extrapolation)",
    "flat_curve(n_pillars)",
    "flat_curve(span)",
    "mc_zero_price(curve)",
    "scan_derivative_signs(n_points)",
    "scan_derivative_signs(tau_hi)",
    "scan_derivative_signs(tau_lo)",
    "synth_panel(curve)",
    "synth_panel(seed)",
    "synth_panel(state0)",
    "ytm_from_price(clean)",
)


def _defaulted(label, fn):
    try:
        parameters = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class with the builtin constructor
        return []
    return [f"{label}({p.name})" for p in parameters if p.default is not p.empty]


def settable_options():
    configs = (curveforge.SimConfig, curveforge.FitConfig)
    found = [f"{cls.__name__}.{f.name}" for cls in configs for f in dataclasses.fields(cls)]
    for name in curveforge.__all__:
        obj = getattr(curveforge, name)
        if obj in configs or not callable(obj):
            continue
        found += _defaulted(name, obj)
        if inspect.isclass(obj):
            for method, fn in vars(obj).items():
                fn = getattr(fn, "__func__", fn)  # static and class methods
                if method != "__init__" and inspect.isfunction(fn):
                    found += _defaulted(f"{name}.{method}", fn)
    return sorted(found)


def test_settable_options_are_the_committed_list():
    assert settable_options() == list(SETTABLE_OPTIONS)
