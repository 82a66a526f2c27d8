"""curveforge: gaussian term-structure models for zero-coupon curves.

Closed-form bond pricing under one- and two-factor mean-reverting short-rate
models and two forward-curve specifications, exact-likelihood estimation
from price panels, cross-sectional least-squares calibration,
static-arbitrage audits, and an exact-discretization Monte-Carlo engine
that doubles as the pricing oracle in the test suite.
"""

from .bonds import CouponBond, ytm_from_price
from .calibration import (
    CalibrationRecord,
    CalibrationResult,
    CalibrationSeries,
    CrossSection,
    calibrate,
    calibrate_series,
    ls_objective,
)
from .curve import DiscountCurve, build_initial_curve, flat_curve
from .daycount import add_months, parse_date, year_fraction
from .diagnostics import (
    MATURITY_GRID,
    ArbitrageReport,
    PriceSurface,
    build_surface,
    check_monotone,
    find_increasing_price_state,
    g2pp_dPdT,
    scan_derivative_signs,
)
from .errors import (
    AmbiguityError,
    BoundaryError,
    CurveforgeError,
    DegenerateStepError,
    ExtrapolationError,
    IngestionError,
    NoSolutionError,
    OptimizationError,
    OrderingError,
    PanelShapeError,
    PriceRangeError,
    ResolutionError,
    SingularInversionError,
)
from .estimation import (
    FitConfig,
    FitResult,
    OptimizerReport,
    PricePanel,
    StateSeries,
    fit_ml,
    loglik_g2pp,
    loglik_vasicek,
)
from .hjm import (
    HoLeeParams,
    HullWhiteParams,
    ShortRateState,
    holee_price,
    hullwhite_price,
)
from .montecarlo import (
    McEstimate,
    SimConfig,
    mc_zero_price,
    synth_panel,
)
from .shortrate import (
    G2Params,
    G2State,
    VasicekParams,
    decay_loading,
    g2pp_invert_states,
    g2pp_log_price,
    g2pp_price,
    g2pp_variance,
    vasicek_ab,
    vasicek_invert_state,
    vasicek_price,
    vasicek_transition,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "ArbitrageReport",
    "BoundaryError",
    "CalibrationRecord",
    "CalibrationResult",
    "CalibrationSeries",
    "CouponBond",
    "CrossSection",
    "CurveforgeError",
    "DegenerateStepError",
    "DiscountCurve",
    "ExtrapolationError",
    "FitConfig",
    "FitResult",
    "G2Params",
    "G2State",
    "HoLeeParams",
    "HullWhiteParams",
    "IngestionError",
    "MATURITY_GRID",
    "McEstimate",
    "NoSolutionError",
    "OptimizationError",
    "OptimizerReport",
    "OrderingError",
    "PanelShapeError",
    "PricePanel",
    "PriceRangeError",
    "PriceSurface",
    "ResolutionError",
    "ShortRateState",
    "SimConfig",
    "SingularInversionError",
    "StateSeries",
    "VasicekParams",
    "add_months",
    "build_initial_curve",
    "build_surface",
    "calibrate",
    "calibrate_series",
    "check_monotone",
    "decay_loading",
    "find_increasing_price_state",
    "fit_ml",
    "flat_curve",
    "g2pp_dPdT",
    "g2pp_invert_states",
    "g2pp_log_price",
    "g2pp_price",
    "g2pp_variance",
    "holee_price",
    "hullwhite_price",
    "loglik_g2pp",
    "loglik_vasicek",
    "ls_objective",
    "mc_zero_price",
    "parse_date",
    "scan_derivative_signs",
    "synth_panel",
    "vasicek_ab",
    "vasicek_invert_state",
    "vasicek_price",
    "vasicek_transition",
    "year_fraction",
    "ytm_from_price",
]
