"""Exception hierarchy for curveforge.

Every error raised on purpose by this package derives from CurveforgeError,
so callers (and the CLI) can distinguish domain failures from plain bugs.
"""


class CurveforgeError(Exception):
    """Base class for all curveforge domain errors."""


class OrderingError(CurveforgeError, ValueError):
    """Inputs that must be ordered in time (or maturity) are not."""


class NoSolutionError(CurveforgeError, ValueError):
    """A root or optimum does not exist in the admissible region."""


class AmbiguityError(CurveforgeError, ValueError):
    """Duplicate, too few or mixed inputs (two quotes at one maturity, a
    single quote, two settlement dates) make the problem ill-posed."""


class ExtrapolationError(CurveforgeError, ValueError):
    """A curve was queried outside its pillar span without the
    flat-extrapolation flag."""


class SingularInversionError(CurveforgeError, ValueError):
    """A price-to-state inversion is singular or too ill-conditioned to
    trust (zero maturity, coincident factor loadings, ...)."""


class DegenerateStepError(CurveforgeError, ValueError):
    """A transition over a non-positive or vanishing time step was requested
    where the density would be degenerate."""


class BoundaryError(CurveforgeError, ValueError):
    """A parameter sits on (or beyond) the boundary of its admissible set,
    e.g. |rho| = 1 making a covariance singular."""


class PriceRangeError(CurveforgeError, ValueError):
    """A zero-coupon price lies outside (0, 1], e.g. a simulated state
    that prices a bond above par."""


class PanelShapeError(CurveforgeError, ValueError):
    """A price panel has the wrong number of instruments for its model, too
    few observations to hold one transition, no observations at all, or no
    negotiated flags to filter on."""


class OptimizationError(CurveforgeError, RuntimeError):
    """Every optimizer restart failed.  Carries the best partial result
    seen, if any, in ``partial``."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ResolutionError(CurveforgeError, ValueError):
    """A simulation grid is too coarse for the requested horizon."""


class IngestionError(CurveforgeError, ValueError):
    """A data file failed schema or content validation.

    ``line`` holds the 1-based offending line number when a single line is
    at fault; ``lines`` collects (line_number, problem) pairs when several
    rows are rejected in one pass.
    """

    def __init__(self, message, line=None, lines=None):
        self.lines = list(lines) if lines is not None else []
        if self.lines and line is None:
            line = self.lines[0][0]
        if self.lines:
            details = "; ".join(f"line {n}: {p}" for n, p in self.lines)
            message = f"{message} ({details})"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


#: Failures of one calibration date or one surface cell that are data, not
#: bugs: they are recorded and the rest of the run goes on.  Anything else
#: propagates.
DATA_ERRORS = (CurveforgeError, ValueError, FloatingPointError, OverflowError)
