"""Exception types shared across the package.

Every domain error derives from KippError so callers can catch one base
class; the CLI maps KippError to a distinct exit code.
"""


class KippError(Exception):
    """Base class for all domain errors raised by kippcurve."""


class BadDims(KippError):
    """Matrix or parameter dimensions outside the supported range."""


class NotDim5(BadDims):
    """Operation requires a 5x5 matrix."""


class NotUpperTriangular(KippError):
    """Operation requires an upper-triangular input."""


class NotPartialIsometry(KippError):
    """Input fails the partial-isometry test at the requested tolerance."""


class IllConditionedInterpolation(KippError):
    """A z-layer fit of the eigenvalue sweep left a residual above its bound."""


class NegativeMinorAxisSquared(KippError):
    """Quadratic-factor fit landed on a decisively negative axis square."""


class InfeasibleMu(KippError):
    """Shift parameters do not give positive weights for the flat family."""


class ParameterOutOfDisc(KippError):
    """Scalar parameter outside its required disc or interval."""


class ConvergenceFailure(KippError):
    """An iterative kernel (Schur, eigensolver) failed to converge."""
