"""Exception types shared across the package."""


class VoltconvError(Exception):
    """Base class for all package-specific errors."""


class BasisParameterError(VoltconvError, ValueError):
    """Basis parameters outside their admissible range."""


class DegenerateParameterError(BasisParameterError):
    """Jacobi parameters hit a zero denominator in the recurrence tables."""


class UnsupportedBasisError(VoltconvError, ValueError):
    """Operation not defined for the given basis."""


class DomainError(VoltconvError, ValueError):
    """Evaluation point outside the series domain."""


class DomainMismatchError(VoltconvError, ValueError):
    """Operands live on incompatible domains or bases."""


class DimensionError(VoltconvError, ValueError):
    """Array argument has an incompatible shape or length."""


class ArgumentError(VoltconvError, ValueError):
    """Malformed scalar or array argument (empty input, bad flag, ...)."""


class NonResolutionError(VoltconvError, RuntimeError):
    """Adaptive fitting hit the degree cap before the tail settled.

    Carries the best series obtained so far in ``series``.
    """

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


class ConvergenceError(VoltconvError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class OversizeError(VoltconvError, ValueError):
    """Problem size beyond what the coefficient oracle is willing to do."""


class SingularSystemError(VoltconvError, RuntimeError):
    """Linear system is numerically singular (pivot under threshold)."""


class NarrowLongdoubleError(VoltconvError, RuntimeError):
    """The extended tier needs np.longdouble wider than float64."""
