"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers

import numpy as np


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


class RangeOverflowError(VoltconvError, ArithmeticError):
    """A float64 intermediate overflows where the result needs it finite."""


class OversizeError(VoltconvError, ValueError):
    """Problem size beyond what the coefficient oracle is willing to do."""


class SingularSystemError(VoltconvError, RuntimeError):
    """Linear system is numerically singular (pivot under threshold)."""


class NarrowLongdoubleError(VoltconvError, RuntimeError):
    """The extended tier needs np.longdouble wider than float64."""


def size(n, name: str = "N", least: int = 0) -> int:
    """n as an int >= least; bools and non-integral numbers are rejected."""
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, numbers.Integral):
        raise ArgumentError(f"{name} must be an integer (got {n!r})")
    if n < least:
        raise ArgumentError(f"need {name} >= {least} (got {n})")
    return int(n)


def vector(a, name: str) -> np.ndarray:
    """A copy of a as a finite, nonempty 1-D float array."""
    a = np.array(a, dtype=float)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be 1-D (got shape {a.shape})")
    if a.size == 0:
        raise ArgumentError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ArgumentError(f"{name} must be finite")
    return a


def interval(domain) -> tuple:
    """(a, b) as floats with a < b, both finite."""
    a, b = map(float, domain)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"domain must be finite with a < b, got {domain}")
    return a, b


def rhs(b, n: int) -> np.ndarray:
    """b as a 1-D float array of at most n entries; not checked for finiteness (README)."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise DimensionError("b must be a vector")
    if b.size > n:
        raise DimensionError(f"b has {b.size} entries; at most {n} allowed")
    return b
