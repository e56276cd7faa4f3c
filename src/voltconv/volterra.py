"""Interval-aware convolution of fitted functions and second-kind solves.

All convolution arithmetic happens on the canonical interval; the only
domain-dependent ingredient is the Jacobian (b-a)/2, carried in
ConvMatrix.scale.  Solving u = s + V[f]u discretizes to (I - R^N) c_u = c_s
with R^N the leading (N+1) x (N+1) block of the scaled convolution matrix.
I - R^N is almost banded like R, so it is assembled and factored sparsely
(partial-pivot LU of its reversed transpose, O(M^2 N) time and O(MN)
memory); truncate_square gives the dense block for reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import convmat, laguerre
from .errors import DimensionError, DomainMismatchError, SingularSystemError, size
from .series import PolySeries, _conv_domain, series_from_json, series_to_json

_PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class VolterraProblem:
    """Second-kind problem u = rhs + kernel * u on a shared finite interval."""

    kernel: PolySeries
    rhs: PolySeries

    def __post_init__(self):
        if not self.kernel.basis.finite_interval:
            raise DomainMismatchError("second-kind solves need a finite-interval basis")
        if self.kernel.basis != self.rhs.basis:
            raise DomainMismatchError("kernel and rhs must share one basis")
        if self.kernel.domain != self.rhs.domain:
            raise DomainMismatchError("kernel and rhs must share one domain")

    @property
    def domain(self):
        return self.kernel.domain


def problem_to_json(problem: VolterraProblem) -> str:
    return json.dumps({"kernel": json.loads(series_to_json(problem.kernel)),
                       "rhs": json.loads(series_to_json(problem.rhs))})


def problem_from_json(text: str) -> VolterraProblem:
    d = json.loads(text)
    return VolterraProblem(series_from_json(json.dumps(d["kernel"])),
                           series_from_json(json.dumps(d["rhs"])))


def convolve(f: PolySeries, g: PolySeries) -> PolySeries:
    """Volterra convolution h(x) = int f(x-t) g(t) dt of two fitted series.

    f on [a, b] and g on [c, d] need equal lengths and the same basis; h has
    degree deg f + deg g + 1 and lives on [a+c, b+c].  Weighted-Laguerre
    series convolve on [0, inf) through the Toeplitz fast path.
    """
    if f.basis != g.basis:
        raise DomainMismatchError(
            f"basis mismatch: {f.basis.label()} vs {g.basis.label()}")
    if not f.basis.finite_interval:
        R = laguerre.build_laguerre(f.coeffs, g.degree)
        c = laguerre.apply_laguerre(R, g.coeffs)
        return PolySeries(f.basis, (0.0, math.inf), c)
    domain = _conv_domain(f, g)
    a, b = f.domain
    R = convmat.build(f.basis, f.coeffs, g.degree, scale=(b - a) / 2.0)
    return PolySeries(f.basis, domain, convmat.apply(R, g.coeffs))


def truncate_square(R: convmat.ConvMatrix, N: int) -> np.ndarray:
    """Dense leading (N+1) x (N+1) block of the scaled matrix."""
    N = size(N)
    if N > R.N:
        raise DimensionError(
            f"matrix of shape {R.shape} has no leading {N + 1} x {N + 1} block")
    return convmat._dense(R, N + 1, N + 1)


def tailor_rhs(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Truncate or zero-pad a coefficient vector to length N + 1."""
    c = np.zeros(size(N) + 1)
    m = min(len(coeffs), N + 1)
    c[:m] = coeffs[:m]
    return c


def solve_second_kind(problem: VolterraProblem, N: int) -> PolySeries:
    """Degree-N approximation of u solving u = rhs + kernel * u.

    Builds the kernel's convolution matrix (domain scale included), assembles
    the transpose of I - R^N from its stored entries, tailors the rhs
    coefficients to length N+1 and solves by sparse partial-pivot LU
    (SuperLU, no column reordering) of that transpose, i.e. by column
    pivoting on I - R^N.  Rows and columns go in reverse order, which makes
    the M+1 dense top rows the last columns.  Every pivot before them is
    then chosen within the band, so fill stays inside the band and those
    columns whatever the entries' sizes, and the solve costs O(M^2 N) time
    and O(MN) memory.
    """
    import scipy.sparse.linalg  # ~30 ms to import, and only the solver uses it
    a, b = problem.domain
    R = convmat.build(problem.kernel.basis, problem.kernel.coeffs, N,
                      scale=(b - a) / 2.0)
    # (I - R^N)^T as CSC, rows and columns reversed; every diagonal entry is stored
    rows, cols, vals = map(np.concatenate, zip(*convmat._entries(R, N + 1, N + 1)))
    vals = -R.scale * vals
    vals[rows == cols] += 1.0
    A = scipy.sparse.csc_array((vals, (N - cols, N - rows)), shape=(N + 1, N + 1))
    try:
        lu = scipy.sparse.linalg.splu(A, permc_spec="NATURAL")
    except RuntimeError:        # SuperLU met an exactly zero pivot
        raise SingularSystemError("I - R^N is singular (zero pivot)") from None
    pivmin = np.min(np.abs(lu.U.diagonal()))
    if pivmin <= _PIVOT_RTOL * np.max(np.abs(A.data)):
        raise SingularSystemError(
            f"I - R^N is numerically singular (min pivot {pivmin:.3e})")
    rhs = tailor_rhs(problem.rhs.coeffs, N)
    c = lu.solve(rhs[::-1], trans="T")[::-1]
    return PolySeries(problem.kernel.basis, problem.domain, c)
