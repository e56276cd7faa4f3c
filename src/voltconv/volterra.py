"""Interval-aware convolution of fitted functions and second-kind solves.

All convolution arithmetic happens on the canonical interval; the only
domain-dependent ingredient is the Jacobian (b-a)/2, carried in
ConvMatrix.scale.  Solving u = s + V[f]u discretizes to (I - R^N) c_u = c_s
with R^N the leading (N+1) x (N+1) block of the scaled convolution matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import json

from . import convmat, laguerre
from .errors import DimensionError, DomainMismatchError, SingularSystemError
from .series import PolySeries, series_from_json, series_to_json

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
    a, b = f.domain
    c0, d0 = g.domain
    if abs((b - a) - (d0 - c0)) > 1e-12 * (b - a):
        raise DomainMismatchError(
            f"interval lengths differ: [{a}, {b}] vs [{c0}, {d0}]")
    R = convmat.build(f.basis, f.coeffs, g.degree, scale=(b - a) / 2.0)
    out = convmat.apply(R, g.coeffs)
    return PolySeries(f.basis, (a + c0, b + c0), out)


def truncate_square(R: convmat.ConvMatrix, N: int) -> np.ndarray:
    """Dense leading (N+1) x (N+1) block of the scaled matrix."""
    N = convmat._size(N)
    if N > R.N:
        raise DimensionError(
            f"matrix of shape {R.shape} has no leading {N + 1} x {N + 1} block")
    return convmat._dense(R, N + 1, N + 1)


def tailor_rhs(coeffs: np.ndarray, N: int) -> np.ndarray:
    """Truncate or zero-pad a coefficient vector to length N + 1."""
    c = np.zeros(N + 1)
    m = min(len(coeffs), N + 1)
    c[:m] = coeffs[:m]
    return c


def solve_second_kind(problem: VolterraProblem, N: int) -> PolySeries:
    """Degree-N approximation of u solving u = rhs + kernel * u.

    Builds the kernel's convolution matrix (domain scale included), forms
    I - R^N, tailors the rhs coefficients to length N+1 and solves by dense
    partial-pivot elimination.
    """
    a, b = problem.domain
    R = convmat.build(problem.kernel.basis, problem.kernel.coeffs, N,
                      scale=(b - a) / 2.0)
    A = np.eye(N + 1) - truncate_square(R, N)
    rhs = tailor_rhs(problem.rhs.coeffs, N)
    with warnings.catch_warnings():
        # singular pivots are detected and raised below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivmin = np.min(np.abs(np.diag(lu)))
    if pivmin <= _PIVOT_RTOL * np.max(np.abs(A)):
        raise SingularSystemError(
            f"I - R^N is numerically singular (min pivot {pivmin:.3e})")
    c = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return PolySeries(problem.kernel.basis, problem.domain, c)
