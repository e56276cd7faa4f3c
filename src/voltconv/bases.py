"""Orthogonal-polynomial basis descriptors and their recurrence machinery.

Every finite-interval basis here (Chebyshev T_n, Legendre P_n, Gegenbauer
C_n^(lam), Jacobi P_n^(alpha,beta)) satisfies a three-term recurrence

    p_{n+1}(x) = (A_n x + B_n) p_n(x) + C_n p_{n-1}(x),   p_0 = 1, p_{-1} = 0,

which drives Clenshaw evaluation, Vandermonde assembly and quadrature.  The
half-line basis is the weighted Laguerre function w(x) L_n(x).

The recurrences treat every point on its own, and numpy releases the GIL
inside their ufunc loops, so the Clenshaw sum and the oracle's grid
recurrences split their points over one thread per CPU (_run_split).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import BasisParameterError, UnsupportedBasisError

CHEBYSHEV = "Chebyshev"
LEGENDRE = "Legendre"
GEGENBAUER = "Gegenbauer"
JACOBI = "Jacobi"
WEIGHTED_LAGUERRE = "WeightedLaguerre"

_KINDS = (CHEBYSHEV, LEGENDRE, GEGENBAUER, JACOBI, WEIGHTED_LAGUERRE)

# Degenerate-parameter guard: Jacobi's alpha + beta = -1 (the integration
# coefficient A_1 vanishes there and S_1 divides by it) and Gegenbauer's
# lambda = 0 (column 0 divides by lambda).
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """Tagged basis selector; parameters are present only where meaningful."""

    kind: str
    lam: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise BasisParameterError(f"unknown basis kind {self.kind!r}")
        if self.kind == GEGENBAUER:
            if self.lam is None:
                raise BasisParameterError("Gegenbauer basis needs lambda")
            if not (self.lam > -0.5) or abs(self.lam) <= DEGENERATE_TOL:
                raise BasisParameterError(
                    f"Gegenbauer lambda must satisfy lambda > -1/2, "
                    f"|lambda| > {DEGENERATE_TOL:g} (got {self.lam})")
        elif self.lam is not None:
            raise BasisParameterError("lambda is only valid for Gegenbauer")
        if self.kind == JACOBI:
            if self.alpha is None or self.beta is None:
                raise BasisParameterError("Jacobi basis needs alpha and beta")
            if not (self.alpha > -1.0 and self.beta > -1.0):
                raise BasisParameterError(
                    f"Jacobi needs alpha, beta > -1 (got {self.alpha}, {self.beta})")
            if abs(self.alpha + self.beta + 1.0) <= DEGENERATE_TOL:
                raise BasisParameterError(
                    "Jacobi with alpha + beta = -1 is degenerate here; use the "
                    "Chebyshev or Gegenbauer builders instead")
        elif self.alpha is not None or self.beta is not None:
            raise BasisParameterError("alpha/beta are only valid for Jacobi")

    @property
    def finite_interval(self) -> bool:
        return self.kind != WEIGHTED_LAGUERRE

    def label(self) -> str:
        if self.kind == GEGENBAUER:
            return f"Gegenbauer(lambda={self.lam:g})"
        if self.kind == JACOBI:
            return f"Jacobi(alpha={self.alpha:g}, beta={self.beta:g})"
        return self.kind


def chebyshev() -> BasisSpec:
    return BasisSpec(CHEBYSHEV)


def legendre() -> BasisSpec:
    return BasisSpec(LEGENDRE)


def gegenbauer(lam: float) -> BasisSpec:
    return BasisSpec(GEGENBAUER, lam=float(lam))


def jacobi(alpha: float, beta: float) -> BasisSpec:
    return BasisSpec(JACOBI, alpha=float(alpha), beta=float(beta))


def weighted_laguerre() -> BasisSpec:
    return BasisSpec(WEIGHTED_LAGUERRE)


def raw_jacobi(alpha: float, beta: float) -> BasisSpec:
    """Jacobi descriptor without the convolution-specific exclusions.

    Quadrature rules are well defined on the whole range alpha, beta > -1,
    including the alpha + beta = -1 line that the convolution recurrences
    reject, so the quadrature module builds its descriptors through here.
    """
    if not (alpha > -1.0 and beta > -1.0):
        raise BasisParameterError("Jacobi weight needs alpha, beta > -1")
    b = object.__new__(BasisSpec)
    object.__setattr__(b, "kind", JACOBI)
    object.__setattr__(b, "lam", None)
    object.__setattr__(b, "alpha", float(alpha))
    object.__setattr__(b, "beta", float(beta))
    return b


def recurrence_abc(basis: BasisSpec, n, dtype=float):
    """Arrays (A_n, B_n, C_n) of p_{n+1} = (A_n x + B_n) p_n + C_n p_{n-1}.

    n is an integer or an integer array.  With dtype=np.longdouble the
    coefficients are formed in extended precision (the oracle's quadrature
    pipeline needs that; coefficient rounding feeds straight into recurrence
    accuracy).
    """
    nn = np.asarray(n, dtype=dtype)
    one = np.ones_like(nn)
    zero = np.zeros_like(nn)
    if basis.kind == CHEBYSHEV:
        return np.where(nn == 0, one, 2 * one), zero, np.where(nn == 0, zero, -one)
    if basis.kind == LEGENDRE:
        return (2 * nn + 1) / (nn + 1), zero, -nn / (nn + 1)
    if basis.kind == GEGENBAUER:
        lam = dtype(basis.lam)
        return (2 * (nn + lam) / (nn + 1), zero,
                -(nn + 2 * lam - 1) / (nn + 1))
    if basis.kind == JACOBI:
        a, b = dtype(basis.alpha), dtype(basis.beta)
        # n = 0 has its own form: the general one is 0/0 when alpha + beta = 0
        m = np.where(nn == 0, one, nn)
        s = 2 * m + a + b
        denom = 2 * (m + 1) * (m + a + b + 1) * s
        return (np.where(nn == 0, (a + b + 2) / 2, (s + 1) * (s + 2) * s / denom),
                np.where(nn == 0, (a - b) / 2, (s + 1) * (a * a - b * b) / denom),
                np.where(nn == 0, zero, -2 * (m + a) * (m + b) * (s + 2) / denom))
    if basis.kind == WEIGHTED_LAGUERRE:
        return -one / (nn + 1), (2 * nn + 1) / (nn + 1), -nn / (nn + 1)
    raise UnsupportedBasisError(basis.kind)


def _recurrence_step(tables, k: int, x: np.ndarray, p: np.ndarray,
                     pm1: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = (A_k x + B_k) p + C_k pm1 = p_{k+1}(x), without allocating.

    ``tables`` comes from _step_tables.  ``out`` may be ``pm1`` (an in-place
    update); ``tmp`` is scratch of x's shape.  This is the one place the
    forward recurrence is written, so every caller gets the same bits as
    poly_vandermonde.  Returns ``out``.
    """
    A, B, C = tables
    np.multiply(x, A[k], out=tmp)
    if B is not None:
        np.add(tmp, B[k], out=tmp)
    np.multiply(tmp, p, out=tmp)
    np.multiply(pm1, C[k], out=out)
    return np.add(tmp, out, out=out)


def _step_tables(basis: BasisSpec, n: int, dtype):
    """(A, B, C) for degrees 0..n-1, with B = None where it is all zero."""
    A, B, C = recurrence_abc(basis, np.arange(n), dtype)
    return A, (B if B.any() else None), C


def forward(basis: BasisSpec, x: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Yield p_0(x), ..., p_n(x) by forward recurrence, in x's dtype.

    Float64 or longdouble (other inputs are promoted to float64); no
    Laguerre weight.  Each yielded array is new, so callers may keep it.
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    tables = _step_tables(basis, n, x.dtype.type)
    p, pm1, tmp = np.ones_like(x), np.zeros_like(x), np.empty_like(x)
    yield p
    for k in range(n):
        p, pm1 = _recurrence_step(tables, k, x, p, pm1, np.empty_like(x), tmp), p
        yield p


def poly_vandermonde(basis: BasisSpec, x: np.ndarray, degree: int) -> np.ndarray:
    """Matrix V with V[..., k] = p_k(x), k = 0..degree, in x's dtype."""
    x = np.asarray(x)
    V = np.empty(x.shape + (degree + 1,), dtype=np.result_type(x, float))
    for k, p in enumerate(forward(basis, x, degree)):
        V[..., k] = p
    return V


def values_at_minus_one(basis: BasisSpec, nmax: int) -> np.ndarray:
    """Vector [p_0(-1), ..., p_nmax(-1)], accumulated multiplicatively.

    Chebyshev/Legendre: (-1)^n.  Gegenbauer: (-1)^n (2 lam)_n / n!.
    Jacobi: (-1)^n (beta+1)_n / n!.  No factorials, so no overflow.
    """
    if basis.kind in (CHEBYSHEV, LEGENDRE):
        out = np.ones(nmax + 1)
        out[1::2] = -1.0
        return out
    if not basis.finite_interval:
        raise UnsupportedBasisError("values_at_minus_one needs a finite-interval basis")
    shift = 2.0 * basis.lam if basis.kind == GEGENBAUER else basis.beta + 1.0
    j = np.arange(nmax, dtype=float)
    mags = np.concatenate([[1.0], np.cumprod((shift + j) / (j + 1.0))])
    signs = np.ones(nmax + 1)
    signs[1::2] = -1.0
    return signs * mags


def boundary_weights(basis: BasisSpec, nmax: int) -> np.ndarray:
    """w_j = (-1)^(j+1) |p_j(-1)| for the row-0 boundary sum, j = 0..nmax.

    These satisfy p_j(-1) = -w_j, so sum_k R_{k,n} p_k(-1) = 0 is equivalent
    to R_{0,n} = sum_{j>=1} w_j R_{j,n}.
    """
    return -values_at_minus_one(basis, nmax)


def weight_parameters(basis: BasisSpec):
    """(alpha, beta) of the orthogonality weight (1-x)^a (1+x)^b."""
    if basis.kind == CHEBYSHEV:
        return (-0.5, -0.5)
    if basis.kind == LEGENDRE:
        return (0.0, 0.0)
    if basis.kind == GEGENBAUER:
        return (basis.lam - 0.5, basis.lam - 0.5)
    if basis.kind == JACOBI:
        return (basis.alpha, basis.beta)
    raise UnsupportedBasisError("no finite-interval weight for " + basis.kind)


def gegenbauer_S_array(lam: float, nmax: int) -> np.ndarray:
    """[S_0, ..., S_nmax] via one cumulative product.

    S_n = 2 (-1)^(n+1) (lam+n) (2 lam - 1)_n / (n+1)! is the inhomogeneous
    term of the Gegenbauer column recursion.  S_0 = -2 lam (the empty
    product is 1), which is nonzero even at lam = 1/2 where S_n vanishes
    for all n >= 1.
    """
    n = np.arange(nmax + 1, dtype=float)
    r = np.concatenate([[1.0],
                        np.cumprod((2.0 * lam - 1.0 + n[:-1]) / (n[:-1] + 2.0))])
    signs = np.where(np.arange(nmax + 1) % 2 == 1, 1.0, -1.0)
    return 2.0 * signs * (lam + n) * r


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _workers(parts: int) -> int:
    """Worker count for work that splits into at most ``parts`` independent
    parts (grid rows, or ranges of points): one per CPU, at most one per
    part, and at least one."""
    return max(1, min(_cpu_count(), parts))


def _run_split(work, parts) -> None:
    """work(*part) for every part, each on its own thread when there are two
    or more, and inline when there is one.

    Every buffer a part names is allocated by the caller, and ``work`` calls
    private functions only: the threads neither allocate the large arrays
    (which would spread them over per-thread malloc arenas) nor enter a
    public function that a caller may have wrapped.  Each thread runs in a
    copy of the caller's contextvars context, so np.errstate carries over.
    Every result is read, so a worker's exception reaches the caller once
    all threads have ended.
    """
    if len(parts) == 1:
        work(*parts[0])
        return
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, *part)
                   for part in parts]
        for future in futures:
            future.result()
