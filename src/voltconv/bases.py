"""Orthogonal-polynomial basis descriptors and their recurrence machinery.

Every finite-interval basis here (Chebyshev T_n, Legendre P_n, Gegenbauer
C_n^(lam), Jacobi P_n^(alpha,beta)) satisfies a three-term recurrence

    p_{n+1}(x) = (A_n x + B_n) p_n(x) + C_n p_{n-1}(x),   p_0 = 1, p_{-1} = 0,

which drives Clenshaw evaluation, Vandermonde assembly and quadrature.  The
half-line basis is the weighted Laguerre function w(x) L_n(x).

The loops run it rescaled so that x's multiplier is exactly 2.  With
s_0 = 1, s_{k+1} = s_k A_k / 2, b_k = 2 B_k / A_k and
c_k = 4 C_k / (A_k A_{k-1}) (c_0 = 0), the values q_k = p_k / s_k satisfy

    q_{k+1} = (x2 + b_k) q_k + c_k q_{k-1},   x2 = x + x (exact),

and each caller multiplies by s_k once per value it keeps.  A step stores
three arrays per point, four where B is nonzero (Jacobi with
alpha != beta); the unscaled form stores four and five.  Every Chebyshev
scale is a power of two, so its bits are those of the unscaled form.
Weighted Laguerre stays unscaled, since its s_k = 1/(2^k k!) underflows
near k = 150 in float64: its table carries the multiplier A_k / 2 for the
same doubled grid, which gives the unscaled bits at five stores a step.

The recurrences treat every point on its own, and numpy releases the GIL
inside their ufunc loops, so the Clenshaw sum and the oracle's grid
recurrences split their points over one thread per CPU, above a floor.
They, and convmat.apply's row blocks, run on one worker pool that lives
for the process (_pool, _run_split).
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

# The least grid, in bytes, that each thread of a split recurrence gets:
# 32768 float64 or 16384 longdouble points.  A split costs a handoff of the
# GIL at each ufunc call: four a term for a Legendre Clenshaw.  Split into
# two ranges of this size on a 2-vCPU VM, with a pool started and joined
# for each call (0.3-0.4 ms), that Clenshaw took 0.71 of the inline time in
# longdouble with 101 terms and 0.92 with 11, and in float64 1.02 and 1.72
# (medians of 41 interleaved runs); with ranges half this size, longdouble
# took 0.69 and 1.15, float64 1.38 and 1.98.  The oracle's sums are
# longdouble, where this floor pays.
_MIN_RANGE_BYTES = 1 << 18

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


def _jacobi_abc(alpha: float, beta: float, n, dtype=float):
    """recurrence_abc's (A_n, B_n, C_n) for P_n^(alpha,beta), any alpha, beta > -1.

    The tables are finite on the alpha + beta = -1 line that BasisSpec
    rejects, so the Gauss-Jacobi rules take them from here.
    """
    nn = np.asarray(n, dtype=dtype)
    a, b = dtype(alpha), dtype(beta)
    # n = 0 has its own form: the general one is 0/0 when alpha + beta = 0
    m = np.where(nn == 0, 1, nn)
    s = 2 * m + a + b
    denom = 2 * (m + 1) * (m + a + b + 1) * s
    return (np.where(nn == 0, (a + b + 2) / 2, (s + 1) * (s + 2) * s / denom),
            np.where(nn == 0, (a - b) / 2, (s + 1) * (a * a - b * b) / denom),
            np.where(nn == 0, 0, -2 * (m + a) * (m + b) * (s + 2) / denom))


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
        return _jacobi_abc(basis.alpha, basis.beta, n, dtype)
    if basis.kind == WEIGHTED_LAGUERRE:
        return -one / (nn + 1), (2 * nn + 1) / (nn + 1), -nn / (nn + 1)
    raise UnsupportedBasisError(basis.kind)


def _scaled_tables(A, B, C):
    """(s, None, b, c) of the rescaled recurrence, from the raw (A, B, C) of
    degrees 0..n-1: s has the n+1 scales s_0..s_n, and b is None where B is
    all zero."""
    half = A / 2
    s = np.concatenate([np.ones(1, A.dtype), np.cumprod(half)])
    c = np.zeros_like(C)
    c[1:] = C[1:] / (half[1:] * half[:-1])
    return s, None, (B / half if B.any() else None), c


def _step_tables(basis: BasisSpec, n: int, dtype):
    """(s, a, b, c) of q_{k+1} = (a_k x2 + b_k) q_k + c_k q_{k-1}, p_k = s_k q_k,
    for degrees 0..n-1 (s has n+1 entries), read by _recurrence_step.

    Finite-interval bases get _scaled_tables: a is None, so x's multiplier
    is exactly 2 and a step stores three arrays, four with b.  Weighted
    Laguerre stays unscaled: s is all ones, a = A / 2 and (b, c) = (B, C),
    five stores a step.
    """
    A, B, C = recurrence_abc(basis, np.arange(n), dtype)
    if basis.finite_interval:
        return _scaled_tables(A, B, C)
    return np.ones(n + 1, A.dtype), A / 2, B, C


def _scaled_product(tables, k: int, x2: np.ndarray, q: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """out = (a_k x2 + b_k) q, with the absent a and b skipped; returns out."""
    _, a, b, _ = tables
    xk = x2
    if a is not None:
        xk = np.multiply(x2, a[k], out=out)
    if b is not None:
        xk = np.add(xk, b[k], out=out)
    return np.multiply(xk, q, out=out)


def _recurrence_step(tables, k: int, x2: np.ndarray, q: np.ndarray,
                     qm1: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = (a_k x2 + b_k) q + c_k qm1 = q_{k+1}(x), without allocating.

    ``tables`` comes from _step_tables and x2 = x + x; p_{k+1} is
    s_{k+1} q_{k+1}.  ``out`` may be ``qm1`` (an in-place update); ``tmp``
    is scratch of x2's shape.  The step stores (x2 + b_k) q into tmp in one
    array pass, or two with b, then qm1 c_k and the sum into out: three
    stores, four with b, five for weighted Laguerre.  This is the one place
    the forward recurrence is written, so every caller gets the same bits as
    poly_vandermonde.  Returns ``out``.
    """
    _scaled_product(tables, k, x2, q, tmp)
    np.multiply(qm1, tables[3][k], out=out)
    return np.add(tmp, out, out=out)


def _float_array(x) -> np.ndarray:
    """x as an array of its own float dtype, float64 for any other input."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float), copy=False)


def _scaled_values(tables, x2: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Yield q_0, ..., q_n on the doubled grid x2 in two rotating buffers:
    each yielded array is overwritten two steps later."""
    q, qm1, tmp = np.ones_like(x2), np.zeros_like(x2), np.empty_like(x2)
    yield q
    for k in range(n):
        q, qm1 = _recurrence_step(tables, k, x2, q, qm1, qm1, tmp), q
        yield q


def forward(basis: BasisSpec, x: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Yield p_0(x), ..., p_n(x) by forward recurrence, in x's dtype.

    Float64 or longdouble (other inputs are promoted to float64); no
    Laguerre weight.  Each yielded array is new, so callers may keep it.
    """
    x = _float_array(x)
    tables = _step_tables(basis, n, x.dtype.type)
    for k, q in enumerate(_scaled_values(tables, x + x, n)):
        yield np.multiply(q, tables[0][k], out=np.empty_like(q))


def poly_vandermonde(basis: BasisSpec, x: np.ndarray, degree: int) -> np.ndarray:
    """Matrix V with V[..., k] = p_k(x), k = 0..degree, in x's dtype."""
    x = _float_array(x)
    V = np.empty(x.shape + (degree + 1,), dtype=x.dtype)
    tables = _step_tables(basis, degree, x.dtype.type)
    for k, q in enumerate(_scaled_values(tables, x + x, degree)):
        np.multiply(q, tables[0][k], out=V[..., k])
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


def _workers(nbytes: int, rows: int, floor: int = _MIN_RANGE_BYTES) -> int:
    """Worker count for a grid of ``nbytes`` that splits into at most
    ``rows`` independent rows (or points): one per CPU, at most one per row
    and one per ``floor`` bytes of grid, and at least one."""
    most = min(rows, nbytes // floor)
    return 1 if most < 2 else min(_cpu_count(), most)


_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()
_POOL_THREAD_PREFIX = "voltconv-pool"


def _pool() -> ThreadPoolExecutor:
    """The shared worker pool: _cpu_count() - 1 threads (at least one),
    made on first use and kept for the life of the process.  Its threads
    start as work arrives and then wait for more, so a split pays a handoff
    rather than a pool's start and join."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max(1, _cpu_count() - 1),
                                       thread_name_prefix=_POOL_THREAD_PREFIX)
        return _POOL


def _drop_pool() -> None:
    """Forget the pool in a forked child, where its threads did not survive
    (and its lock may have been held by one), so that the child makes its
    own pool instead of waiting forever on the parent's."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):    # POSIX
    os.register_at_fork(after_in_child=_drop_pool)


def _run_split(work, parts) -> None:
    """work(*part) for every part: the last on the calling thread, the others
    on the shared pool's workers (_pool), and all inline when there is one.

    Every buffer a part names is allocated by the caller, and ``work`` calls
    private functions only: the workers neither allocate the large arrays
    (which would spread them over per-thread malloc arenas) nor enter a
    public function that a caller may have wrapped.  Each worker runs in a
    copy of the caller's contextvars context, so np.errstate carries over.
    The caller waits for every worker before it returns or raises, and reads
    every result, so a worker's exception reaches the caller.  Workers never
    wait on the pool themselves, so concurrent callers cannot deadlock it.
    """
    if len(parts) == 1:
        work(*parts[0])
        return
    pool = _pool()
    futures = [pool.submit(contextvars.copy_context().run, work, *part)
               for part in parts[:-1]]
    try:
        work(*parts[-1])
    finally:
        wait(futures)
    for future in futures:
        future.result()
