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

and each caller multiplies by s_k once per value it keeps.  Every
Chebyshev scale is a power of two, so its bits are those of the unscaled
form.  Weighted Laguerre stays unscaled, since its s_k = 1/(2^k k!)
underflows near k = 150 in float64: its table carries the multiplier
A_k / 2 for the same doubled grid, which gives the unscaled bits.

Two kernels run the forward step on the same tables (_step_tables):
_recurrence_step and _ring_step, whose docstrings say which callers run each.

The recurrences treat every point on its own, and numpy releases the GIL
inside their ufunc loops, so the Clenshaw sum and the oracle's grid
recurrences split their points over the CPUs above a floor, as convmat splits
its build and apply, under _run_split's threading contract.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import BasisParameterError, DegenerateParameterError, UnsupportedBasisError

CHEBYSHEV = "Chebyshev"
LEGENDRE = "Legendre"
GEGENBAUER = "Gegenbauer"
JACOBI = "Jacobi"
WEIGHTED_LAGUERRE = "WeightedLaguerre"

_KINDS = (CHEBYSHEV, LEGENDRE, GEGENBAUER, JACOBI, WEIGHTED_LAGUERRE)

# The least grid, in bytes, that each thread of a split recurrence gets:
# 32768 float64 or 16384 longdouble points.  A split hands the GIL over at
# each ufunc call.  On the ring step the oracle's longdouble grid
# recurrences pay for it from 128 KiB (_h_values) to 256 KiB (_pn_rows) a
# range (timings in CHANGES.md); a longdouble Clenshaw sum has its own
# floor, series._MIN_WIDE_RANGE_BYTES.
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
            if not (-0.5 < self.lam < np.inf) or abs(self.lam) <= DEGENERATE_TOL:
                raise BasisParameterError(
                    f"Gegenbauer lambda must be finite and satisfy lambda > -1/2, "
                    f"|lambda| > {DEGENERATE_TOL:g} (got {self.lam})")
        elif self.lam is not None:
            raise BasisParameterError("lambda is only valid for Gegenbauer")
        if self.kind == JACOBI:
            if self.alpha is None or self.beta is None:
                raise BasisParameterError("Jacobi basis needs alpha and beta")
            if not (-1.0 < self.alpha < np.inf and -1.0 < self.beta < np.inf):
                raise BasisParameterError(
                    f"Jacobi needs finite alpha, beta > -1 (got {self.alpha}, {self.beta})")
            if abs(self.alpha + self.beta + 1.0) <= DEGENERATE_TOL:
                raise DegenerateParameterError(
                    "Jacobi with alpha + beta = -1 is degenerate here (it zeroes "
                    "the A_1 denominator); use the Chebyshev or Gegenbauer "
                    "builders instead")
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


def _lam(basis: BasisSpec) -> Optional[float]:
    """Gegenbauer's lambda, or 1/2 for Legendre (P_n = C_n^(1/2)), whose bits
    the Gegenbauer formulas give there; None for the other kinds."""
    return 0.5 if basis.kind == LEGENDRE else basis.lam


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
    if (lam := _lam(basis)) is not None:
        lam = dtype(lam)
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
    for degrees 0..n-1 (s has n+1 entries), read by _recurrence_step and
    _ring_step.

    Finite-interval bases get _scaled_tables: a is None, so x's multiplier
    is exactly 2 and a step stores three arrays, four with b.  Weighted
    Laguerre stays unscaled: s is all ones, a = A / 2 and (b, c) = (B, C),
    five stores a step.
    """
    A, B, C = recurrence_abc(basis, np.arange(n), dtype)
    if basis.finite_interval:
        return _scaled_tables(A, B, C)
    return np.ones(n + 1, A.dtype), A / 2, B, C


def _multiplier(tables, k: int, x2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a_k x2 + b_k, with the absent a and b skipped: x2 itself, or out."""
    _, a, b, _ = tables
    xk = x2
    if a is not None:
        xk = np.multiply(x2, a[k], out=out)
    if b is not None:
        xk = np.add(xk, b[k], out=out)
    return xk


def _recurrence_step(tables, k: int, x2: np.ndarray, q: np.ndarray,
                     qm1: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = (a_k x2 + b_k) q + c_k qm1 = q_{k+1}(x), without allocating.

    ``tables`` comes from _step_tables and x2 = x + x; p_{k+1} is
    s_{k+1} q_{k+1}.  ``tmp`` is scratch of x2's shape, and either ``out``
    or ``tmp`` may be ``qm1`` (an in-place update).  The step stores qm1 c_k
    into tmp, then (x2 + b_k) q into out in one array pass, or two with b,
    and the sum into out: three stores, four with b, five for weighted
    Laguerre.  The sum keeps the sign of an exact zero (-0 + -0 = -0), so
    poly_vandermonde, _scaled_values and the Gauss rules run this step.
    Returns ``out``.
    """
    np.multiply(qm1, tables[3][k], out=tmp)
    np.multiply(_multiplier(tables, k, x2, out), q, out=out)
    return np.add(out, tmp, out=out)


# Ring step k reads the pair (q_{k-1}, q_k) from Q[_RING[k % 3]], a basic
# slice, and writes q_{k+1} into the row left over, (k + 2) % 3.
_RING = (slice(0, 2), slice(1, 3), slice(2, None, -2))


def _ring(tables, x: np.ndarray):
    """(x2, X, Q) for _ring_step on the grid x, which it doubles in place
    when the step refills X[1] (a or b present) and otherwise copies doubled
    into X[1], so that x2 is X[1] and the caller may drop x.  Q holds
    q_{-1} = 0 and q_0 = 1 in rows 0 and 1.  Callers of _run_split make
    these on the calling thread and hand slices of them to the parts."""
    X = np.empty((2,) + x.shape, x.dtype)
    if tables[1] is None and tables[2] is None:
        x2 = np.add(x, x, out=X[1])
    else:
        x2 = np.add(x, x, out=x)
    Q = np.empty((3,) + x.shape, x.dtype)
    Q[0] = 0
    Q[1] = 1
    return x2, X, Q


def _ring_step(tables, k: int, x2: np.ndarray, X: np.ndarray,
               Q: np.ndarray) -> np.ndarray:
    """q_{k+1} = (a_k x2 + b_k) q_k + c_k q_{k-1} into the ring Q (from _ring,
    or slices of it along the points), whose row (k + 1) % 3 holds q_k and
    row k % 3 q_{k-1}; returns the row written, (k + 2) % 3.

    X is the multiplier array [c_k row; x2 row]: X[1] is x2 itself, or is
    refilled with a_k x2 + b_k in one pass per term.  Where the dtype is
    wider than double, X[0] is filled with c_k and np.vecdot over the pair
    axis sums c_k q_{k-1} + (a_k x2 + b_k) q_k in a register and stores
    once; most of a longdouble pass is its 80-bit store, so this takes
    about 0.6 of the three passes' time, and the oracle's grid recurrences
    (_h_block, _pn_group) run this step.  In float64 (and where longdouble
    is double) it runs _recurrence_step instead, with q_{k-1}'s row as its
    scratch: the three passes are faster there and keep vecdot's BLAS out
    of the bits.  So no caller may read q_{k-1} after the step.

    The values equal _recurrence_step's at every point and degree, and the
    bits wherever the value is nonzero.  vecdot's sum starts from +0, so it
    forms (+0 + c_k q_{k-1}) + (a_k x2 + b_k) q_k, whose products are
    rounded as the three passes round them; +0 + u is u unless u = -0, and
    the sum of two terms does not depend on their order.  So the step
    differs from the three passes only where both products are -0: it writes
    +0 where they write -0.  A zero, of either sign, adds nothing to a later
    nonzero sum and multiplies to a zero, so the difference stays in the
    sign of exact zeros.  No caller can show that sign: _h_block's einsum
    also sums from +0, and sampled_value_errors takes abs of its sums.  The
    step checks no zero: one .all() of the row per step, when tried, cut the
    oracle's end-to-end gain from 21% to 12%.
    """
    pair, out = Q[_RING[k % 3]], Q[(k + 2) % 3]
    if _wide(X.dtype):
        _multiplier(tables, k, x2, X[1])
        X[0].fill(tables[3][k])
        return np.vecdot(X, pair, axis=0, out=out)
    return _recurrence_step(tables, k, x2, pair[1], pair[0], out, pair[0])


@functools.cache
def _wide(dtype) -> bool:
    """Whether dtype is wider than double (longdouble on x87); cached, as
    the ring step asks once per step."""
    return np.finfo(dtype).nmant > 52


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


def poly_vandermonde(basis: BasisSpec, x: np.ndarray, degree: int) -> np.ndarray:
    """Matrix V with V[..., k] = p_k(x), k = 0..degree, in x's dtype."""
    x = _float_array(x)
    V = np.empty(x.shape + (degree + 1,), dtype=x.dtype)
    tables = _step_tables(basis, degree, x.dtype.type)
    for k, q in enumerate(_scaled_values(tables, x + x, degree)):
        np.multiply(q, tables[0][k], out=V[..., k])
    return V


def _signs(n: int) -> np.ndarray:
    """[(-1)^k for k = 0..n-1]."""
    return np.where(np.arange(n) % 2, -1.0, 1.0)


def _rising(x: float, d: float, n: int) -> np.ndarray:
    """[prod_{j<k} (x+j)/(j+d) for k = 0..n] by one cumulative product, which
    does not overflow where the rising factorials (x)_k and (d)_k do."""
    j = np.arange(n, dtype=float)
    return np.concatenate([[1.0], np.cumprod((x + j) / (j + d))])


def values_at_minus_one(basis: BasisSpec, nmax: int) -> np.ndarray:
    """Vector [p_0(-1), ..., p_nmax(-1)]: (-1)^n for Chebyshev,
    (-1)^n (2 lam)_n / n! for Gegenbauer (Legendre at lam = 1/2) and
    (-1)^n (beta+1)_n / n! for Jacobi."""
    if not basis.finite_interval:
        raise UnsupportedBasisError("values_at_minus_one needs a finite-interval basis")
    signs = _signs(nmax + 1)
    if basis.kind == CHEBYSHEV:
        return signs
    shift = basis.beta + 1.0 if basis.kind == JACOBI else 2.0 * _lam(basis)
    return signs * _rising(shift, 1.0, nmax)


def weight_parameters(basis: BasisSpec):
    """(alpha, beta) of the orthogonality weight (1-x)^a (1+x)^b."""
    if basis.kind == CHEBYSHEV:
        return (-0.5, -0.5)
    if basis.kind == JACOBI:
        return (basis.alpha, basis.beta)
    lam = _lam(basis)
    if lam is None:
        raise UnsupportedBasisError("no finite-interval weight for " + basis.kind)
    return (lam - 0.5, lam - 0.5)


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


def _cuts(cost: np.ndarray, parts: int) -> list:
    """[(lo, hi)]: items 0..len(cost)-2 in at most ``parts`` runs at equal
    shares of the increasing cumulative cost (cost[i] before item i); the
    ends are pinned, as cost[-1] * parts / parts may round past cost[-1]."""
    ends = np.searchsorted(cost, cost[-1] * np.arange(parts + 1) / parts)
    ends[0], ends[-1] = 0, len(cost) - 1
    ends = np.unique(ends).tolist()
    return list(zip(ends, ends[1:]))


_POOL_THREAD_PREFIX = "voltconv-pool"


class _Worker:
    """One pool thread and its handoff.  start() stores the task and
    releases ``go``; the thread runs it, keeps any exception, drops the task
    and releases ``done``, which join() acquires.  Both locks stay held
    while the thread is idle, so each side waits on one lock."""

    __slots__ = ("go", "done", "task", "error")

    def __init__(self, name: str):
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.task = self.error = None
        threading.Thread(target=self._serve, name=name, daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            try:
                self.task()
            except BaseException as exc:    # join() hands it to the caller
                self.error = exc
            self.task = None                # an idle worker keeps no argument alive
            self.done.release()

    def start(self, task) -> None:
        self.task = task
        self.go.release()

    def join(self):
        """Wait for the task; the exception it raised, or None."""
        self.done.acquire()
        error, self.error = self.error, None
        return error


_POOL: list = []
_POOL_LOCK = threading.Lock()


def _pool() -> list:
    """The shared workers, for the holder of _POOL_LOCK: _cpu_count() - 1
    daemon threads (at least one), made as needed and kept for the life of
    the process, so a split pays two lock handoffs per worker rather than a
    pool's start and join."""
    while len(_POOL) < max(1, _cpu_count() - 1):
        _POOL.append(_Worker(f"{_POOL_THREAD_PREFIX}-{len(_POOL)}"))
    return _POOL


def _drop_pool() -> None:
    """Forget the workers in a forked child, where their threads did not
    survive (and _POOL_LOCK may have been held by a split), so that the
    child makes its own instead of waiting forever on the parent's."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = [], threading.Lock()


if hasattr(os, "register_at_fork"):    # POSIX
    os.register_at_fork(after_in_child=_drop_pool)


def _run_split(work, parts) -> None:
    """work(*part) for every part: the first ones on the shared workers
    (_pool), one each, and the rest, the last part among them, on the
    calling thread; all inline when there is one part, or when another
    split holds the workers.

    The threading contract, which every caller keeps: each buffer a part
    names is allocated by the caller, and ``work`` calls private functions
    only, so the workers neither allocate the large arrays (which would
    spread them over per-thread malloc arenas) nor enter a public function
    that a caller may have wrapped; a part takes the GIL only a handful of
    times, as each turn stalls the caller's numpy loop; and the bits do not
    depend on the part count.  Each worker runs in a copy of the caller's
    contextvars context, so np.errstate carries over.  The caller waits for
    every worker before it returns or raises, and the first worker
    exception, in part order, is raised on the caller.  Workers never wait
    on the pool: a split that finds it busy, a nested one included, runs
    inline instead of queueing.
    """
    if len(parts) == 1 or not _POOL_LOCK.acquire(blocking=False):
        for part in parts:
            work(*part)
        return
    started = []
    try:
        for worker, part in zip(_pool(), parts[:-1]):
            worker.start(functools.partial(contextvars.copy_context().run, work, *part))
            started.append(worker)
        for part in parts[len(started):]:
            work(*part)
    finally:
        # a join cut short by a signal leaves the lock held: later splits
        # then run inline rather than hand a busy worker a second task
        errors = [worker.join() for worker in started]
        _POOL_LOCK.release()
    for error in errors:
        if error is not None:
            raise error
