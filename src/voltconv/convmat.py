"""Stable construction of Volterra convolution matrices.

The matrix R maps coefficients of g to coefficients of h = integral of
f(x-t) g(t) dt (left-sided, canonical interval), in a fixed basis.  R is
almost banded: rows 0..M are dense, rows M+1..M+N+1 carry a band of M+1
sub- and M+1 superdiagonals.  Construction is region-wise per column /
diagonal / row:

  column 0        antiderivative coefficients of the kernel
  region A        main diagonal and M+1 subdiagonals, offset by offset: each
                  is one forward recurrence over the columns (stable: its
                  multiplier is <= 1), run by a LAPACK bidiagonal solve
  region B        superdiagonal band, mirrored from region A through the
                  rescaling symmetry of the inner submatrix, in blocks of offsets
  region C        dense top rows including row 0, recast recursion swept
                  upward row by row over padded columns up to N+M+1 so each
                  row's domain of dependence is complete, two rows held at
                  a time; it starts from the dense rows M+1 and M+2, which
                  region B extends past the band; only column 1's top entry
                  comes from the endpoint boundary sum (the recast forms are
                  singular at n = 1 for Chebyshev)

Column 0 and regions A and C read one RecurrenceTables per basis, with no
per-basis branch.  build and apply say how they split over the CPUs.  Every
reader of the packed storage lives in this module.

The naive builder, kept for error-growth studies, runs region A's column
step (_column_step) over whole columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bases
from .bases import BasisSpec
from .errors import (ArgumentError, BasisParameterError, DimensionError, UnsupportedBasisError,
                     rhs, size, vector)

__all__ = [
    "ConvMatrix", "RecurrenceTables", "build_chebyshev", "build_legendre",
    "build_gegenbauer", "build_jacobi", "build", "build_chebyshev_naive",
    "jacobi_tables", "symmetry_ratio", "apply", "to_dense",
]

_TINY = np.finfo(float).tiny

# The least bytes of top and band that each of apply's row blocks gets;
# below twice this, one block runs inline: a split's handoffs cost more
# than they save on smaller matrices (timings in CHANGES.md).
_MIN_APPLY_BYTES = 1 << 21

# apply's time per entry of top, in entries of band, for the cuts of its row
# blocks: top goes through one BLAS product, band through scipy's slower DIA
# pass (timings in CHANGES.md).
_TOP_COST = 0.6


@dataclass(frozen=True)
class ConvMatrix:
    """Packed almost-banded convolution matrix, immutable after build.

    top[k, n]          = R_{k,n} for rows k = 0..M (dense block)
    band[k-n+M+1, n]   = R_{k,n} for rows k >= M+1 with |k-n| <= M+1
    top is (M+1, N+1); band is (2M+3, N+1), LAPACK general-band storage
    (l = u = M+1) of R's rows >= M+1, with zeros wherever k <= M or
    k > M+N+1.  Everything else is a structural zero.  ``scale`` is the
    domain-length Jacobian applied by apply()/to_dense(); the stored
    entries are always for the canonical interval.
    """

    basis: BasisSpec
    M: int
    N: int
    scale: float
    top: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.top.setflags(write=False)
        self.band.setflags(write=False)

    @property
    def shape(self):
        return (self.M + self.N + 2, self.N + 1)

    @property
    def bandwidth(self) -> int:
        return self.M + 1

    @functools.cached_property
    def _views(self) -> dict:
        """_row_blocks' results by part count."""
        return {}

    def _row_blocks(self, parts: int):
        """[(lo, view)]: R's rows M+1..M+N+1 cut into at most ``parts`` row
        blocks, as dia_arrays over band itself, made once per part count.

        Band row d holds the diagonal n - (k-M-1) = 2M+2-d, so a block whose
        first row is R's row M+1+lo has offsets 2M+2+lo .. lo, and the zeros
        of rows k <= M are not read.  scipy sums each output row over the
        diagonals in offset order, so every row sums the same products in
        the same order for any cut.  The first block also carries the top
        product; the cuts balance the entries each block reads, counting
        all of top with the first, each of its entries at _TOP_COST of a
        band entry.
        """
        views = self._views.get(parts)
        if views is None:
            from scipy.sparse import dia_array
            M, N = self.M, self.N
            reads = np.minimum(2 * M + 2, N - np.arange(N + 1)) + 1.0
            reads[0] += _TOP_COST * (M + 1) * (N + 1)
            offsets = np.arange(2 * M + 2, -1, -1)
            views = self._views[parts] = [
                (lo, dia_array((self.band, offsets + lo), shape=(hi - lo, N + 1)))
                for lo, hi in bases._cuts(np.concatenate([[0.0], np.cumsum(reads)]), parts)]
        return views

    def entry(self, k: int, n: int) -> float:
        """Scaled entry R_{k,n} (0 outside the stored structure)."""
        if not (0 <= k <= self.M + self.N + 1 and 0 <= n <= self.N):
            raise DimensionError(f"index ({k}, {n}) outside {self.shape}")
        if k <= self.M:
            return self.scale * self.top[k, n]
        o = k - n
        if abs(o) <= self.M + 1:
            return self.scale * self.band[o + self.M + 1, n]
        return 0.0


@dataclass(frozen=True)
class RecurrenceTables:
    """Coefficient arrays of the integration recurrence behind a build:
    column 0 (the kernel's antiderivative), region A and region C read them.

    A[j] holds A_j for j >= 1 (A[0] is padding), B[j] and C[j] are valid
    from j = 0, shat[n] from n = 0.  shat[n] is the coefficient of R_{k,0}
    in the column n -> n+1 step, i.e. S_n / A_{n+1} in the Jacobi
    normalization (for Gegenbauer the inhomogeneous constant S_n already
    comes in that form).  Jacobi slot conventions: B[0] = 0 and S_0 is
    stored as S_0 - B_0 = -2(beta+1)/(alpha+beta+2); the two constants only
    ever appear through that difference (both are singular on
    alpha + beta = 0 while the difference is not), and storing the merged
    value keeps the tables finite and the column recursion uniform in n.
    Chebyshev conventions: A[1] = 1 (the integral of T_0 is T_1, not
    T_1 / 2), which gives region C's halving at k = 1, and C[0] = 0.
    Ainv and Cinv are 1/A and 1/C from their closed forms (inf where A or C
    is 0), exact where those are integers or dyadics, so multipliers such
    as A_k / A_c = Ainv_c / Ainv_k round once.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    shat: np.ndarray
    Ainv: np.ndarray
    Cinv: np.ndarray


def jacobi_tables(alpha: float, beta: float, nmax: int) -> RecurrenceTables:
    """Tables A_1..A_{nmax+1}, B_0..B_{nmax+1}, C_0..C_{nmax+1}, shat_0..shat_{nmax}."""
    bases.jacobi(alpha, beta)  # parameter validation, the degenerate line included
    ab, nmax = alpha + beta, size(nmax, "nmax")
    j = np.arange(nmax + 2, dtype=float)
    A = np.zeros(nmax + 2)
    A[1:] = 2.0 * (ab + j[1:]) / ((ab + 2.0 * j[1:] - 1.0) * (ab + 2.0 * j[1:]))
    B = np.zeros(nmax + 2)
    B[1:] = 2.0 * (alpha - beta) / ((ab + 2.0 * j[1:]) * (ab + 2.0 * j[1:] + 2.0))
    C = -2.0 * (alpha + j + 1.0) * (beta + j + 1.0) / (
        (ab + j + 1.0) * (ab + 2.0 * j + 2.0) * (ab + 2.0 * j + 3.0))
    # S_n = 2 (-1)^(n+1) (beta)_(n+1) / ((n+1)! (ab+n)); S_0 apart, as ab may be 0
    signs, poch = bases._signs(nmax + 1)[1:], bases._rising(beta, 1.0, nmax + 1)[2:]
    S = np.concatenate([[-2.0 * (beta + 1.0) / (ab + 2.0)],
                        -2.0 * signs * poch / (ab + j[1:nmax + 1])])
    Ainv = np.full(nmax + 2, np.inf)
    Ainv[1:] = (ab + 2.0 * j[1:] - 1.0) * (ab + 2.0 * j[1:]) / (2.0 * (ab + j[1:]))
    Cinv = -(ab + j + 1.0) * (ab + 2.0 * j + 2.0) * (ab + 2.0 * j + 3.0) / (
        2.0 * (alpha + j + 1.0) * (beta + j + 1.0))
    return RecurrenceTables(A, B, C, S / A[1:nmax + 2], Ainv, Cinv)


def _gegenbauer_tables(lam: float, nmax: int) -> RecurrenceTables:
    """Gegenbauer's tables, Legendre's at lam = 1/2.  shat_n is the column
    recursion's inhomogeneous term S_n = 2 (-1)^(n+1) (lam+n) (2 lam - 1)_n
    / (n+1)!: -2 lam at n = 0, and 0 for every n >= 1 at lam = 1/2."""
    j = np.arange(nmax + 2, dtype=float)
    Ainv = np.concatenate([[np.inf], 2.0 * (j[1:] - 1.0 + lam)])
    Cinv = -2.0 * (j + 1.0 + lam)
    S = -2.0 * bases._signs(nmax + 1) * (lam + j[:nmax + 1]) * bases._rising(
        2.0 * lam - 1.0, 2.0, nmax)
    return RecurrenceTables(1.0 / Ainv, np.zeros(nmax + 2), 1.0 / Cinv, S, Ainv, Cinv)


def _chebyshev_tables(nmax: int) -> RecurrenceTables:
    j = np.arange(nmax + 2, dtype=float)
    Ainv = np.concatenate([[np.inf, 1.0], 2.0 * j[2:]])   # A_1 = 1, A_j = 1/(2j)
    Cinv = np.concatenate([[-np.inf], -2.0 * j[1:]])      # C_0 = 0, C_j = -1/(2j)
    n = j[2:nmax + 1]
    shat = np.concatenate([[-1.0, 1.0], 2.0 * bases._signs(nmax + 1)[2:] / (n - 1.0)])
    return RecurrenceTables(1.0 / Ainv, np.zeros(nmax + 2), 1.0 / Cinv, shat[:nmax + 1],
                            Ainv, Cinv)


def _tables(basis: BasisSpec, nmax: int) -> RecurrenceTables:
    if basis.kind == bases.CHEBYSHEV:
        return _chebyshev_tables(nmax)
    if (lam := bases._lam(basis)) is not None:
        return _gegenbauer_tables(lam, nmax)
    if basis.kind == bases.JACOBI:
        return jacobi_tables(basis.alpha, basis.beta, nmax)
    raise UnsupportedBasisError(basis.kind)


def _finite_tables(basis: BasisSpec, M: int, N: int, nmax: int) -> RecurrenceTables:
    """_tables(basis, nmax), or BasisParameterError if an entry overflows.

    The cumulative products behind shat overflow for large lambda or beta
    (Gegenbauer(1000) at M = 10, N = 300); the build would then return
    non-finite entries.  Finite tables do not prove a finite matrix.
    """
    with np.errstate(over="ignore"):
        tables = _tables(basis, nmax)
    for name in ("A", "B", "C", "shat"):
        if not np.all(np.isfinite(getattr(tables, name))):
            raise BasisParameterError(
                f"{basis} at M={M}, N={N}: the recurrence table {name} overflows "
                "float64")
    return tables


# ---------------------------------------------------------------------------
# column 0

def _column0(a: np.ndarray, tables: RecurrenceTables, w: np.ndarray) -> np.ndarray:
    """Rows 0..M+1 of column 0: coefficients of the kernel's antiderivative,
    A_k a_{k-1} + B_k a_k + C_k a_{k+1} for k >= 1, with A_k and C_k applied
    as divisions by Ainv_k and Cinv_k, or as one division where
    Cinv_k = -Ainv_k (Chebyshev from k = 2), which saves a rounding.  Row 0
    is the boundary sum over the weights w_k = -p_k(-1), k = 0..M+1 at least."""
    M = a.size - 1
    col = np.zeros(M + 2)
    ap = np.concatenate([a, [0.0, 0.0]])
    k = slice(1, M + 2)
    lo, hi, Ainv, Cinv = ap[:M + 1], ap[2:], tables.Ainv[k], tables.Cinv[k]
    col[1:] = np.where(Cinv == -Ainv, (lo - hi) / Ainv, lo / Ainv + hi / Cinv)
    if np.any(tables.B):
        col[1:] += tables.B[k] * ap[1:M + 2]
    col[0] = math.fsum(w[1:M + 2] * col[1:])     # sum_k col[k] p_k(-1) = 0
    return col


def _column_step(tables, n, k, col, prev, col0):
    """Rows k (an int array, k >= 1) of column n+1 by the column recursion
      R_{k,n+1} = (B_k - B_n)/A_{n+1} R_{k,n} + A_k/A_{n+1} R_{k-1,n} + C_k/A_{n+1} R_{k+1,n}
                  + shat_n R_{k,0} - C_{n-1}/A_{n+1} R_{k,n-1},
    in that order, the last term from n = 1 on.  col, prev and col0 are
    columns n, n-1 and 0 by row, zero-padded through row max(k) + 1."""
    A, B, C = tables.A, tables.B, tables.C
    invA = 1.0 / A[n + 1]
    out = ((B[k] - B[n]) * invA) * col[k] + (A[k] * invA) * col[k - 1] \
        + (C[k] * invA) * col[k + 1] + tables.shat[n] * col0[k]
    if n > 0:
        out -= (C[n - 1] * invA) * prev[k]
    return out


# ---------------------------------------------------------------------------
# the stable four-phase build

def build(basis: BasisSpec, a, N: int, scale: float = 1.0) -> ConvMatrix:
    """Stable construction of the convolution matrix for any supported basis;
    it allocates top and band (as returned when N >= M+2), a few rows, and
    the scratch of region B's blocks (_mirror_blocks)."""
    a, N = vector(a, "kernel coefficient array"), size(N)
    if not math.isfinite(scale):
        raise ArgumentError(f"scale must be finite (got {scale!r})")
    if not basis.finite_interval:
        raise UnsupportedBasisError("use laguerre.build_laguerre for the half line")
    M = a.size - 1
    W = max(N, M + 2)        # internal column count (symmetry mirrors need M+2)
    Wp = W + M + 1           # widest padded column touched by the region-C sweep
    tables = _finite_tables(basis, M, N, Wp + 1)
    # shat_n = 0 for n >= 1 makes the column recursion homogeneous, so the
    # top rows vanish beyond the band (Legendre, Gegenbauer(1/2), Jacobi(a, 0))
    banded = not np.any(tables.shat[1:])

    w = -bases.values_at_minus_one(basis, M + 2)   # column 0's and 1's boundary sums
    col0 = _column0(a, tables, w)
    # entries below finfo.tiny are stored as exact zeros, since subnormals
    # slow every pass over them (apply included); when eps^2 max|col0| > tiny
    # they are below eps^2 max|R|, and tiny kernels keep exact arithmetic
    flush = np.finfo(float).eps ** 2 * np.abs(col0).max() > _TINY
    work = np.empty((2, Wp + 1))         # scratch rows, shared by the phases
    if flush:
        _flush_subnormal(col0, work[0])
    # a worker zeroes top beside region A, taking its page faults off region
    # C; a banded top stays calloc's, as region C never writes past its band.
    # Region B goes beside region C unless C is banded and its rows (M+2
    # entries) are under an eighth of B's: the worker would outlast it
    split = bases._workers(8 * ((M + 1) * (N + 1) + (2 * M + 3) * (W + 1)), 2,
                           _MIN_APPLY_BYTES) > 1
    zero = split and not banded
    beside = split and (not banded or 8 * (M + 2) >= W - M - 1)
    top = np.empty((M + 1, N + 1)) if zero else np.zeros((M + 1, N + 1))
    band = np.zeros((2 * M + 3, W + 1))  # rows >= M+1, |k-n| <= M+1, cols 0..W
    D = band[M + 1:]                     # D[d, c] = R_{c+d, c}: region A, col 0
    ends = [-2] * (M + 4)
    phases = [(np.copyto, top, 0.0)] if zero else []
    _phases(split, *phases, (_region_a, tables, M, W, col0, D, flush, work[0], ends))

    # R's rows M+1, M+2 (region C's start) by region B's formula, then B beside C
    pad = np.zeros((2, Wp + 1))
    ratios = _ratio_tables(basis, Wp, M + 1)
    _pad_rows(ratios, M, W, D, ends, flush, pad, work[0])
    mirror = _mirror_blocks(M, W, Wp, band, ends, beside)

    # region C: dense top rows swept upward by the recast recursion.  The
    # sweep includes row 0 (the k = 1 step; Chebyshev's A_1 = 1 halves it):
    # reconstructing row 0 from the boundary sum instead would amplify band
    # roundoff by the boundary weights, ~n^(2 lam - 1) for Gegenbauer.
    _phases(beside, (_mirror, ratios, M, flush, *mirror),
            (_sweep_region_c, tables, M, N, col0, D, pad, top, banded, flush, work))

    # the recast forms are singular at n = 1 for Chebyshev, so column 1's
    # top entry comes from the boundary sum over its nonzero rows 1..M+2
    if N >= 1:
        top[0, 1] = math.fsum(w[1:] * D[:, 1])
        if flush:
            _flush_subnormal(top[0, 1:2], work[0])
    for d in range(M + 1):               # region A's rows 0..M, which region
        D[d, :M + 1 - d] = 0.0           # C read from D, are in top only
    return ConvMatrix(basis, M, N, float(scale), top,
                      np.ascontiguousarray(band[:, :N + 1]))


def _phases(split, *phases):
    """Each (function, *args): the others beside the last on bases' workers,
    under bases._run_split's threading contract."""
    if split:
        bases._run_split(lambda fn, *args: fn(*args), phases)
    else:
        for fn, *args in phases:
            fn(*args)


def _region_a(tables, M, W, col0, D, flush, t, ends):
    """Region A in place, D[d, c] = R_{c+d, c}; offset d is 0 past ends[d].

    Offset d's column step reads D[d, c-1] with the multiplier
    mu_c = A_{c+d} / A_c <= 1 and otherwise only offsets d+1, d+2 and
    column 0, so for d = M+1 down to 0 it is one recurrence
    x_c = mu_c x_{c-1} + g_c, solved forward by LAPACK.  Past g's reach it
    decays, in chunks of 32 entries and then doubling, until one ends in a
    zero; ends[d] is then offset d's last nonzero column, where the next
    offsets' reach and region B's mirror stop.  g is summed one term at a
    time, in place on D's row through the scratch row t (at least W - 1
    entries), or in a longdouble copy on the main diagonal; t also takes
    |x| for the flush; ends has M+4 entries -2.
    """
    from scipy.linalg.lapack import dtbtrs
    B, shat, Ainv, Cinv = tables.B, tables.shat, tables.Ainv, tables.Cinv
    D[:, 0] = col0
    # column 1 by the column step from column 0: it feeds the boundary sum
    # for top[0, 1], which amplifies its rounding
    c0 = np.concatenate([col0, [0.0, 0.0]])
    D[:, 1] = _column_step(tables, 0, np.arange(1, M + 3), c0, None, c0)
    Ac = Ainv[2:W + 1]                    # 1 / A_c for c = 2..W at index c - 2
    AcC = Ac / Cinv[:W - 1]               # C_{c-2} / A_c, the same for every d
    negAinv = -Ainv
    has_b = np.any(B)
    ab = np.ones((2, W - 1), order="F")   # unit diagonal, then -mu_{c+1}
    for d in range(M + 1, -1, -1):
        # g_c is nonzero at most up to column hi
        hi = min(W, max(ends[d + 1] + 1, ends[d + 2] + 2, M + 1 - d, 2))
        g = D[d, 2:hi + 1]
        n = hi - 1
        # mu = 1 on the main diagonal, so no rounding of its g is ever damped:
        # there g is summed in extended precision and rounded once.  numpy
        # picks a loop by its inputs' dtypes, not out's, so the quotients
        # and the shat product take an operand in acc's dtype
        acc, u = (g, t[:n]) if d else (g.astype(np.longdouble), np.empty(n, np.longdouble))
        a_c = Ac[:n].astype(acc.dtype, copy=False)
        if d <= M and has_b:
            np.subtract(B[d + 2:d + hi + 1], B[1:hi], out=u)
            u *= a_c
            u *= D[d + 1, 1:hi]
            acc += u
        if d < M:
            np.divide(a_c, Cinv[d + 2:d + hi + 1], out=u)
            u *= D[d + 2, 1:hi]
            acc += u
            m = M - d                     # column 0 at rows c + d <= M+1
            np.multiply(shat[1:m + 1].astype(acc.dtype, copy=False), col0[d + 2:], out=u[:m])
            acc[:m] += u[:m]
            np.multiply(np.divide(a_c, Cinv[:n], out=u) if d == 0 else AcC[:n],
                        D[d + 2, :hi - 1], out=u)
            acc -= u
        if d == 0:
            g[...] = acc
        lo, step = 2, 32
        while True:
            x = D[d, lo:hi + 1]
            x[0] += (Ainv[lo] / Ainv[lo + d]) * D[d, lo - 1]
            np.divide(Ainv[lo + 1:hi + 1], negAinv[lo + d + 1:hi + d + 1],
                      out=ab[1, lo - 2:hi - 2])
            dtbtrs(ab[:, lo - 2:hi - 1], x[:, None], uplo="L", diag="U",
                   overwrite_b=1)         # in place: x is a contiguous row
            if flush:
                _flush_subnormal(x, t)
            if hi == W or x[-1] == 0.0:
                break
            lo, hi, step = hi + 1, min(W, hi + step), 2 * step
        if x[-1] == 0.0:                  # zero from here on, as g is
            nonzero = np.flatnonzero(x)
            hi = lo + nonzero[-1] if nonzero.size else lo - 1
        ends[d] = hi


def _flush_subnormal(x, t, small=None):
    """Store the entries of x below finfo.tiny in magnitude as exact zeros,
    +0.0 for -0.0 too, with |x| in the scratch t (at least x.size entries)
    and the mask in small (x.size bools), when given.

    x is written only when its least |x| is below tiny or NaN (a NaN row
    keeps its NaNs), so a row with nothing to flush costs one pass.
    """
    absx = np.abs(x, out=t[:x.size])
    if not (absx.min(initial=np.inf) >= _TINY):
        np.copyto(x, 0.0, where=np.less(absx, _TINY, out=small))


def _pad_rows(ratios, M, W, D, ends, flush, pad, t):
    """R's rows M+1 and M+2 into pad's zeros: region A's entries from D, and
    region B's as _mirror stores them, without reading them, except that past
    column W (only when N < 2M+3) every product R_{r,r+o} is kept."""
    o = np.arange(1, M + 2)
    for i, r in enumerate((M + 1, M + 2)):
        n = np.arange(r - M - 1, r + 1)
        pad[i, n] = D[r - n, n]
        x = np.multiply(_ratio(ratios, o, r), D[o, r], out=pad[i, r + 1:r + M + 2])
        m = min(M + 1, W - r)            # columns r+1..W are band's
        if flush:
            _flush_subnormal(x[:m], t)
        x[:m][r > np.asarray(ends[1:m + 1])] = 0.0


def _mirror_blocks(M, W, Wp, band, ends, beside):
    """_mirror's last arguments: source D[o, k] and destination band[M+1-o, k+o]
    as [o-1, k-M-1] views, blocks (offsets j0+1..j1, columns), each offset's
    last k-M-1 (lim), column numbers and three block buffers.

    A block is whole offsets in at most 8 padded rows (Wp+1 entries each)
    inline.  Beside region C it takes up to 64 padded rows, within 2^18
    entries where 8 padded rows fit: the worker takes the GIL about eight
    times per block, and each turn stalls one of region C's short numpy
    calls, so a few large blocks (13 at M = 1000, N = 5000, not about 70)
    hide the mirror behind C.  The buffers take 17 bytes per entry of the
    largest block: 8 padded rows' worth inline, and beside region C at most
    the larger of that and 4.25 MiB."""
    cols = W - M - 1
    s0, s1 = band.strides
    src = band[M + 2:, M + 1:W]
    dst = np.lib.stride_tricks.as_strided(band[M, M + 2:], (M + 1, cols), (s1 - s0, s1))
    lim = np.minimum(W - np.arange(1, M + 2), ends[1:M + 2])[:, None] - (M + 1)
    inline = 8 * (Wp + 1)                # most entries of an inline block
    rows = (max(inline, min(8 * inline, 1 << 18)) if beside else inline) // cols
    blocks = [(j, min(j + rows, M + 1), int(last) + 1) for j in range(0, M + 1, rows)
              if (last := lim[j:j + rows].max()) >= 0]
    size = max([(j1 - j0) * n for j0, j1, n in blocks], default=0)
    return src, dst, blocks, lim, np.arange(cols), *np.empty((2, size)), np.empty(size, bool)


def _mirror(ratios, M, flush, src, dst, blocks, lim, cols, x, t, mask):
    """Region B by whole-block products on skewed views (_mirror_blocks):
    R_{k,k+o} = ratio * R_{k+o,k}, flushed, for M+1 <= k <= lim + M+1 only
    (subdiagonal o is zero past column ends[o]).  It allocates nothing: numpy
    buffers 2-D ufunc operands with rows shorter than its buffer size."""
    bufsize = np.setbufsize(16)
    try:
        for j0, j1, n in blocks:
            size = (j1 - j0) * n
            r = x[:size].reshape(j1 - j0, n)
            _ratio(ratios, slice(j0 + 1, j1 + 1), slice(M + 1, M + 1 + n), r,
                   t[:size].reshape(r.shape))
            r *= src[j0:j1, :n]
            if flush:
                _flush_subnormal(x[:size], t, mask[:size])
            keep = np.less_equal(cols[:n], lim[j0:j1], out=mask[:size].reshape(r.shape))
            np.copyto(dst[j0:j1, :n], r, where=keep)
    finally:
        np.setbufsize(bufsize)


def _ratio_tables(basis, nmax, omax):
    """(P, Q) with R_{k,k+o} / R_{k+o,k} = P[0, k] / P[o, k] * Q[o, k] / Q[0, k]
    for o <= omax, k + o <= nmax: skewed views P[o, k] = p_{k+o}, or None.
    One table's signs alternate, which gives (-1)^o exactly.  Jacobi's q is
    one cumulative product; the raw Pochhammer quotient overflows."""
    k = np.arange(nmax + 1, dtype=float)
    sign = bases._signs(nmax + 1)
    if basis.kind == bases.CHEBYSHEV:
        p, q = None, sign * k
    elif (lam := bases._lam(basis)) is not None:
        p, q = sign * (k + lam), None
    else:
        al, be, ab = basis.alpha, basis.beta, basis.alpha + basis.beta
        f = (k + al + 1.0) * (k + be + 1.0) / (k + ab + 1.0) ** 2
        p, q = sign * (ab + 2.0 * k + 1.0), np.concatenate([[1.0], np.cumprod(f[:-1])])
    return tuple(None if v is None else
                 np.lib.stride_tricks.sliding_window_view(v, omax + 1).T for v in (p, q))


def _ratio(ratios, o, k, out=None, tmp=None):
    """R_{k,k+o} / R_{k+o,k} from _ratio_tables, for o and k that broadcast
    (ints, slices or int arrays), into out; tmp is scratch like out."""
    p, q = ratios
    if p is None:
        return np.divide(q[o, k], q[0, k], out=out)
    x = np.divide(p[0, k], p[o, k], out=out)
    if q is not None:
        x *= np.divide(q[o, k], q[0, k], out=tmp)
    return x


def _sweep_region_c(tables, M, N, col0, D, pad, top, banded, flush, work):
    """Rows M..0 of top by the recast step, for r = k-1 and n = nlo..nhi
      R_{r,n} = A_{n+1}/A_k (R_{k,n+1} - shat_n R_{k,0}) + (B_n - B_k)/A_k R_{k,n}
                + C_{n-1}/A_k R_{k,n-1} - C_k/A_k R_{k+1,n},
    in place on two scratch rows, in that order.  Rows k and k+1 live in
    pad's two rows over the padded columns, first R's rows M+1 and M+2; row
    r overwrites row k+1, takes columns 0..r from region A (R_{r,c} =
    D[r-c, c]), is flushed and copied into top.  No step reads a row past
    its nhi.  The B term is skipped where B is all zeros (every basis but
    Jacobi with alpha != beta).  work holds two scratch rows as wide as
    pad.  Column 1 of row 0 is left to the caller."""
    A, B, C, shat = tables.A, tables.B, tables.C, tables.shat
    has_b = np.any(B)
    rowk, rowk1 = pad
    for k in range(M + 1, 0, -1):
        r = k - 1
        nlo = max(k, 2)
        nhi = N + r if not banded else min(N + r, r + M + 1)
        if nhi >= nlo:
            sl = slice(nlo, nhi + 1)
            u, v = work[:, :nhi + 1 - nlo]
            invAk = 1.0 / A[k]
            np.multiply(shat[sl], col0[k], out=u)
            np.subtract(rowk[nlo + 1:nhi + 2], u, out=u)
            u *= np.multiply(A[nlo + 1:nhi + 2], invAk, out=v)
            if has_b:
                np.subtract(B[sl], B[k], out=v)
                v *= invAk
                u += np.multiply(v, rowk[sl], out=v)
            np.multiply(C[nlo - 1:nhi], invAk, out=v)
            u += np.multiply(v, rowk[nlo - 1:nhi], out=v)
            np.subtract(u, np.multiply(rowk1[sl], invAk * C[k], out=v), out=rowk1[sl])
        rowk1[:r + 1] = D[r::-1].diagonal()
        if flush:
            _flush_subnormal(rowk1[:nhi + 1], work[0])
        top[r, :min(N, nhi) + 1] = rowk1[:min(N, nhi) + 1]
        rowk, rowk1 = rowk1, rowk


def symmetry_ratio(basis: BasisSpec, n: int, k: int) -> float:
    """Factor rho with R_{n,k} = rho * R_{k,n} in the symmetric submatrix."""
    if not basis.finite_interval:
        raise UnsupportedBasisError("symmetry ratio needs a finite-interval basis")
    n, k = (size(v, "n, k", 1) for v in (n, k))
    if n == k:
        return 1.0
    lo, hi = min(n, k), max(n, k)
    rho = float(_ratio(_ratio_tables(basis, hi, hi - lo), hi - lo, lo))
    return rho if n < k else 1.0 / rho


def build_chebyshev(a, N: int, scale: float = 1.0) -> ConvMatrix:
    return build(bases.chebyshev(), a, N, scale)


def build_legendre(a, N: int, scale: float = 1.0) -> ConvMatrix:
    return build(bases.legendre(), a, N, scale)


def build_gegenbauer(a, lam: float, N: int, scale: float = 1.0) -> ConvMatrix:
    return build(bases.gegenbauer(lam), a, N, scale)


def build_jacobi(a, alpha: float, beta: float, N: int, scale: float = 1.0) -> ConvMatrix:
    return build(bases.jacobi(alpha, beta), a, N, scale)


# ---------------------------------------------------------------------------
# deliberately unstable reference construction

def build_chebyshev_naive(a, N: int) -> np.ndarray:
    """Column-by-column forward recursion only; unstable above the diagonal.

    Each column is region A's column step over all its rows, with row 0
    from the boundary sum.  Returns a dense array.  Non-finite values are
    possible by design (the multipliers (n+1)/k exceed 1 above the diagonal
    and roundoff compounds factorially); callers inspect rather than trap.
    """
    a, N = vector(a, "kernel coefficient array"), size(N)
    M = a.size - 1
    tables = _chebyshev_tables(M + N)
    R = np.zeros((M + N + 3, N + 1))       # a zero row past the last: R_{k+1,n}
    wts = -bases.values_at_minus_one(bases.chebyshev(), M + N + 1)
    R[:M + 2, 0] = _column0(a, tables, wts)
    for n in range(N):
        hi = min(M + n + 2, M + N + 1)     # column n+1's last nonzero row
        R[1:hi + 1, n + 1] = _column_step(tables, n, np.arange(1, hi + 1), R[:, n],
                                          R[:, n - 1], R[:, 0])
        R[0, n + 1] = np.dot(wts[1:hi + 1], R[1:hi + 1, n + 1])
    return R[:-1]


# ---------------------------------------------------------------------------
# application and export

def _entries(R: ConvMatrix, nrows: int, ncols: int):
    """Rows, columns and unscaled values of R's stored entries in its leading
    nrows x ncols block, yielded one top row and then one band diagonal at a
    time.  No position is yielded twice.
    """
    M = R.M
    for k in range(min(M + 1, nrows)):
        yield np.full(ncols, k), np.arange(ncols), R.top[k, :ncols]
    for o in range(-(M + 1), M + 2):    # band row o+M+1 holds R_{n+o, n}
        n = np.arange(max(0, M + 1 - o), min(ncols, nrows - o))
        if n.size:
            yield n + o, n, R.band[o + M + 1, n[0]:n[-1] + 1]


def _dense(R: ConvMatrix, nrows: int, ncols: int) -> np.ndarray:
    """Scaled leading nrows x ncols block of R as a dense array."""
    out = np.zeros((nrows, ncols))
    for rows, cols, vals in _entries(R, nrows, ncols):
        out[rows, cols] = vals
    out *= R.scale
    return out


def _column(R: ConvMatrix, n: int) -> np.ndarray:
    """Unscaled column n (rows 0..M+N+1)."""
    M, N = R.M, R.N
    out = np.zeros(M + N + 2)
    out[:M + 1] = R.top[:, n]
    klo = max(M + 1, n - (M + 1))
    out[klo:n + M + 2] = R.band[klo - n + M + 1:, n]
    return out


def apply(R: ConvMatrix, b) -> np.ndarray:
    """c = scale * (R b); touches only stored entries.

    b may be shorter than N+1 (implicitly zero-padded), never longer.  R's
    row blocks (ConvMatrix._row_blocks), one per CPU but none with less
    than _MIN_APPLY_BYTES of top and band, run under bases._run_split's
    threading contract.
    """
    x = b = rhs(b, R.N + 1)
    if b.size < R.N + 1:
        x = np.zeros(R.N + 1)
        x[:b.size] = b
    out = np.empty(R.M + R.N + 2)
    parts = bases._workers(R.top.nbytes + R.band.nbytes, R.N + 1, _MIN_APPLY_BYTES)
    bases._run_split(_apply_rows, [(R, lo, view, x, b, out)
                                   for lo, view in R._row_blocks(parts)])
    if R.scale != 1.0:
        out *= R.scale
    return out


def _apply_rows(R: ConvMatrix, lo: int, view, x: np.ndarray, b: np.ndarray,
                out: np.ndarray) -> None:
    """One row block of R b into out (unscaled), and rows 0..M with the
    first block (lo = 0), from b and x, b zero-padded to N+1 entries.  scipy
    allocates the block's product, at most N+1 floats, on the running
    thread.  Rows 0..M go through np.dot, which lets go of the GIL during
    the product where the @ operator holds it."""
    start = R.M + 1 + lo
    out[start:start + view.shape[0]] = view @ x
    if lo == 0:
        top = out[:R.M + 1]
        np.dot(R.top[:, :b.size], b, out=top)
        top += 0.0                                  # no -0.0 in rows 0..M


def to_dense(R: ConvMatrix) -> np.ndarray:
    """Dense (M+N+2) x (N+1) array with exact zeros outside the structure."""
    return _dense(R, *R.shape)
