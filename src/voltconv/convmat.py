"""Stable construction of Volterra convolution matrices.

The matrix R maps coefficients of g to coefficients of h = integral of
f(x-t) g(t) dt (left-sided, canonical interval), in a fixed basis.  R is
almost banded: rows 0..M are dense, rows M+1..M+N+1 carry a band of M+1
sub- and M+1 superdiagonals.  Construction is region-wise per column /
diagonal / row:

  column 0        antiderivative coefficients of the kernel
  region A        main diagonal and M+1 subdiagonals, forward column
                  recursion (stable: error multipliers <= 1 there)
  region B        superdiagonal band, mirrored from region A through the
                  rescaling symmetry of the (N-M) x (N-M) inner submatrix
  region C        dense top rows including row 0, recast recursion swept
                  upward row by row over padded columns up to N+M+1 so each
                  row's domain of dependence is complete; it starts from
                  the dense rows M+1 and M+2, which region B extends past
                  the band into the padded columns; only column 1's top
                  entry comes from the endpoint boundary sum (the recast
                  forms are singular at n = 1 for Chebyshev)

Regions A and C read one RecurrenceTables per basis (Chebyshev's region A
keeps its exact multipliers c/k).  Every reader of the packed storage
lives in this module.

The naive single-recursion builder is kept for error-growth studies; above
the main diagonal its multipliers exceed 1 and roundoff snowballs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bases
from .bases import BasisSpec
from .errors import (ArgumentError, DegenerateParameterError, DimensionError,
                     UnsupportedBasisError)
from .series import indefinite_integral_cheb

__all__ = [
    "ConvMatrix", "RecurrenceTables", "build_chebyshev", "build_legendre",
    "build_gegenbauer", "build_jacobi", "build", "build_chebyshev_naive",
    "jacobi_tables", "symmetry_ratio", "apply", "to_dense",
]


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
    """Coefficient arrays of the integration recurrence behind a build.

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
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    shat: np.ndarray


def jacobi_tables(alpha: float, beta: float, nmax: int) -> RecurrenceTables:
    """Tables A_1..A_{nmax+1}, B_0..B_{nmax+1}, C_0..C_{nmax+1}, shat_0..shat_{nmax}."""
    ab = alpha + beta
    if abs(ab + 1.0) <= bases.DEGENERATE_TOL:
        raise DegenerateParameterError(
            "alpha + beta = -1 zeroes the A_1 denominator; this line is not "
            "supported (use the Chebyshev or Gegenbauer builders)")
    bases.jacobi(alpha, beta)  # remaining parameter validation
    if nmax < 0:
        raise ArgumentError("nmax must be >= 0")
    for name, vals in (("A", ab + 2.0 * np.arange(1, nmax + 2) - 1.0),
                       ("S", ab + np.arange(1, nmax + 1))):
        bad = np.abs(vals) < bases.DEGENERATE_TOL
        if np.any(bad):
            raise DegenerateParameterError(
                f"zero denominator in {name} table for alpha+beta={ab}")
    j = np.arange(nmax + 2, dtype=float)
    A = np.zeros(nmax + 2)
    A[1:] = 2.0 * (ab + j[1:]) / ((ab + 2.0 * j[1:] - 1.0) * (ab + 2.0 * j[1:]))
    B = np.zeros(nmax + 2)
    B[1:] = 2.0 * (alpha - beta) / ((ab + 2.0 * j[1:]) * (ab + 2.0 * j[1:] + 2.0))
    C = -2.0 * (alpha + j + 1.0) * (beta + j + 1.0) / (
        (ab + j + 1.0) * (ab + 2.0 * j + 2.0) * (ab + 2.0 * j + 3.0))
    S = np.zeros(nmax + 1)
    S[0] = -2.0 * (beta + 1.0) / (ab + 2.0)
    if nmax >= 1:
        i = np.arange(1, nmax + 1, dtype=float)
        poch = np.cumprod((beta + np.arange(nmax + 1, dtype=float))
                          / (np.arange(nmax + 1, dtype=float) + 1.0))
        signs = np.where(np.arange(1, nmax + 1) % 2 == 1, 1.0, -1.0)
        S[1:] = 2.0 * signs * poch[1:] / (ab + i)
    return RecurrenceTables(A, B, C, S / A[1:nmax + 2])


def _gegenbauer_tables(lam: float, nmax: int) -> RecurrenceTables:
    j = np.arange(nmax + 2, dtype=float)
    A = np.zeros(nmax + 2)
    A[1:] = 1.0 / (2.0 * (j[1:] - 1.0 + lam))
    C = -1.0 / (2.0 * (j + 1.0 + lam))
    return RecurrenceTables(A, np.zeros(nmax + 2), C,
                            bases.gegenbauer_S_array(lam, nmax))


def _chebyshev_tables(nmax: int) -> RecurrenceTables:
    j = np.arange(nmax + 2, dtype=float)
    A = np.concatenate([[0.0, 1.0], 0.5 / j[2:]])     # A_1 = 1, A_j = 1/(2j)
    C = np.concatenate([[0.0], -0.5 / j[1:]])         # C_0 = 0, C_j = -1/(2j)
    n = j[2:nmax + 1]
    shat = np.concatenate([[-1.0, 1.0], np.where(n % 2 == 0, 2.0, -2.0) / (n - 1.0)])
    return RecurrenceTables(A, np.zeros(nmax + 2), C, shat[:nmax + 1])


def _tables(basis: BasisSpec, nmax: int) -> RecurrenceTables:
    if basis.kind == bases.CHEBYSHEV:
        return _chebyshev_tables(nmax)
    if basis.kind == bases.LEGENDRE:
        return _gegenbauer_tables(0.5, nmax)
    if basis.kind == bases.GEGENBAUER:
        return _gegenbauer_tables(basis.lam, nmax)
    if basis.kind == bases.JACOBI:
        return jacobi_tables(basis.alpha, basis.beta, nmax)
    raise UnsupportedBasisError(basis.kind)


# ---------------------------------------------------------------------------
# column 0

def _column0(basis: BasisSpec, a: np.ndarray,
             tables: Optional[RecurrenceTables]) -> np.ndarray:
    """Rows 0..M+1 of column 0: coefficients of the kernel's antiderivative."""
    if basis.kind == bases.CHEBYSHEV:
        return indefinite_integral_cheb(a)
    M = a.size - 1
    col = np.zeros(M + 2)
    ap = np.concatenate([a, [0.0, 0.0]])
    k = np.arange(1, M + 2)
    if basis.kind == bases.GEGENBAUER or basis.kind == bases.LEGENDRE:
        lam = 0.5 if basis.kind == bases.LEGENDRE else basis.lam
        col[1:] = ap[k - 1] / (2.0 * (k + lam - 1.0)) - ap[k + 1] / (2.0 * (k + lam + 1.0))
    else:  # Jacobi
        col[1:] = tables.A[k] * ap[k - 1] + tables.B[k] * ap[k] + tables.C[k] * ap[k + 1]
    w = bases.boundary_weights(basis, M + 1)
    col[0] = math.fsum(w[1:] * col[1:])
    return col


# ---------------------------------------------------------------------------
# the stable four-phase build

def _kernel_and_size(a, N):
    """The kernel as a finite, nonempty 1-D float array, and N as an int >= 0."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DimensionError(f"kernel coefficient array must be 1-D (got shape {a.shape})")
    if a.size == 0:
        raise ArgumentError("kernel coefficient array must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ArgumentError("kernel coefficients must be finite")
    return a, _size(N)


def _size(N, name: str = "N") -> int:
    """N as an int >= 0; bools and non-integral numbers are rejected."""
    if isinstance(N, (bool, np.bool_)) or not isinstance(N, numbers.Integral):
        raise ArgumentError(f"{name} must be an integer (got {N!r})")
    if N < 0:
        raise ArgumentError(f"{name} must be >= 0")
    return int(N)


def build(basis: BasisSpec, a, N: int, scale: float = 1.0) -> ConvMatrix:
    """Stable construction of the convolution matrix for any supported basis."""
    a, N = _kernel_and_size(a, N)
    if not math.isfinite(scale):
        raise ArgumentError(f"scale must be finite (got {scale!r})")
    if not basis.finite_interval:
        raise UnsupportedBasisError("use laguerre.build_laguerre for the half line")
    M = a.size - 1
    W = max(N, M + 2)        # internal column count (symmetry mirrors need M+2)
    Wp = W + M + 1           # widest padded column touched by the region-C sweep
    tables = _tables(basis, Wp + 1)
    A, B, C, shat = tables.A, tables.B, tables.C, tables.shat
    # shat_n = 0 for n >= 1 makes the column recursion homogeneous, so the
    # top rows vanish beyond the band (Legendre, Gegenbauer(1/2), Jacobi(a, 0))
    banded = not np.any(shat[1:])

    col0 = _column0(basis, a, tables)
    # rows 0..M+2 over the padded columns: rows M+1 and M+2 repeat the band's
    # and extend it past column W for region C; only rows 0..M are returned
    top = np.zeros((M + 3, Wp + 1))
    band = np.zeros((2 * M + 3, W + 1))  # rows >= M+1, |k-n| <= M+1, cols 0..W
    top[:M + 1, 0] = col0[:M + 1]
    band[2 * M + 2, 0] = col0[M + 1]   # row M+1, column 0 (offset M+1)

    # region A: columns 1..W, rows c..c+M+1, forward recursion.  Each column's
    # rows c-1..c+M sit in a local vector followed by two zeros, so the
    # k-1, k, k+1 and shift-by-2 neighbours are plain slices of it.
    c0p = np.zeros(W + M + 2)            # column 0, zero-padded
    c0p[:M + 2] = col0
    kf = np.arange(W + M + 2, dtype=float)
    prev2 = np.zeros(M + 4)  # rows c-2 .. c+M-1 of column c-2, then two zeros
    prev = np.zeros(M + 4)   # rows c-1 .. c+M   of column c-1, then two zeros
    prev[:M + 2] = col0
    for c in range(1, W + 1):
        km1, curk, kp1 = prev[:M + 2], prev[1:M + 3], prev[2:]
        sh2 = prev2[2:]                             # rows c..c+M+1 of column c-2
        k = slice(c, c + M + 2)
        c0s = c0p[k]
        if basis.kind == bases.CHEBYSHEV:
            # multipliers like c/k rounded once: A_k * (1/A_c) is less accurate
            k = kf[c:c + M + 2]
            if c == 1:
                km1 = km1.copy()
                km1[0] *= 2.0                       # term doubled when k = 1
                cur = -c0s + (km1 - kp1) / (2.0 * k)
            elif c == 2:
                cur = c0s + (2.0 / k) * (km1 - kp1)
            else:
                cur = shat[c - 1] * c0s \
                    + (c / (c - 2.0)) * sh2 \
                    + (c / k) * (km1 - kp1)
        else:
            invAc = 1.0 / A[c]
            cur = ((B[k] - B[c - 1]) * invAc) * curk \
                + (A[k] * invAc) * km1 \
                + (C[k] * invAc) * kp1 \
                + shat[c - 1] * c0s
            if c >= 2:
                cur = cur - (C[c - 2] * invAc) * sh2
        if c <= M:
            top[c:M + 1, c] = cur[:M + 1 - c]
        lo = max(c, M + 1)
        band[lo - c + M + 1:, c] = cur[lo - c:]
        prev2[:M + 2] = cur       # the buffer of column c-2 now holds column c
        prev2, prev = prev, prev2

    # region B: superdiagonal band by symmetry, then the dense rows M+1, M+2
    _fill_region_b(basis, M, W, Wp, band, top[M + 1:])

    # region C: dense top rows swept upward by the recast recursion.  The
    # sweep includes row 0 (the k = 1 step; Chebyshev's A_1 = 1 halves it):
    # reconstructing row 0 from the boundary sum instead would amplify band
    # roundoff by the boundary weights, ~n^(2 lam - 1) for Gegenbauer.
    _sweep_region_c(tables, M, N, col0, top, banded)

    # the recast forms are singular at n = 1 for Chebyshev, so column 1's
    # top entry comes from the boundary sum over its nonzero rows 1..M+2
    if N >= 1:
        wts = bases.boundary_weights(basis, M + 2)
        top[0, 1] = math.fsum(wts[1:] * top[1:, 1])

    return ConvMatrix(basis, M, N, float(scale),
                      np.ascontiguousarray(top[:M + 1, :N + 1]),
                      np.ascontiguousarray(band[:, :N + 1]))


def _fill_region_b(basis, M, W, Wp, band, pad):
    """Mirror the superdiagonal band, then fill pad with R's rows M+1, M+2."""
    ratio = _ratio_factors(basis, Wp)
    for o in range(1, M + 2):                  # superdiagonal offset n - k
        klo, khi = M + 1, W - o
        if khi >= klo:
            mirror = band[o + M + 1, klo:khi + 1]          # R_{k+o, k}
            rho = ratio(klo, khi, o)
            band[M + 1 - o, klo + o:khi + o + 1] = rho * mirror
    for i, r in enumerate((M + 1, M + 2)):
        n = np.arange(r - M - 1, min(W, r + M + 1) + 1)
        pad[i, n] = band[r - n + M + 1, n]
        for c in range(W + 1, r + M + 2):     # W >= M+2, so only when N < 2M+3
            mirror = band[c - r + M + 1, r]                # R_{c, r}
            pad[i, c] = ratio(r, r, c - r)[0] * mirror


def _ratio_factors(basis, nmax):
    """Closure giving R_{k,k+o} / R_{k+o,k} for k = klo..khi, k + o <= nmax.

    Jacobi uses the cancellation-matched product form over one cumulative
    product table; the raw Pochhammer quotient overflows for large indices.
    """
    kfull = np.arange(nmax + 1, dtype=float)
    if basis.kind == bases.CHEBYSHEV:
        def fac(klo, khi, o):
            k = kfull[klo:khi + 1]
            sgn = 1.0 if o % 2 == 0 else -1.0
            return sgn * (k + o) / k
        return fac
    if basis.kind in (bases.LEGENDRE, bases.GEGENBAUER):
        lam = 0.5 if basis.kind == bases.LEGENDRE else basis.lam
        kl = kfull + lam

        def fac(klo, khi, o):
            sgn = 1.0 if o % 2 == 0 else -1.0
            return sgn * kl[klo:khi + 1] / kl[klo + o:khi + o + 1]
        return fac
    al, be = basis.alpha, basis.beta
    ab = al + be
    f = (kfull + al + 1.0) * (kfull + be + 1.0) / (kfull + ab + 1.0) ** 2
    F = np.concatenate([[1.0], np.cumprod(f)])
    sig = ab + 2.0 * kfull + 1.0

    def fac(klo, khi, o):
        sgn = 1.0 if o % 2 == 0 else -1.0
        prods = F[klo + o:khi + o + 1] / F[klo:khi + 1]
        return sgn * sig[klo:khi + 1] / sig[klo + o:khi + o + 1] * prods
    return fac


def _sweep_region_c(tables, M, N, col0, top, banded):
    A, B, C, shat = tables.A, tables.B, tables.C, tables.shat
    for k in range(M + 1, 0, -1):
        r = k - 1
        nlo = max(k, 2)         # column 1 of row 0 is handled separately
        nhi = N + r if not banded else min(N + r, r + M + 1)
        if nhi < nlo:
            continue
        sl = slice(nlo, nhi + 1)
        slm = slice(nlo - 1, nhi)
        slp = slice(nlo + 1, nhi + 2)
        rowk, rowk1 = top[k], top[k + 1]
        rk0 = col0[k] if k <= M + 1 else 0.0
        invAk = 1.0 / A[k]
        rhoA = invAk * A[nlo + 1:nhi + 2]
        top[r, sl] = rhoA * (rowk[slp] - shat[sl] * rk0) \
            + (invAk * (B[sl] - B[k])) * rowk[sl] \
            + (invAk * C[nlo - 1:nhi]) * rowk[slm] \
            - (invAk * C[k]) * rowk1[sl]


def symmetry_ratio(basis: BasisSpec, n: int, k: int) -> float:
    """Factor rho with R_{n,k} = rho * R_{k,n} in the symmetric submatrix."""
    if not basis.finite_interval:
        raise UnsupportedBasisError("symmetry ratio needs a finite-interval basis")
    if basis.kind == bases.CHEBYSHEV and n == 0:
        raise ArgumentError("Chebyshev symmetry ratio needs n >= 1")
    if n < 1 or k < 1:
        raise ArgumentError("symmetry ratio needs n, k >= 1")
    if n == k:
        return 1.0
    lo, hi = min(n, k), max(n, k)
    rho = float(_ratio_factors(basis, hi)(lo, lo, hi - lo)[0])
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

    Returns a dense array.  Non-finite values are possible by design (the
    multipliers (n+1)/k exceed 1 above the diagonal and roundoff compounds
    factorially); callers inspect rather than trap.
    """
    a, N = _kernel_and_size(a, N)
    M = a.size - 1
    R = np.zeros((M + N + 2, N + 1))
    col0 = _column0(bases.chebyshev(), a, None)
    R[:M + 2, 0] = col0
    wts = bases.boundary_weights(bases.chebyshev(), M + N + 2)
    for c in range(1, N + 1):
        hi = min(M + c + 1, M + N + 1)
        k = np.arange(1, hi + 1, dtype=float)
        km1 = R[0:hi, c - 1].copy()
        km1[0] *= 2.0                               # doubled when k = 1
        kp1 = np.zeros(hi)
        take = min(hi + 2, M + N + 2) - 2
        kp1[:take] = R[2:2 + take, c - 1]
        c0s = np.zeros(hi)
        m = min(M + 1, hi)
        c0s[:m] = col0[1:m + 1]
        if c == 1:
            R[1:hi + 1, 1] = -c0s + (km1 - kp1) / (2.0 * k)
        elif c == 2:
            R[1:hi + 1, 2] = c0s + (2.0 / k) * (km1 - kp1)
        else:
            n = c - 1.0
            R[1:hi + 1, c] = (2.0 * (-1.0) ** (c - 1) / (n - 1.0)) * c0s \
                + (c / (n - 1.0)) * R[1:hi + 1, c - 2] \
                + (c / k) * (km1 - kp1)
        R[0, c] = np.dot(wts[1:hi + 1], R[1:hi + 1, c])
    return R


# ---------------------------------------------------------------------------
# application and export

def _diagonals(M: int, nrows: int, ncols: int):
    """(o, nlo, nhi) per band row o+M+1 with entries R_{n+o, n} in the block.

    The block is rows M+1..nrows-1 and columns 0..ncols-1; n runs nlo..nhi.
    """
    for o in range(-(M + 1), M + 2):
        nlo = max(0, M + 1 - o)
        nhi = min(ncols - 1, nrows - 1 - o)
        if nlo <= nhi:
            yield o, nlo, nhi


def _entries(R: ConvMatrix, nrows: int, ncols: int):
    """Rows, columns and unscaled values of R's stored entries in its leading
    nrows x ncols block, yielded one top row and then one band diagonal at a
    time.  No position is yielded twice.
    """
    M = R.M
    for k in range(min(M + 1, nrows)):
        yield np.full(ncols, k), np.arange(ncols), R.top[k, :ncols]
    for o, nlo, nhi in _diagonals(M, nrows, ncols):
        n = np.arange(nlo, nhi + 1)
        yield n + o, n, R.band[o + M + 1, nlo:nhi + 1]


def _dense(R: ConvMatrix, nrows: int, ncols: int) -> np.ndarray:
    """Scaled leading nrows x ncols block of R as a dense array."""
    out = np.zeros((nrows, ncols))
    for rows, cols, vals in _entries(R, nrows, ncols):
        out[rows, cols] = vals
    out *= R.scale
    return out


def _column(R: ConvMatrix, n: int, dtype=float) -> np.ndarray:
    """Unscaled column n (rows 0..M+N+1) in the given dtype."""
    M, N = R.M, R.N
    out = np.zeros(M + N + 2, dtype=dtype)
    out[:M + 1] = R.top[:, n]
    klo = max(M + 1, n - (M + 1))
    out[klo:n + M + 2] = R.band[klo - n + M + 1:, n]
    return out


def apply(R: ConvMatrix, b) -> np.ndarray:
    """c = scale * (R b); touches only stored entries.

    b may be shorter than N+1 (implicitly zero-padded), never longer.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise DimensionError("b must be a vector")
    if b.size > R.N + 1:
        raise DimensionError(f"b has {b.size} entries; at most {R.N + 1} allowed")
    M, N = R.M, R.N
    out = np.zeros(M + N + 2)
    out[:M + 1] = R.top[:, :b.size] @ b
    for o, nlo, nhi in _diagonals(M, M + N + 2, b.size):
        out[nlo + o:nhi + o + 1] += R.band[o + M + 1, nlo:nhi + 1] * b[nlo:nhi + 1]
    return R.scale * out


def to_dense(R: ConvMatrix) -> np.ndarray:
    """Dense (M+N+2) x (N+1) array with exact zeros outside the structure."""
    return _dense(R, *R.shape)
