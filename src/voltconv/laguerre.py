"""Convolution on the half line in the weighted Laguerre basis w(x) L_n(x).

The convolution of two basis functions telescopes to a difference of
neighbours, L_m * L_n = L_{m+n} - L_{m+n+1}, so the convolution matrix is
the difference of two stacked lower-triangular Toeplitz matrices and never
needs to be formed: applying it is a discrete convolution followed by a
first difference.

Weight convention: this package expands f(x) = w(x) sum a_m L_m(x) with
w(x) = e^{-x}.  Any exponential weight shared by both factors telescopes the
same way; the decisive fixture is that x^2 e^{-x} / 2 is exactly degree 2 in
this convention, matching the degrees the verification suite pins down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import bases, quadrature
from .errors import ArgumentError, DimensionError, RangeOverflowError, rhs, size, vector
from .series import PolySeries, _samples

FFT_THRESHOLD = 1 << 16   # direct convolution below (M+1)*(len b)


@dataclass(frozen=True)
class LaguerreConvMatrix:
    """Implicit Toeplitz-difference convolution matrix; stores the kernel only.

    Logical shape (M+N+2) x (N+1), entry (k, n) = a_{k-n} - a_{k-n-1} with
    a_j := 0 outside 0..M.  ``_kernel_rfft`` holds the kernel's transform
    for each FFT length that apply_laguerre has used: a power of two up to
    twice M+N+1, so at most about log2(M+N) of them.
    """

    a: np.ndarray = field(repr=False)
    N: int

    @property
    def M(self) -> int:
        return self.a.size - 1

    @property
    def shape(self):
        return (self.M + self.N + 2, self.N + 1)

    @functools.cached_property
    def _kernel_rfft(self) -> dict:
        return {}

    def entry(self, k: int, n: int) -> float:
        M = self.M
        if not (0 <= k <= M + self.N + 1 and 0 <= n <= self.N):
            raise DimensionError(f"index ({k}, {n}) outside {self.shape}")
        d = k - n
        hi = self.a[d] if 0 <= d <= M else 0.0
        lo = self.a[d - 1] if 0 <= d - 1 <= M else 0.0
        return hi - lo


def build_laguerre(a, N: int) -> LaguerreConvMatrix:
    """Implicit convolution matrix for the kernel coefficient vector a."""
    a, N = vector(a, "kernel coefficient array"), size(N)
    a.setflags(write=False)
    return LaguerreConvMatrix(a, N)


def to_dense_laguerre(R: LaguerreConvMatrix) -> np.ndarray:
    rows, cols = R.shape
    d = np.arange(rows)[:, None] - np.arange(cols)[None, :]
    c = np.diff(R.a, prepend=0.0, append=0.0)     # a_d - a_{d-1}, d = 0..M+1
    return np.where((d >= 0) & (d <= R.M + 1), c[np.clip(d, 0, R.M + 1)], 0.0)


def apply_laguerre(R: LaguerreConvMatrix, b) -> np.ndarray:
    """c with c_k = s_k - s_{k-1}, s the full discrete convolution of a and b.

    Uses direct summation at small sizes and a padded FFT beyond
    FFT_THRESHOLD; the two paths agree to ~1e-13 elementwise.  The FFT path
    transforms the kernel once per FFT length (R._kernel_rfft).
    """
    b = rhs(b, R.N + 1)
    if b.size == 0:
        raise ArgumentError("b must be nonempty")
    a = R.a
    if (a.size * b.size) <= FFT_THRESHOLD:
        s = np.convolve(a, b)
    else:
        L = a.size + b.size - 1
        nfft = 1 << (L - 1).bit_length()
        fa = R._kernel_rfft.get(nfft)
        if fa is None:
            fa = R._kernel_rfft[nfft] = np.fft.rfft(a, nfft)
            fa.setflags(write=False)
        fb = np.fft.rfft(b, nfft)
        fb *= fa
        s = np.fft.irfft(fb, nfft)[:L]
    c = np.empty(s.size + 1)
    c[0] = s[0]
    c[1:-1] = s[1:] - s[:-1]
    c[-1] = -s[-1]
    return c


def fit_laguerre(f, degree: int) -> PolySeries:
    """Weighted-Laguerre coefficients of a decaying function by quadrature.

    a_m = integral of f(x) L_m(x) dx, evaluated with a 2*degree + 8 point
    Gauss-Laguerre rule on the weight-stripped integrand.  The rule is exact
    only for polynomial-decay products, so fitting quality for slowly
    decaying f is the caller's concern.  The Vandermonde is float64, and
    from degree 244 L_m overflows at the rule's largest nodes: that raises
    RangeOverflowError.
    """
    degree = size(degree, "degree")
    npts = 2 * degree + 8
    x, _, w_exp = quadrature.gauss_laguerre(npts)
    F = _samples(f, x) * w_exp
    try:
        with np.errstate(over="raise", invalid="raise"):
            V = bases.poly_vandermonde(bases.weighted_laguerre(), x, degree)
    except FloatingPointError:
        raise RangeOverflowError(
            f"fit_laguerre at degree {degree}: the Laguerre functions overflow "
            f"float64 at the {npts}-point rule's largest nodes") from None
    coeffs = V.T @ F
    return PolySeries(bases.weighted_laguerre(), (0.0, np.inf), coeffs)
