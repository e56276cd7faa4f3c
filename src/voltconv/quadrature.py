"""Gauss quadrature rules from the Jacobi matrix, polished by Newton steps.

Nodes start as the eigenvalues of the symmetric tridiagonal Jacobi matrix of
the three-term recurrence (Golub & Welsch, Math. Comp. 23, 1969) and take
three vectorized longdouble Newton steps on that recurrence; weights come
from p_n' at the polished nodes.  Chebyshev rules are in closed form.

Rules can optionally be kept in 80-bit extended precision
(``extended=True``): node rounding alone injects O(eps_double * w * g') noise
into integrals of violently oscillatory integrands, which is the dominant
error term at the sizes the large verification runs use, and ~1e-19 nodes
push that floor three orders down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from . import bases
from .errors import ArgumentError, ConvergenceError, NarrowLongdoubleError

LD = np.longdouble
PI_LD = LD("3.14159265358979323846264338327950288")
# Where np.longdouble is plain double (MSVC, some ARM builds) the extended
# tier would silently run in double, so its entry points refuse instead.
EXTENDED_AVAILABLE = bool(np.finfo(LD).eps < 1e-16)


def require_extended() -> None:
    """Raise NarrowLongdoubleError unless np.longdouble is wider than float64."""
    if not EXTENDED_AVAILABLE:
        raise NarrowLongdoubleError(
            f"the extended tier needs np.longdouble wider than float64; "
            f"its eps here is {np.finfo(LD).eps:.3g}")


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights; dtype is float64 or longdouble (extended rules)."""

    x: np.ndarray
    w: np.ndarray

    @property
    def extended(self) -> bool:
        return self.x.dtype != np.float64


def _tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal (diag, off), in float64."""
    from scipy.linalg import eigvalsh_tridiagonal
    return eigvalsh_tridiagonal(diag.astype(float), off.astype(float))


def _polish(step, x: np.ndarray, failure: str) -> np.ndarray:
    """Three Newton steps x -= step(x); a non-finite step raises at once."""
    for _ in range(3):
        # quietly: a node on +-1 divides by 1 - x*x = 0
        with np.errstate(all="ignore"):
            dx = step(x)
        if not np.isfinite(dx).all():
            raise ConvergenceError(failure)
        x = x - dx
    return x


def _newton_step(tables, alpha: float, beta: float, x: np.ndarray, n: int):
    """(p_n / p_n', p_n') at x, in x's dtype, from one forward recurrence on
    the scaled tables, unscaled once at the end."""
    x2 = x + x
    q, qm1, tmp = np.ones_like(x), np.zeros_like(x), np.empty_like(x)
    for k in range(n):
        q, qm1 = bases._recurrence_step(tables, k, x2, q, qm1, qm1, tmp), q
    p, pm1 = tables[0][n] * q, tables[0][n - 1] * qm1
    dt = x.dtype.type
    a, b = dt(alpha), dt(beta)
    s = 2 * dt(n) + a + b
    dp = (dt(n) * ((a - b) - s * x) * p
          + 2 * (dt(n) + a) * (dt(n) + b) * pm1) / (s * (1 - x * x))
    return p / dp, dp


def _norm_const(alpha: float, beta: float, n: int):
    """2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (n! Gamma(n+a+b+1)), in longdouble.

    Written as total_mass * (a+b+n+1) * prod of O(1) factors so that it stays
    accurate at large n (lgamma differences of O(n log n) magnitudes would
    cost ~n*eps relative accuracy) and finite on the a+b = -1 line.
    """
    import mpmath as mp
    with mp.workdps(30):
        mass = LD(str(mp.mpf(2) ** (mp.mpf(alpha) + mp.mpf(beta) + 1)
                      * mp.gamma(mp.mpf(alpha) + 1) * mp.gamma(mp.mpf(beta) + 1)
                      / mp.gamma(mp.mpf(alpha) + mp.mpf(beta) + 2)))
    j = np.arange(n, dtype=LD)
    a, b = LD(alpha), LD(beta)
    ratio = np.prod((a + 1 + j) * (b + 1 + j) / ((j + 1) * (a + b + 2 + j)))
    return mass * (a + b + LD(n) + 1) * ratio


def _gauss_chebyshev(n: int, extended: bool) -> QuadRule:
    if extended:
        i = np.arange(n - 1, -1, -1).astype(LD)
        x = np.cos((2 * i + 1) * PI_LD / (2 * LD(n)))
        w = np.full(n, PI_LD / LD(n))
        return QuadRule(x, w)
    theta = (2.0 * np.arange(n - 1, -1, -1) + 1.0) * np.pi / (2.0 * n)
    return QuadRule(np.cos(theta), np.full(n, np.pi / n))


def gauss_jacobi(alpha: float, beta: float, n: int,
                 extended: bool = False) -> QuadRule:
    """n-point Gauss-Jacobi rule for weight (1-x)^alpha (1+x)^beta on [-1, 1].

    Exact for polynomial integrands of degree <= 2n - 1; nodes strictly inside
    (-1, 1), weights positive.
    """
    if n < 1:
        raise ArgumentError("need at least one quadrature node")
    if not (alpha > -1.0 and beta > -1.0):
        raise ArgumentError("Gauss-Jacobi needs alpha, beta > -1")
    if extended:
        require_extended()
    if alpha == beta == -0.5:
        return _gauss_chebyshev(n, extended)
    A, B, C = bases._jacobi_abc(alpha, beta, np.arange(n), LD)
    tables = bases._scaled_tables(A, B, C)
    x = _tridiagonal_eigenvalues(-B / A, np.sqrt(-C[1:] / (A[:-1] * A[1:])))
    x = _polish(lambda z: _newton_step(tables, alpha, beta, z, n)[0], x.astype(LD),
                f"Gauss-Jacobi Newton step is not finite for "
                f"alpha={alpha}, beta={beta}, n={n}")
    _, dp = _newton_step(tables, alpha, beta, x, n)
    w = _norm_const(alpha, beta, n) / ((1 - x * x) * dp * dp)
    if extended:
        return QuadRule(x, w)
    return QuadRule(x.astype(float), w.astype(float))


def gauss_legendre(n: int, extended: bool = False) -> QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    return gauss_jacobi(0.0, 0.0, n, extended=extended)


@lru_cache(maxsize=64)
def cached_gauss_legendre(n: int, extended: bool = False) -> QuadRule:
    return gauss_legendre(n, extended=extended)


@lru_cache(maxsize=64)
def cached_gauss_jacobi(alpha: float, beta: float, n: int,
                        extended: bool = False) -> QuadRule:
    return gauss_jacobi(alpha, beta, n, extended=extended)


def gauss_laguerre(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n-point Gauss-Laguerre rule for weight e^{-x} on [0, inf).

    Returns (x, w, w_exp) with w_exp = w * e^x, computed through the scaled
    functions e^{-x/2} L_k(x) so neither factor overflows at large nodes.
    """
    if n < 1:
        raise ArgumentError("need at least one quadrature node")

    def pair(z, upto):
        # renormalized plain recurrence: (L_upto, L_{upto-1}) * 2^(-e2);
        # Newton steps only use the ratio, weights re-attach the exponent
        lm1, l, e2 = np.ones_like(z), 1 - z, np.zeros_like(z)
        for k in range(1, upto):
            l, lm1 = ((2 * k + 1 - z) * l - k * lm1) / (k + 1), l
            if k % 64 == 0:
                mag = np.abs(l)
                scale = np.where(mag > 2.0**500, 2.0**-500,
                                 np.where((mag > 0) & (mag < 2.0**-500), 2.0**500, 1.0))
                l = l * scale
                lm1 = lm1 * scale
                e2 = e2 - np.log2(scale)
        return l, lm1, e2

    def step(z):
        l, lm1, _ = pair(z, n)
        return l * z / (n * (l - lm1))

    k = np.arange(n, dtype=float)
    xe = _polish(step, _tridiagonal_eigenvalues(2 * k + 1, k[1:]).astype(LD),
                 f"Gauss-Laguerre Newton step is not finite for n={n}")
    l, _, e2 = pair(xe, n + 1)
    # w_exp = x / ((n+1) e^{-x/2} L_{n+1})^2, assembled in the log domain
    ln_wexp = (np.log(xe) - 2.0 * (np.log(np.abs(l)) + e2 * np.log(LD(2.0))
                                   + np.log(LD(n + 1)) - xe / 2))
    w_exp = np.exp(ln_wexp).astype(float)
    x = xe.astype(float)
    w = w_exp * np.exp(-x)
    return x, w, w_exp
