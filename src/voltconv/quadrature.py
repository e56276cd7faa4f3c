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
from itertools import pairwise
from typing import Tuple

import numpy as np

from . import bases
from .errors import ArgumentError, ConvergenceError, NarrowLongdoubleError

LD = np.longdouble
PI_LD = LD("3.14159265358979323846264338327950288")
# Where np.longdouble is plain double (MSVC, some ARM builds) the extended
# tier would silently run in double, so its entry points refuse instead.
EXTENDED_AVAILABLE = bases._wide(LD)


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
        return bases._wide(self.x.dtype)


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


def _rescaled_last_two(tables, x: np.ndarray, n: int):
    """(q_{n-1}, q_n, e) at x, n >= 1: bases._scaled_values' last pair times 2^-e.

    Every 64 degrees the pair (the recurrence's whole state) is scaled in
    place by the power of two that brings its larger entry below 1, so it
    cannot overflow, even in float64; exactly, so its bits are the unscaled
    run's times 2^-e wherever that run stays finite and normal."""
    e = np.zeros(x.shape, dtype=np.int64)
    for k, (qm1, q) in enumerate(pairwise(bases._scaled_values(tables, x + x, n)), 1):
        if k % 64 == 0:
            f = np.frexp(np.maximum(np.abs(qm1), np.abs(q)))[1]
            scale = np.ldexp(x.dtype.type(1), -f)
            np.multiply(qm1, scale, out=qm1)
            np.multiply(q, scale, out=q)
            e += f
    return qm1, q, e


def _newton_step(tables, alpha: float, beta: float, x: np.ndarray, n: int):
    """(p_n / p_n', p_n') at x, in x's dtype, from one forward recurrence on
    the scaled tables, unscaled once at the end."""
    *_, (qm1, q) = pairwise(bases._scaled_values(tables, x + x, n))
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


def _gauss_chebyshev(n: int, dtype) -> QuadRule:
    """The closed-form rule, computed in dtype (float64 or longdouble)."""
    pi, i = dtype(PI_LD), np.arange(n - 1, -1, -1).astype(dtype)
    return QuadRule(np.cos((2 * i + 1) * pi / (2 * dtype(n))), np.full(n, pi / dtype(n)))


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
        return _gauss_chebyshev(n, LD if extended else np.float64)
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

    Returns (x, w, w_exp) with w_exp = w * e^x.  The Laguerre recurrence runs
    in longdouble, rescaled by powers of two with the exponent carried per
    node, and w_exp is assembled in the log domain, so neither L_n at the
    largest nodes nor e^x overflows.
    """
    if n < 1:
        raise ArgumentError("need at least one quadrature node")
    tables = bases._step_tables(bases.weighted_laguerre(), n + 1, LD)

    def step(z):
        lm1, l, _ = _rescaled_last_two(tables, z, n)
        return l * z / (n * (l - lm1))      # L_n / L_n', as x L_n' = n (L_n - L_{n-1})

    k = np.arange(n, dtype=float)
    xe = _polish(step, _tridiagonal_eigenvalues(2 * k + 1, k[1:]).astype(LD),
                 f"Gauss-Laguerre Newton step is not finite for n={n}")
    _, l, e = _rescaled_last_two(tables, xe, n + 1)
    # w_exp = x / ((n+1) e^{-x/2} L_{n+1})^2, L_{n+1} = l 2^e
    ln_wexp = (np.log(xe) - 2.0 * (np.log(np.abs(l)) + e * np.log(LD(2.0))
                                   + np.log(LD(n + 1)) - xe / 2))
    w_exp = np.exp(ln_wexp).astype(float)
    x = xe.astype(float)
    w = w_exp * np.exp(-x)
    return x, w, w_exp
