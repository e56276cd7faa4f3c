"""Gauss quadrature rules by Newton iteration on the three-term recurrence.

Nodes start from the equioscillation-phase guesses
theta_k = pi (2k + alpha + 3/2) / (2n + alpha + beta + 1), which interlace the
true phase grid, and are polished by vectorized Newton steps with the iterate
clamped inside its phase-midpoint bracket.

Rules can optionally be refined in 80-bit extended precision
(``extended=True``): node rounding alone injects O(eps_double * w * g') noise
into integrals of violently oscillatory integrands, which is the dominant
error term at the sizes the large verification runs use, and ~1e-19 nodes
push that floor three orders down.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from . import bases
from .bases import BasisSpec
from .errors import ArgumentError, ConvergenceError, NarrowLongdoubleError

_MAX_NEWTON = 100
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
        return self.x.dtype == LD

    def as_double(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.x.astype(float), self.w.astype(float)


def _newton_step(basis: BasisSpec, alpha: float, beta: float, x: np.ndarray, n: int):
    """(p_n / p_n', p_n') at x, in x's dtype, from one forward recurrence."""
    pnm1, pn = deque(bases.forward(basis, x, n), maxlen=2)
    dt = x.dtype.type
    a, b = dt(alpha), dt(beta)
    s = 2 * dt(n) + a + b
    dp = (dt(n) * ((a - b) - s * x) * pn
          + 2 * (dt(n) + a) * (dt(n) + b) * pnm1) / (s * (1 - x * x))
    return pn / dp, dp


def _newton_nodes(basis: BasisSpec, n: int, alpha: float, beta: float) -> np.ndarray:
    k = np.arange(n)
    theta = np.pi * (2.0 * k + alpha + 1.5) / (2.0 * n + alpha + beta + 1.0)
    x = np.cos(theta)
    edges = np.empty(n + 1)
    edges[1:-1] = 0.5 * (x[1:] + x[:-1])
    edges[0], edges[-1] = 1.0, -1.0
    hi, lo = edges[:-1], edges[1:]
    for _ in range(_MAX_NEWTON):
        dx, _ = _newton_step(basis, alpha, beta, x, n)
        x = np.clip(x - dx, lo, hi)
        if np.max(np.abs(dx)) < 1e-14:
            break
    else:
        raise ConvergenceError(f"Gauss nodes failed to converge for n={n}")
    for _ in range(2):
        x = x - _newton_step(basis, alpha, beta, x, n)[0]
    return x[::-1].copy()  # ascending


def _norm_const(alpha: float, beta: float, n: int, dt=np.float64):
    """2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (n! Gamma(n+a+b+1)).

    Written as total_mass * (a+b+n+1) * prod of O(1) factors so that it stays
    accurate at large n (lgamma differences of O(n log n) magnitudes would
    cost ~n*eps relative accuracy) and finite on the a+b = -1 line.
    """
    if dt is LD:
        import mpmath as mp
        with mp.workdps(30):
            mass = dt(str(mp.mpf(2) ** (mp.mpf(alpha) + mp.mpf(beta) + 1)
                          * mp.gamma(mp.mpf(alpha) + 1) * mp.gamma(mp.mpf(beta) + 1)
                          / mp.gamma(mp.mpf(alpha) + mp.mpf(beta) + 2)))
    else:
        mass = dt(math.exp((alpha + beta + 1.0) * math.log(2.0)
                           + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                           - math.lgamma(alpha + beta + 2.0)))
    j = np.arange(n, dtype=dt)
    a, b = dt(alpha), dt(beta)
    ratio = np.prod((a + 1 + j) * (b + 1 + j) / ((j + 1) * (a + b + 2 + j)))
    return mass * (a + b + dt(n) + 1) * ratio


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
    if alpha == beta == 0.0:
        basis = bases.legendre()
    else:
        basis = bases.raw_jacobi(alpha, beta)
    if n == 1:
        dt = LD if extended else np.float64
        x0 = (dt(beta) - dt(alpha)) / (dt(alpha) + dt(beta) + 2)
        w0 = dt(math.exp((alpha + beta + 1.0) * math.log(2.0)
                         + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                         - math.lgamma(alpha + beta + 2.0)))
        return QuadRule(np.array([x0], dtype=dt), np.array([w0], dtype=dt))
    x = _newton_nodes(basis, n, alpha, beta)
    if extended:
        x = x.astype(LD)
        for _ in range(3):
            x = x - _newton_step(basis, alpha, beta, x, n)[0]
        xe = x
    else:
        # weights from an extended-precision derivative pass: the plain
        # recurrence loses ~n*eps of relative weight accuracy at large n
        xe = x.astype(LD)
    _, dp = _newton_step(basis, alpha, beta, xe, n)
    cn = _norm_const(alpha, beta, n, LD)
    w = cn / ((1 - xe * xe) * dp * dp)
    if not extended:
        w = w.astype(float)
    return QuadRule(x, w)


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
        one = z * 0 + 1
        lm1 = one.copy() if hasattr(one, "copy") else 1.0
        l = 1 - z
        e2 = 0.0 * one
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

    x = np.empty(n)
    for i in range(n):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            z = x[0] + 15.0 / (1.0 + 2.5 * n)
        else:
            ai = i - 1
            z = x[i - 1] + ((1.0 + 2.55 * ai) / (1.9 * ai)) * (x[i - 1] - x[i - 2])
        zv = np.array([z])
        for _ in range(_MAX_NEWTON):
            l, lm1, _ = pair(zv, n)
            dz = float((l * zv / (n * (l - lm1)))[0])
            zv = zv - dz
            # the extended-precision polish below finishes the job; the
            # double recurrence noise floor grows with n at the far nodes
            if abs(dz) < 1e-12 * max(1.0, float(zv[0])):
                break
        else:
            raise ConvergenceError(f"Gauss-Laguerre failed to converge for n={n}")
        x[i] = zv[0]
    # polish nodes and form weights in extended precision; the forward
    # recurrence sheds ~n*eps of relative accuracy in double
    xe = x.astype(LD)
    for _ in range(2):
        l, lm1, _ = pair(xe, n)
        xe = xe - l * xe / (n * (l - lm1))
    l, _, e2 = pair(xe, n + 1)
    # w_exp = x / ((n+1) e^{-x/2} L_{n+1})^2, assembled in the log domain
    ln_wexp = (np.log(xe) - 2.0 * (np.log(np.abs(l)) + e2 * np.log(LD(2.0))
                                   + np.log(LD(n + 1)) - xe / 2))
    w_exp = np.exp(ln_wexp).astype(float)
    x = xe.astype(float)
    w = w_exp * np.exp(-x)
    return x, w, w_exp
