"""Cheap output checks for the benchmark's timed calls.

Every check is independent of the code path it checks: endpoint values come
from closed forms evaluated with ``scipy.special.gammaln``, matrix entries
are read one at a time through ``ConvMatrix.entry``, the renewal solution is
compared with its closed form through ``numpy.polynomial.chebyshev``, and
Laguerre outputs with a direct sum.  A check returns None when the output
passes and a short message when it does not.

Oracle tolerances are the acceptance criteria's: C1 (1e-14 entrywise) for
the Chebyshev and Legendre bases, C4 (1e-12 entrywise, 1e-9 sampled) for
Gegenbauer and Jacobi, and C3 (1e-13 sampled) for Chebyshev and Legendre.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from scipy.special import gammaln

# Boundary identity sum_k c_k p_k(-1) = 0, see _boundary_error.
BOUNDARY_RTOL = 64 * np.finfo(float).eps
# Relative error of one output entry recomputed from single matrix entries.
ENTRY_RTOL = 1e-12
RENEWAL_TOL = 1e-13          # C7
CLI_RESIDUAL_TOL = 1e-12
ENTRYWISE_TOL = {"Chebyshev": 1e-14, "Legendre": 1e-14,
                 "Gegenbauer": 1e-12, "Jacobi": 1e-12}
SAMPLED_TOL = {"Chebyshev": 1e-13, "Legendre": 1e-13,
               "Gegenbauer": 1e-9, "Jacobi": 1e-9}


def minus_one_values(basis, n: int) -> np.ndarray:
    """p_k(-1) for k = 0..n-1 from the closed forms (-1)^k (s)_k / k!."""
    k = np.arange(n, dtype=float)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if basis.kind in ("Chebyshev", "Legendre"):
        return sign
    s = 2.0 * basis.lam if basis.kind == "Gegenbauer" else basis.beta + 1.0
    return sign * np.exp(gammaln(k + s) - gammaln(s) - gammaln(k + 1.0))


def renewal_solution(x):
    """Closed-form u of u = f + f*u for f(x) = x^2 e^(-x) / 2 (C6/C7)."""
    r = math.sqrt(3.0) / 2.0
    return 1.0 / 3.0 - (np.cos(r * x) + math.sqrt(3.0) * np.sin(r * x)) \
        * np.exp(-1.5 * x) / 3.0


def _boundary_error(c, w, floor: float) -> str | None:
    """None if sum_k c_k w_k vanishes to BOUNDARY_RTOL times two scales.

    Rounding enters twice.  The column recursion accumulates it additively
    over the columns, so the first scale is sum_k |c_k w_k| per row (the
    stable builds measure at most 5 eps per row at the benchmark's sizes).
    Every column also carries the rounding of column 0, the kernel's
    antiderivative, at the entry scale ``floor``, which is what remains
    once a column's own entries have decayed.
    """
    terms = np.asarray(c, dtype=float) * w[:len(c)]
    res = abs(float(terms.sum()))
    if res <= BOUNDARY_RTOL * (len(w) * float(np.abs(terms).sum()) + floor):
        return None
    return f"boundary residual {res:.2e}"


def _column(R, n: int) -> np.ndarray:
    rows = min(R.M + n + 2, R.M + R.N + 2)
    return np.array([R.entry(k, n) for k in range(rows)])


def _floor(R, w) -> float:
    """Entry scale of the boundary sum: sum_k |R_k0 p_k(-1)| over column 0."""
    c0 = _column(R, 0)
    return float(np.abs(c0 * w[:len(c0)]).sum())


def _finite_arrays(obj) -> bool:
    return all(np.isfinite(v).all() for v in vars(obj).values()
               if isinstance(v, np.ndarray))


def build(R, M: int, N: int, w: np.ndarray, columns) -> str | None:
    """Shape, finiteness, and the boundary identity on sampled columns."""
    if (R.M, R.N) != (M, N) or tuple(R.shape) != (M + N + 2, N + 1):
        return f"shape {R.shape} for M={M}, N={N}"
    if not _finite_arrays(R):
        return "non-finite stored entry"
    floor = _floor(R, w)
    for n in columns:
        msg = _boundary_error(_column(R, n), w, floor)
        if msg:
            return f"{msg} in column {n}"
    return None


def apply(R, b: np.ndarray, c: np.ndarray, w: np.ndarray, k: int) -> str | None:
    """Length, finiteness, boundary identity, and row k recomputed."""
    M, N = R.M, R.N
    if c.shape != (M + N + 2,) or not np.isfinite(c).all():
        return f"output shape {c.shape} or non-finite"
    msg = _boundary_error(c, w, _floor(R, w) * float(np.abs(b).sum()))
    if msg:
        return msg
    n = range(max(0, k - M - 1), min(b.size - 1, k + M + 1) + 1)
    terms = np.array([R.entry(k, j) * b[j] for j in n])
    want = math.fsum(terms)
    if not abs(c[k] - want) <= ENTRY_RTOL * max(np.abs(terms).sum(), 1e-300):
        return f"row {k}: {c[k]!r} != {want!r}"
    return None


def apply_laguerre(a: np.ndarray, b: np.ndarray, c: np.ndarray, k: int) -> str | None:
    """c_k = s_k - s_(k-1) for s = a conv b, recomputed by direct sums."""
    if c.shape != (a.size + b.size,) or not np.isfinite(c).all():
        return f"output shape {c.shape} or non-finite"
    if not abs(math.fsum(c)) <= ENTRY_RTOL * np.abs(c).sum():
        return "coefficients do not sum to zero (h(0) != 0)"

    def s(j):
        i = np.arange(max(0, j - b.size + 1), min(j, a.size - 1) + 1)
        return a[i] * b[j - i] if 0 <= j < a.size + b.size - 1 else np.zeros(0)

    hi, lo = s(k), s(k - 1)
    want = math.fsum(hi) - math.fsum(lo)
    scale = np.abs(hi).sum() + np.abs(lo).sum()
    if not abs(c[k] - want) <= ENTRY_RTOL * max(scale, 1e-300):
        return f"entry {k}: {c[k]!r} != {want!r}"
    return None


def renewal(coeffs, domain, N: int) -> str | None:
    """Degree-N solution against the closed form at 64 points of [0, 2]."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (N + 1,) or not np.isfinite(coeffs).all():
        return f"solution coefficients shape {coeffs.shape} or non-finite"
    a, b = domain
    x = np.linspace(a, b, 64)
    err = np.max(np.abs(npcheb.chebval((2 * x - a - b) / (b - a), coeffs)
                        - renewal_solution(x)))
    if not err <= RENEWAL_TOL:
        return f"renewal error {err:.2e}"
    return None


def oracle_block(cols: np.ndarray, M: int, N: int) -> str | None:
    if cols.shape != (M + N + 2, N + 1) or not np.isfinite(cols).all():
        return f"oracle block shape {cols.shape} or non-finite"
    return None


def report(rep, tol: float) -> str | None:
    """Entrywise error report within the acceptance tolerance."""
    grid = np.asarray(rep.grid)
    if not np.isfinite(grid).all() or rep.max_abs != grid.max():
        return "error grid non-finite or max_abs inconsistent"
    if not rep.max_abs <= tol:
        return f"max_abs {rep.max_abs:.2e} > {tol:.0e}"
    return None


def sampled(rep, R, w: np.ndarray, n_samples: int, tol: float) -> str | None:
    """Sampled value errors within the acceptance tolerance.

    At y = -1 the convolution value is exactly 0, so the oracle's error,
    relative to max(1, |value|), is the absolute boundary residual of the
    sampled column, which grows with p_k(-1) in the Gegenbauer and Jacobi
    bases however accurate the entries are.  Those samples are judged by the
    relative boundary residual instead.
    """
    errs = np.asarray(rep.grid)
    if errs.shape != (n_samples,) or not np.isfinite(errs).all():
        return f"sampled errors shape {errs.shape} or non-finite"
    cols, ys = rep.meta["columns"], rep.meta["y"]
    for i in np.nonzero(errs > tol)[0]:
        if ys[i] != -1.0:
            return f"sample {i} (column {cols[i]}, y={ys[i]!r}) error {errs[i]:.2e}"
        msg = _boundary_error(_column(R, int(cols[i])), w, _floor(R, w))
        if msg:
            return f"sample {i} at y=-1: {msg}"
    return None


def cli_solve(rc: int, text: str, stderr: str, N: int) -> str | None:
    """Exit code, the written series, and the residual line on stderr."""
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()}"
    d = json.loads(text)
    msg = renewal(d["coeffs"], tuple(d["domain"]), N)
    if msg:
        return msg
    m = re.search(r"residual max (\S+)", stderr)
    if not m or not float(m.group(1)) <= CLI_RESIDUAL_TOL:
        return f"residual line {stderr.strip()!r}"
    return None


def cli_verify(rc: int, stderr: str, tol: float) -> str | None:
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()}"
    m = re.search(r"max_abs (\S+)", stderr)
    if not m or not float(m.group(1)) <= tol:
        return f"verify line {stderr.strip()!r}"
    return None
