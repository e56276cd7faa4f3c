"""Independent quadrature ground truth for convolution matrices.

Nothing here touches the construction recurrences: columns come from
evaluating h_n(y) = int_{-1}^{y} f(y-1-t) p_n(t) dt by Gauss-Legendre rules
of exact degree and projecting onto the basis with Gauss-Jacobi inner
products, also of exact degree.  Pointwise values come from the same
integral at arbitrary y.

Two precision tiers: plain double for small problems, and an 80-bit
extended tier ("extended") whose quadrature nodes, recurrences and dot
products run in longdouble.  The extended tier exists because at large
M, N the integrands oscillate violently and the comparison tolerances sit
below the double-precision quadrature noise floor (node rounding alone
contributes O(eps * w * g')).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import bases, quadrature
from .bases import BasisSpec
from .convmat import ConvMatrix, _column, _size, to_dense
from .errors import DimensionError, DomainMismatchError, OversizeError
from .prng import SplitMix64
from .quadrature import LD
from .series import PolySeries, clenshaw, evaluate

COEFF_ORACLE_CAP = 600  # max M+n for entrywise columns; sample pointwise beyond


@dataclass(frozen=True)
class ErrorReport:
    """Grid of absolute errors plus the max, with provenance metadata."""

    grid: np.ndarray = field(repr=False)
    max_abs: float
    meta: dict

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "entrywise")


def conv_coeff_block(f: PolySeries, N: int, extended: bool = False) -> np.ndarray:
    """Columns 0..N of the canonical convolution matrix, shape (M+N+2, N+1).

    Pure quadrature: h_n sampled at the projection nodes by exact-degree
    Gauss-Legendre on [-1, y_j], then projected by exact-degree Gauss-Jacobi
    inner products.  Column n is zero below row M+n+1 by construction of the
    integrand's degree; entries are computed, not assumed.
    """
    if not f.basis.finite_interval:
        raise DomainMismatchError("coefficient oracle needs a finite-interval basis")
    N = _size(N)
    M = f.degree
    if M + N > COEFF_ORACLE_CAP:
        raise OversizeError(
            f"M+N = {M + N} beyond the coefficient-oracle cap {COEFF_ORACLE_CAP}; "
            "use pointwise sampling instead")
    K = M + N + 1
    J = K + 2                         # projection nodes (exact through 2K+1)
    q = (M + N) // 2 + 2              # inner Gauss-Legendre nodes (exact)
    al, be = bases.weight_parameters(f.basis)
    proj = quadrature.cached_gauss_jacobi(al, be, J, extended=extended)
    y, W = proj.x, proj.w
    t, G = _kernel_on_grid(f, y, q, extended)

    # H[j, n] = h_n(y_j) accumulated from the p_n recurrence over the t grid
    H = np.empty((J, N + 1), dtype=y.dtype)
    for n, p in enumerate(bases.forward(f.basis, t, N)):
        H[:, n] = np.sum(G * p, axis=1)

    V = bases.poly_vandermonde(f.basis, y, K)
    WH = W[:, None] * H
    num = V.T @ WH                    # (K+1, N+1)
    norms = (W[:, None] * V * V).sum(axis=0)
    cols = num / norms[:, None]
    out = np.zeros((M + N + 2, N + 1))
    out[:K + 1] = cols.astype(float)
    # structural zeros: h_n has degree M+n+1 exactly
    for n in range(N + 1):
        out[M + n + 2:, n] = 0.0
    return out


def _kernel_on_grid(f: PolySeries, y: np.ndarray, q: int, extended: bool):
    """q-point Gauss-Legendre nodes t on each [-1, y_j] and the weights G.

    G[j, i] = f(y_j - 1 - t_ji) w_i (y_j + 1) / 2, so that
    sum_i G[j, i] g(t_ji) is the rule for int_{-1}^{y_j} f(y_j - 1 - t) g(t) dt.
    """
    gl = quadrature.cached_gauss_legendre(q, extended=extended)
    half = (y + 1)[:, None] / 2
    t = -1 + half * (gl.x + 1)[None, :]
    F = clenshaw(f.basis, f.coeffs, y[:, None] - 1 - t)
    return t, F * gl.w[None, :] * half


def conv_coeff_oracle(f: PolySeries, n: int, extended: bool = False) -> np.ndarray:
    """Column n alone (rows 0..M+n+1) of the canonical convolution matrix."""
    block = conv_coeff_block(f, n, extended=extended)
    return block[:f.degree + n + 2, n].copy()


def conv_point_oracle(f: PolySeries, g: PolySeries, points) -> np.ndarray:
    """Volterra convolution values h(x) = int f(x-t) g(t) dt by quadrature.

    Domains are physical; x ranges over [a+c, b+c] for f on [a,b], g on
    [c,d].  Exact-degree Gauss-Legendre per point.
    """
    if not (f.basis.finite_interval and g.basis.finite_interval):
        raise DomainMismatchError("pointwise oracle needs finite-interval series")
    a, b = f.domain
    c, d = g.domain
    if abs((b - a) - (d - c)) > 1e-12 * (b - a):
        raise DomainMismatchError("kernel and input must live on equal-length intervals")
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if np.any(pts < a + c - 1e-12 * (b - a)) or np.any(pts > b + c + 1e-12 * (b - a)):
        raise DomainMismatchError(f"convolution points must lie in [{a + c}, {b + c}]")
    q = (f.degree + g.degree) // 2 + 2
    gl = quadrature.cached_gauss_legendre(q)
    xi, om = gl.x, gl.w
    lo = c
    hi = np.minimum(pts - a, d)
    half = (hi - lo)[:, None] / 2.0
    t = lo + half * (xi + 1.0)[None, :]
    vals = evaluate(g, np.clip(t, c, d)) * om[None, :] * half
    fm = clenshaw(f.basis, f.coeffs,
                  np.clip((2.0 * (pts[:, None] - t) - (a + b)) / (b - a), -1.0, 1.0))
    return (vals * fm).sum(axis=1)


def compare_entrywise(built: Union[ConvMatrix, np.ndarray],
                      oracle_columns: np.ndarray,
                      meta: Optional[dict] = None) -> ErrorReport:
    """Absolute entrywise differences over the full matrix shape.

    ``built`` is a ConvMatrix, whose scale also multiplies the canonical
    oracle columns, or a plain dense array such as the naive builder's.
    """
    oc = np.asarray(oracle_columns, dtype=float)
    if isinstance(built, ConvMatrix):
        dense = to_dense(built)
        oc = built.scale * oc
        info = {"basis": built.basis.label(), "M": built.M, "N": built.N}
    else:
        dense = np.asarray(built, dtype=float)
        info = {}
    if oc.shape != dense.shape:
        raise DimensionError(f"oracle shape {oc.shape} != matrix shape {dense.shape}")
    grid = np.abs(dense - oc)
    info["kind"] = "entrywise"
    info.update(meta or {})
    return ErrorReport(grid, float(grid.max()), info)


def sampled_value_errors(R: ConvMatrix, f: PolySeries, n_samples: int,
                         seed: int) -> ErrorReport:
    """Pointwise-sampled oracle check for builds beyond the entrywise cap.

    Draws (column n, point y) pairs with y taken from the Chebyshev-point
    grid indexed by sampled rows, then compares the column's series value
    against the extended-precision quadrature oracle.  Both sides are
    evaluated in extended precision so the comparison measures the stored
    entries, not evaluation roundoff.

    Errors are reported relative to max(1, |value|): bases whose functions
    grow at the endpoints (Gegenbauer/Jacobi, p_k(1) ~ k^(2 lam - 1)) reach
    sample values ~1e11 at large scale, where even rounding exact entries
    to doubles costs ~1e-4 absolutely; entry-scale accuracy is what the
    construction claims and what this check measures.
    """
    M, N = R.M, R.N
    rng = SplitMix64(seed)
    ncols = rng.integers(n_samples, N)
    rows = rng.integers(n_samples, M + N + 1)
    y = np.cos(PI_LD * rows.astype(LD) / LD(M + N + 1))

    # oracle side: h_n(y) = int_{-1}^{y} f(y-1-t) p_n(t) dt
    t, G = _kernel_on_grid(f, y, (M + N) // 2 + 2, True)
    P = _pn_rows(f.basis, t, ncols)
    oracle_vals = np.sum(G * P, axis=1)

    # series side from the stored columns, evaluated in extended precision
    V = bases.poly_vandermonde(f.basis, y, M + N + 1)
    errs = np.empty(n_samples)
    for i in range(n_samples):
        got = np.sum(V[i] * _column(R, int(ncols[i]), LD))
        raw = LD(abs(R.scale)) * abs(got - oracle_vals[i])
        errs[i] = float(raw / max(LD(1.0), abs(oracle_vals[i])))
    info = {"basis": R.basis.label(), "M": M, "N": N, "seed": seed,
            "kind": "pointwise", "columns": ncols, "y": y.astype(float),
            "normalized": True}
    return ErrorReport(errs, float(errs.max()), info)


PI_LD = quadrature.PI_LD


def _pn_rows(basis: BasisSpec, t: np.ndarray, ncols: np.ndarray) -> np.ndarray:
    """Row i of the result is p_{ncols[i]}(t[i, :]), in t's precision.

    Chebyshev uses the cosine closed form; the others run the forward
    recurrence sorted by target degree, dropping rows from the active set
    once their degree is reached (cost ~ sum of the individual degrees).
    """
    if basis.kind == bases.CHEBYSHEV:
        theta = np.arccos(t)
        return np.cos(np.asarray(ncols).astype(t.dtype)[:, None] * theta)
    out = np.empty_like(t)
    nc = np.asarray(ncols)
    order = np.argsort(nc, kind="stable")
    nn = nc[order]
    tt = t[order]
    dt = t.dtype.type
    i0 = int(np.searchsorted(nn, 1))
    for j in range(i0):
        out[order[j]] = 1.0
    order, nn, tt = order[i0:], nn[i0:], tt[i0:]
    if len(nn) == 0:
        return out
    A, B, C = bases.recurrence_abc(basis, np.arange(nn[-1]), dt)
    pm1 = np.ones_like(tt)
    p = A[0] * tt + B[0]
    k = 1
    while len(nn):
        ndone = int(np.searchsorted(nn, k + 1))   # prefix rows of degree k
        for j in range(ndone):
            out[order[j]] = p[j]
        if ndone:
            order, nn = order[ndone:], nn[ndone:]
            tt, p, pm1 = tt[ndone:], p[ndone:], pm1[ndone:]
        if not len(nn):
            break
        p, pm1 = (A[k] * tt + B[k]) * p + C[k] * pm1, p
        k += 1
    return out


def report_to_csv(report: ErrorReport) -> str:
    """CSV form: '#' meta lines, data triples, then the max on a final line."""
    lines = []
    for key in ("basis", "M", "N", "seed", "kind"):
        if key in report.meta:
            lines.append(f"# {key}: {report.meta[key]}")
    if report.grid.ndim == 2:
        lines.append("k,n,abs_error")
        K, Ncol = report.grid.shape
        for k in range(K):
            row = report.grid[k]
            for n in np.nonzero(row)[0]:
                lines.append(f"{k},{n},{row[n]:.17g}")
    else:
        lines.append("sample,column,abs_error")
        cols = report.meta.get("columns")
        for i, e in enumerate(report.grid):
            c = int(cols[i]) if cols is not None else -1
            lines.append(f"{i},{c},{e:.17g}")
    lines.append(f"max_abs,{report.max_abs:.17g}")
    return "\n".join(lines) + "\n"
