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
contributes O(eps * w * g')).  The public entry points take the tier;
below them the quadrature rules' dtype carries it, and both tiers run
the same code, the projection included.  Where np.longdouble is no wider
than float64, the extended tier refuses (NarrowLongdoubleError) rather
than run in double.

The two grid recurrences, h_n at the projection nodes (_h_values) and p_n
at the sampled points (_pn_rows), run bases._ring_step on buffers from
bases._ring.  These recurrences and series.clenshaw, which gives the
kernel's values on the grid, split their rows over the CPUs above a floor
(bases._workers).  The projection (_project_columns) is one product per
block of 16 columns over the rows up to the block's last degree, so it
skips most of the entries past each column's degree; numpy's dot lets go
of the GIL, and the blocks are dealt in runs of equal kept entries
(bases._cuts).  All of these splits keep bases._run_split's threading
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import bases, quadrature
from .bases import BasisSpec
from .convmat import ConvMatrix, _column, to_dense
from .errors import DimensionError, DomainMismatchError, OversizeError, size
from .prng import SplitMix64
from .quadrature import LD
from .series import PolySeries, _conv_domain, _to_canonical, clenshaw, evaluate

COEFF_ORACLE_CAP = 600  # max M+n for entrywise columns; sample pointwise beyond
_BLOCK_COLUMNS = 16     # columns per product in the projection (_project_columns)


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
    inner products.  h_n has degree M+n+1, so the entries of column n below
    row M+n+1 are zero, and the projection forms them only where a block of
    columns (_project_columns) reaches past a column's degree.
    """
    if not f.basis.finite_interval:
        raise DomainMismatchError("coefficient oracle needs a finite-interval basis")
    N = size(N)
    M = f.degree
    if extended:
        quadrature.require_extended()
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
    # sqrt(W) goes into both factors, so that the norms are the column sums
    # of V * V.  np.dot with a C-ordered left factor and an F-ordered right
    # one reads both with unit stride (timings in CHANGES.md).
    root_w = np.sqrt(W)[:, None]
    WH = _h_values(f, y, q, N).T               # (J, N+1), F-ordered
    WH *= root_w
    V = bases.poly_vandermonde(f.basis, y, K)
    V *= root_w
    VT = np.ascontiguousarray(V.T)
    norms = np.einsum("jk,jk->k", V, V)
    # Blocks of _BLOCK_COLUMNS columns, whatever the part count, so that the
    # double tier's BLAS products keep their shapes and bits, in runs of equal
    # kept entries: M+n+2 in column n, edge(edge + 2M + 3) / 2 before a block.
    edges = np.append(np.arange(0, N + 1, _BLOCK_COLUMNS), N + 1)
    kept = edges * (edges + 2 * M + 3) // 2
    runs = bases._cuts(kept, bases._workers(WH.nbytes, len(edges) - 1))
    below = np.tri(_BLOCK_COLUMNS, _BLOCK_COLUMNS, -1, dtype=bool)
    out = np.zeros((K + 1, N + 1))
    bases._run_split(_project_columns, [
        (M, VT, WH, norms, lo, hi, np.empty((M + hi + 1) * _BLOCK_COLUMNS, VT.dtype),
         below, out) for lo, hi in (edges[[i, j]] for i, j in runs)])
    return out


def _project_columns(M, VT, WH, norms, lo, hi, buf, below, out):
    """Columns lo..hi-1 of the projection (VT @ WH) / norms, rounded into
    out, whose rows k > M+n+1 of column n hold zeros.

    Each block [n0, n1) of at most _BLOCK_COLUMNS columns is one product
    over rows 0..M+n1 into buf, the part's scratch; ``below``, the strict
    lower triangle of a block's square, marks the rows of the block's last
    w that lie past a column's degree, which are zeroed.  In longdouble
    every kept entry is numpy's sequential sum over the J nodes whatever
    the blocks; in float64 BLAS orders the sums by a block's shape, which
    does not depend on the part count.
    """
    for n0 in range(lo, hi, _BLOCK_COLUMNS):
        n1 = min(n0 + _BLOCK_COLUMNS, hi)
        rows, w = M + n1 + 1, n1 - n0
        num = buf[:rows * w].reshape(rows, w)
        np.dot(VT[:rows], WH[:, n0:n1], out=num)
        num /= norms[:rows, None]
        out[:rows, n0:n1] = num
        np.copyto(out[M + n0 + 1:rows, n0:n1], 0.0, where=below[:w, :w])


def _h_values(f: PolySeries, y: np.ndarray, q: int, N: int):
    """H[n, j] = h_n(y_j): the q-point rule on [-1, y_j] applied to p_n, with
    the nodes y_j cut into contiguous blocks, one per thread."""
    t, G = _kernel_on_grid(f, y, q)
    tables = bases._step_tables(f.basis, N, t.dtype.type)
    x2, X, Q = bases._ring(tables, t)
    del t                     # x2 is X[1] or t doubled in place
    H = np.empty((N + 1, len(y)), dtype=x2.dtype)
    cuts = np.linspace(0, len(y), bases._workers(x2.nbytes, len(y)) + 1).astype(int)
    bases._run_split(_h_block, [(tables, G[lo:hi], x2[lo:hi], X[:, lo:hi], Q[:, lo:hi],
                                 H[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])])
    return H


def _h_block(tables, G, x2, X, Q, H):
    """H[n, j] = sum_i G[j, i] p_n(t[j, i]) for n = 0..N, on slices of
    bases._ring's buffers; x2 = t + t.  Each row sums the scaled q_n and is
    then scaled by s_n, a row at a time: numpy buffers an in-place product
    that broadcasts over a longdouble block."""
    for n, row in enumerate(H):
        q = Q[1] if n == 0 else bases._ring_step(tables, n - 1, x2, X, Q)
        np.multiply(np.einsum("ji,ji->j", G, q, out=row), tables[0][n], out=row)


def _kernel_on_grid(f: PolySeries, y: np.ndarray, q: int):
    """q-point Gauss-Legendre nodes t on each [-1, y_j] and the weights G,
    from a rule in y's precision.

    G[j, i] = f(y_j - 1 - t_ji) w_i (y_j + 1) / 2, so that
    sum_i G[j, i] g(t_ji) is the rule for int_{-1}^{y_j} f(y_j - 1 - t) g(t) dt.
    """
    gl = quadrature.cached_gauss_legendre(q, extended=bases._wide(y.dtype))
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
    [c,d].  h(x) is (b-a)/2 times the columns' rule (_kernel_on_grid) at
    x's canonical point.
    """
    if not (f.basis.finite_interval and g.basis.finite_interval):
        raise DomainMismatchError("pointwise oracle needs finite-interval series")
    y = _to_canonical(_conv_domain(f, g), np.atleast_1d(np.asarray(points, dtype=float)))
    (a, b), (c, d) = f.domain, g.domain
    t, G = _kernel_on_grid(f, y, (f.degree + g.degree) // 2 + 2)
    return (b - a) / 2 * (G * evaluate(g, c + (d - c) * (t + 1) / 2)).sum(axis=1)


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
    construction claims and what this check measures.  f must be the kernel
    R was built from: its basis and degree are checked.
    """
    if f.basis != R.basis or f.degree != R.M:
        raise DomainMismatchError(
            f"kernel {f.basis.label()} of degree {f.degree} does not match the "
            f"matrix's {R.basis.label()} of degree {R.M}")
    size(n_samples, "n_samples", 1)
    quadrature.require_extended()
    M, N = R.M, R.N
    rng = SplitMix64(seed)
    ncols = rng.integers(n_samples, N)
    rows = rng.integers(n_samples, M + N + 1)
    y = np.cos(quadrature.PI_LD * rows.astype(LD) / LD(M + N + 1))

    # oracle side: h_n(y) = int_{-1}^{y} f(y-1-t) p_n(t) dt
    t, G = _kernel_on_grid(f, y, (M + N) // 2 + 2)
    P = _pn_rows(f.basis, t, ncols)
    oracle_vals = np.sum(G * P, axis=1)

    # series side from the stored columns, evaluated in extended precision
    V = bases.poly_vandermonde(f.basis, y, M + N + 1)
    errs = np.empty(n_samples)
    for i in range(n_samples):
        got = np.sum(V[i] * _column(R, int(ncols[i])))
        raw = LD(abs(R.scale)) * abs(got - oracle_vals[i])
        errs[i] = float(raw / max(LD(1.0), abs(oracle_vals[i])))
    info = {"basis": R.basis.label(), "M": M, "N": N, "seed": seed,
            "kind": "pointwise", "columns": ncols, "y": y.astype(float),
            "normalized": True}
    return ErrorReport(errs, float(errs.max()), info)


def _pn_rows(basis: BasisSpec, t: np.ndarray, ncols: np.ndarray) -> np.ndarray:
    """Row i of the result is p_{ncols[i]}(t[i, :]), in t's precision.

    Chebyshev uses the cosine closed form; the others run the forward
    recurrence on rows sorted by target degree, dropping each prefix of
    rows from the active set once its degree is reached (cost ~ sum of the
    individual degrees).  The sorted rows are dealt round-robin into one
    group per thread, so that every group gets the same mix of degrees, and
    gathered so that each group's rows are contiguous; each thread runs the
    shrinking-prefix loop on its own group, under bases._run_split's
    threading contract.
    """
    if basis.kind == bases.CHEBYSHEV:
        theta = np.arccos(t)
        return np.cos(np.asarray(ncols).astype(t.dtype)[:, None] * theta)
    nc = np.asarray(ncols)
    groups = bases._workers(t.nbytes, len(nc))
    by_degree = np.argsort(nc, kind="stable")
    dealt = [by_degree[g::groups] for g in range(groups)]
    order = np.concatenate(dealt)
    cuts = np.cumsum([0] + [len(d) for d in dealt])
    nn = nc[order]
    top = int(nn.max(initial=0))
    tables = bases._step_tables(basis, top, t.dtype.type)
    x2, X, Q = bases._ring(tables, t[order])
    out = np.empty_like(t)
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        ends = np.searchsorted(nn[lo:hi], np.arange(nn[lo:hi].max(initial=0) + 1),
                               side="right")
        parts.append((tables, x2[lo:hi], X[:, lo:hi], Q[:, lo:hi], out,
                      order[lo:hi], ends))
    bases._run_split(_pn_group, parts)
    return out


def _pn_group(tables, x2, X, Q, out, order, ends):
    """out[order[i]] = p_n(x[i]) for one group of rows sorted by degree n, on
    slices of bases._ring's buffers for x2 = x + x; ends[k] is one past the
    group's last row of degree <= k."""
    done = 0
    for k, end in enumerate(ends):
        rows = Q[(k + 1) % 3, done:end]       # q_k of the rows whose degree is k
        rows *= tables[0][k]
        out[order[done:end]] = rows
        done = end
        if k < len(ends) - 1:
            bases._ring_step(tables, k, x2[done:], X[:, done:], Q[:, done:])


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
