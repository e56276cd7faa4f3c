"""Finite orthogonal-polynomial series: evaluation, fitting, integration, I/O.

A PolySeries is immutable: basis + domain + coefficient vector (index = degree).
Finite-interval series live on [a, b] and are evaluated after the affine map
to [-1, 1]; weighted-Laguerre series live on [0, inf) and include the e^{-x}
weight factor when evaluated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from . import bases
from .bases import BasisSpec
from .errors import ArgumentError, DomainError, NonResolutionError

_DOMAIN_RELTOL = 1e-12

# The least range, in bytes, that each thread of a split Clenshaw sum gets
# where the dtype is wider than double: 4096 longdouble points, a quarter
# of bases._MIN_RANGE_BYTES.  A term stores four or five 80-bit arrays per
# point, so a split already pays at half this range (timings in
# CHANGES.md).
_MIN_WIDE_RANGE_BYTES = 1 << 16


@dataclass(frozen=True)
class ChopRule:
    """Plateau-chopping parameters for adaptive fitting."""

    rel_tol: float = 1e-15
    max_degree: int = 65536

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ArgumentError("rel_tol must lie in (0, 1)")
        if self.max_degree < 1:
            raise ArgumentError("max_degree must be >= 1")


@dataclass(frozen=True)
class PolySeries:
    """Coefficient vector in a fixed basis on a fixed domain."""

    basis: BasisSpec
    domain: Tuple[float, float]
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ArgumentError("coeffs must be a nonempty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ArgumentError("coeffs must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        a, b = self.domain
        if self.basis.finite_interval:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise DomainError(f"domain must be a finite ordered pair, got {self.domain}")
        else:
            if a != 0.0 or not math.isinf(b):
                raise DomainError("WeightedLaguerre series live on [0, inf)")
        object.__setattr__(self, "domain", (float(a), float(b)))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, points):
        return evaluate(self, points)


def _to_canonical(series: PolySeries, points: np.ndarray) -> np.ndarray:
    a, b = series.domain
    lo = a - _DOMAIN_RELTOL * (b - a)
    hi = b + _DOMAIN_RELTOL * (b - a)
    if np.any(points < lo) or np.any(points > hi):
        raise DomainError(f"point outside series domain [{a}, {b}]")
    y = (2.0 * points - (a + b)) / (b - a)
    return np.clip(y, -1.0, 1.0)


def clenshaw(basis: BasisSpec, coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Backward-recurrence summation of sum_k c_k p_k(y) for any basis.

    Runs in y's dtype (float64 or longdouble): the coefficients and the
    recurrence tables are cast to it.  The sum runs on the scaled tables of
    bases._step_tables and the doubled points y2 = y + y:

        bhat_k = (y2 + b_k) bhat_{k+1} + s_k c_k + C_{k+1} s_k / s_{k+2} bhat_{k+2},

    where bhat_k = s_k beta_k for the unscaled Clenshaw's beta_k.  The sum is
    bhat_0, since s_0 = 1.  A term stores four arrays per point, five where
    b is present (the unscaled form stores six); weighted Laguerre keeps its
    unscaled six.  The result is a new array of y's shape.  Every point is
    summed on its own, so the points are split into contiguous ranges, one
    per CPU the process may use but none smaller than
    bases._MIN_RANGE_BYTES, or _MIN_WIDE_RANGE_BYTES where y is wider than
    double, under bases._run_split's threading contract.
    """
    y = bases._float_array(y)
    c = np.asarray(coeffs).astype(y.dtype)
    K = len(c) - 1
    tables = bases._step_tables(basis, K + 2, y.dtype.type)
    s = tables[0]
    C = bases.recurrence_abc(basis, np.arange(1, K + 2), y.dtype.type)[2]
    terms = (c * s[:K + 1], C * s[:K + 1] / s[2:])
    flat = y.reshape(-1)
    y2 = flat + flat
    out, b2, tmp = np.zeros_like(flat), np.zeros_like(flat), np.empty_like(flat)
    floor = _MIN_WIDE_RANGE_BYTES if bases._wide(y.dtype) else bases._MIN_RANGE_BYTES
    ranges = bases._workers(flat.nbytes, flat.size, floor)
    cuts = np.linspace(0, flat.size, ranges + 1).astype(int)
    bases._run_split(_clenshaw_rows, [(tables, terms, y2[lo:hi], out[lo:hi], b2[lo:hi],
                                       tmp[lo:hi]) for lo, hi in zip(cuts, cuts[1:])])
    return out.reshape(y.shape)


def _clenshaw_rows(tables, terms, y2, out, b2, tmp):
    """out = sum_k c_k p_k(y) in the given buffers; out and b2 start at zero.

    ``terms`` is (s_k c_k, C_{k+1} s_k / s_{k+2}) for k = 0..K.  Each step
    forms (y2 + b_k) bhat_{k+1} + s_k c_k + C_{k+1} s_k / s_{k+2} bhat_{k+2}
    in the order of the expression as written, so the bits match a Clenshaw
    that allocates.
    """
    chat, Chat = terms
    b1 = out
    for k in range(len(chat) - 1, -1, -1):
        np.multiply(bases._multiplier(tables, k, y2, tmp), b1, out=tmp)
        tmp += chat[k]
        b2 *= Chat[k]
        tmp += b2
        b1, b2, tmp = tmp, b1, b2
    if b1 is not out:
        np.copyto(out, b1)


def evaluate(series: PolySeries, points) -> np.ndarray:
    """Series values s(x_i); WeightedLaguerre includes the decay weight."""
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0
    pts = np.atleast_1d(pts)
    if series.basis.finite_interval:
        y = _to_canonical(series, pts)
        out = clenshaw(series.basis, series.coeffs, y)
    else:
        if np.any(pts < 0.0):
            raise DomainError("WeightedLaguerre series are defined for x >= 0")
        out = clenshaw(series.basis, series.coeffs, pts) * np.exp(-pts)
    return out[0] if scalar else out


def chebyshev_points(n: int) -> np.ndarray:
    """Chebyshev points of the second kind, cos(pi*j/n), j = 0..n."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def vals2coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients interpolating values at second-kind points."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    if n == 0:
        return v.copy()
    import scipy.fft  # ~0.4 s to import, and only this call uses it
    c = scipy.fft.dct(v, type=1) / n
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def indefinite_integral_cheb(coeffs) -> np.ndarray:
    """Coefficients of int_{-1}^x phi, phi a Chebyshev series; length J+2.

    alpha~_j = (alpha_{j-1} - alpha_{j+1}) / (2j) for j >= 2,
    alpha~_1 = alpha_0 - alpha_2 / 2, and alpha~_0 makes the result vanish
    at x = -1.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ArgumentError("coefficient array must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ArgumentError("coefficients must be finite")
    J = a.size - 1
    ap = np.concatenate([a, [0.0, 0.0]])  # alpha_{J+1} = alpha_{J+2} = 0
    out = np.empty(J + 2)
    out[1] = ap[0] - ap[2] / 2.0
    j = np.arange(2, J + 2)
    out[2:] = (ap[j - 1] - ap[j + 1]) / (2.0 * j)
    out[0] = math.fsum(-bases._signs(J + 2)[1:] * out[1:])
    return out


def _chop(c: np.ndarray, rel_tol: float) -> np.ndarray:
    mx = np.max(np.abs(c))
    if mx == 0.0:
        return c[:1].copy()
    keep = np.nonzero(np.abs(c) > rel_tol * mx)[0]
    return c[:keep[-1] + 1].copy()


def _samples(f, x: np.ndarray) -> np.ndarray:
    """f(x) as floats of x's shape (a constant f broadcasts); every fit
    samples here, as non-finite values would poison every coefficient."""
    v = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.all(np.isfinite(v)):
        raise ArgumentError("the function returned non-finite values at sample points")
    return v


def fit_chebyshev(f: Callable[[np.ndarray], np.ndarray],
                  domain: Tuple[float, float],
                  rule: ChopRule = ChopRule()) -> PolySeries:
    """Adaptive Chebyshev fit of a continuous function on [a, b].

    Samples at second-kind points with doubling counts 16, 32, ... until the
    trailing coefficient envelope drops below rel_tol * max|coeff|, then chops
    the negligible tail.  A small off-grid spot check guards against aliasing
    false positives (a high harmonic folding exactly onto a coarse grid).
    """
    a, b = float(domain[0]), float(domain[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"fit domain must be finite with a < b, got {domain}")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    probe = mid + half * np.cos(np.linspace(0.31, 2.87, 23))
    f_probe = _samples(f, probe)
    fscale = max(1.0, np.max(np.abs(f_probe)))

    n = 16
    best = None
    while True:
        x = mid + half * chebyshev_points(n)
        c = vals2coeffs(_samples(f, x))
        mx = np.max(np.abs(c))
        if mx == 0.0:
            return PolySeries(bases.chebyshev(), (a, b), np.zeros(1))
        tail_ok = np.max(np.abs(c[-3:])) <= rule.rel_tol * mx
        if tail_ok:
            candidate = PolySeries(bases.chebyshev(), (a, b), _chop(c, rule.rel_tol))
            resid = np.max(np.abs(evaluate(candidate, probe) - f_probe))
            if resid <= 50.0 * max(rule.rel_tol, 1e-15) * fscale:
                return candidate
            best = candidate
        else:
            best = PolySeries(bases.chebyshev(), (a, b), _chop(c, rule.rel_tol))
        if 2 * n > rule.max_degree:
            raise NonResolutionError(
                f"no coefficient plateau below degree {rule.max_degree}", series=best)
        n *= 2


def fit_fixed_chebyshev(f, domain, degree: int) -> PolySeries:
    """Non-adaptive interpolation at degree+1 second-kind points."""
    a, b = float(domain[0]), float(domain[1])
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * chebyshev_points(max(degree, 1))
    c = vals2coeffs(_samples(f, x))
    return PolySeries(bases.chebyshev(), (a, b), c[:degree + 1])


# ---------------------------------------------------------------------------
# serialization

# (JSON and CSV key, BasisSpec field) of each basis parameter, in file order
_PARAMS = (("lambda", "lam"), ("alpha", "alpha"), ("beta", "beta"))


def _basis_to_json(basis: BasisSpec) -> dict:
    params = ((key, getattr(basis, name)) for key, name in _PARAMS)
    return {"kind": basis.kind, **{key: v for key, v in params if v is not None}}


def _basis_from_json(d: dict) -> BasisSpec:
    """BasisSpec checks the parameters, which must belong to the kind."""
    return BasisSpec(d["kind"], **{name: float(d[key]) for key, name in _PARAMS if key in d})


def series_to_json(series: PolySeries) -> str:
    a, b = series.domain
    dom = [a, None] if math.isinf(b) else [a, b]
    return json.dumps({
        "basis": _basis_to_json(series.basis),
        "domain": dom,
        "coeffs": list(series.coeffs),
    })


def series_from_json(text: str) -> PolySeries:
    d = json.loads(text)
    basis = _basis_from_json(d["basis"])
    a, b = d["domain"]
    dom = (float(a), math.inf if b is None else float(b))
    return PolySeries(basis, dom, np.asarray(d["coeffs"], dtype=float))


def series_to_csv(series: PolySeries) -> str:
    params = _basis_to_json(series.basis)
    lines = [f"# basis: {params.pop('kind')}"]
    lines.extend(f"# {key}: {value:.17g}" for key, value in params.items())
    a, b = series.domain
    dom = "0 inf" if math.isinf(b) else f"{a:.17g} {b:.17g}"
    lines.append(f"# domain: {dom}")
    lines.extend(f"{c:.17g}" for c in series.coeffs)
    return "\n".join(lines) + "\n"


def series_from_csv(text: str) -> PolySeries:
    meta = {}
    coeffs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        else:
            coeffs.append(float(line))
    kind = meta.get("basis")
    if kind is None:
        raise ArgumentError("CSV series is missing the '# basis:' header")
    basis = _basis_from_json({**meta, "kind": kind})
    a_str, b_str = meta.get("domain", "-1 1").split()
    dom = (float(a_str), math.inf if b_str == "inf" else float(b_str))
    return PolySeries(basis, dom, np.asarray(coeffs, dtype=float))
