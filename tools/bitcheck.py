"""Hash voltconv's outputs on a fixed grid, to show that a change keeps the bits.

    python tools/bitcheck.py CHECKOUT --cpus N --out FILE
    python tools/bitcheck.py --compare FILE_A FILE_B

The first form imports voltconv from CHECKOUT/src, tells it that N CPUs are
free (bases._cpu_count), and writes a JSON map from output name to a
SHA-256 prefix of its bits.  The second prints every name whose hash
differs or that only one file has, and exits 1 if there is any.

Sign bits count: -0.0 and +0.0 hash apart.  A longdouble element is hashed
by its 10 value bytes where longdouble is the x87 80-bit type, since the
padding bytes of an element are not initialised; never by tobytes().

The grid: `top`, `band` and one apply of builds of nine bases at ten sizes
with kernel scales 1 and 1e-300; the split-build grid (five bases, eight
sizes, the split floor at one byte); four bases at the benchmark's sizes
(10, 20000), (100, 4000) and (1000, 5000) with full and half-length
applies; the naive builder; Clenshaw and poly_vandermonde in float64 and
longdouble; conv_coeff_block in both tiers; sampled_value_errors; the
Gauss rules; values_at_minus_one, recurrence_abc in both dtypes,
weight_parameters, every RecurrenceTables and _ratio_tables array; the
series JSON/CSV text; evaluate at both ends of a domain and up to
series._DOMAIN_RELTOL of its length beyond them; the fits,
indefinite_integral_cheb, the Laguerre matrix, convolve's coefficients and
domain, and solve_second_kind; and conv_point_oracle, on a grid and at the
ends as evaluate is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

BASES = (("chebyshev", ()), ("legendre", ()), ("gegenbauer", (2.0,)),
         ("gegenbauer", (0.5,)), ("gegenbauer", (-0.25,)), ("jacobi", (2.0, 1.5)),
         ("jacobi", (0.3, -0.3)), ("jacobi", (-0.5, 0.3)), ("jacobi", (1.0, 0.0)))
SIZES = ((0, 0), (1, 1), (3, 1), (5, 12), (10, 40), (40, 60), (200, 50), (10, 200),
         (100, 400), (200, 1000))
SPLIT_BASES = (("chebyshev", ()), ("legendre", ()), ("gegenbauer", (2.0,)),
               ("jacobi", (2.0, 1.5)), ("jacobi", (-0.5, 0.3)))
SPLIT_SIZES = ((0, 0), (3, 1), (5, 12), (40, 60), (200, 50), (200, 150), (10, 200),
               (200, 1000))
BENCH_BASES = (("chebyshev", ()), ("legendre", ()), ("gegenbauer", (2.0,)),
               ("jacobi", (2.0, 1.5)))
BENCH_SIZES = ((10, 20000), (100, 4000), (1000, 5000))


def digest(x) -> str:
    """SHA-256 prefix of x's bits (a str, None, a number or an array)."""
    if x is None or isinstance(x, str):
        data = repr(x).encode()
    else:
        a = np.ascontiguousarray(np.asarray(x)).reshape(-1)
        raw = a.view(np.uint8).reshape(a.size, a.dtype.itemsize)
        if a.dtype == np.longdouble and np.finfo(a.dtype).nmant == 63:
            raw = raw[:, :10]
        data = repr((a.dtype.str, np.shape(x))).encode() + raw.tobytes()
    return hashlib.sha256(data).hexdigest()[:20]


def _label(name, params):
    return name + "".join(f"_{p:g}" for p in params)


def outputs(cpus: int) -> dict:
    """name -> digest over the grid, with ``cpus`` CPUs free."""
    from voltconv import bases, convmat, laguerre, oracle, quadrature, series, volterra
    from voltconv.prng import random_kernel

    bases._cpu_count = lambda: cpus
    out = {}

    def put(key, value):
        out[key] = digest(value)

    def ends(a, b):
        """Points of [a, b] and up to series._DOMAIN_RELTOL of its length
        beyond each end, which evaluation clips onto the ends."""
        tol = series._DOMAIN_RELTOL * (b - a)
        return np.array([a - tol, a - tol / 2, a, a + tol, b - tol, b, b + tol / 2, b + tol])

    def put_build(key, R, b):
        put(key + "/top", R.top)
        put(key + "/band", R.band)
        put(key + "/apply", convmat.apply(R, b))

    finite = [(_label(n, p), getattr(bases, n)(*p)) for n, p in BASES]
    every = finite + [("weighted_laguerre", bases.weighted_laguerre())]
    for label, basis in finite:
        for M, N in SIZES:
            a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
            b = np.random.default_rng(N).uniform(-1, 1, N + 1)
            for scale in (1.0, 1e-300):
                put_build(f"build/{label}/{M}_{N}/{scale:g}",
                          convmat.build(basis, scale * a, N), b)
        put(f"values_at_minus_one/{label}", bases.values_at_minus_one(basis, 300))
        put(f"weight_parameters/{label}", np.array(bases.weight_parameters(basis)))
        tables = convmat._tables(basis, 300)
        for field in ("A", "B", "C", "shat", "Ainv", "Cinv"):
            put(f"tables/{label}/{field}", getattr(tables, field))
        for i, r in enumerate(convmat._ratio_tables(basis, 300, 40)):
            put(f"ratio_tables/{label}/{i}", r)

    floor = convmat._MIN_APPLY_BYTES
    convmat._MIN_APPLY_BYTES = 1
    try:
        for name, params in SPLIT_BASES:
            basis = getattr(bases, name)(*params)
            for M, N in SPLIT_SIZES:
                a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
                b = np.random.default_rng(N).uniform(-1, 1, N + 1)
                for scale in (1.0, 1e-300):
                    put_build(f"split/{_label(name, params)}/{M}_{N}/{scale:g}",
                              convmat.build(basis, scale * a, N), b)
    finally:
        convmat._MIN_APPLY_BYTES = floor

    for name, params in BENCH_BASES:
        basis = getattr(bases, name)(*params)
        for M, N in BENCH_SIZES:
            R = convmat.build(basis, random_kernel(M, 7 + M), N)
            b = np.random.default_rng([7, N]).uniform(-1, 1, N + 1)
            key = f"bench/{_label(name, params)}/{M}_{N}"
            put_build(key, R, b)
            put(key + "/apply_half", convmat.apply(R, b[:N // 2 + 1]))

    with np.errstate(all="ignore"):
        for M, N in ((0, 5), (3, 10), (10, 50), (5, 200)):
            a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
            put(f"naive/{M}_{N}", convmat.build_chebyshev_naive(a, N))

    y = np.concatenate([[-1.0, -0.0, 0.0, 1.0], np.linspace(-1, 1, 69999)])
    for label, basis in every:
        c = np.random.default_rng(60).uniform(-1, 1, 61)
        for dtype in (np.float64, np.longdouble):
            yy = y.astype(dtype) if basis.finite_interval else (y.astype(dtype) + 1) * 20
            put(f"clenshaw/{label}/{dtype.__name__}", series.clenshaw(basis, c, yy))
            put(f"vandermonde/{label}/{dtype.__name__}",
                bases.poly_vandermonde(basis, yy[:1001], 80))
            for i, v in enumerate(bases.recurrence_abc(basis, np.arange(301), dtype)):
                put(f"recurrence_abc/{label}/{dtype.__name__}/{i}", v)
        s = series.PolySeries(basis, (-1.0, 2.0) if basis.finite_interval else
                              (0.0, np.inf), c[:7])
        put(f"json/{label}", series.series_to_json(s))
        put(f"csv/{label}", series.series_to_csv(s))
        if basis.finite_interval:
            put(f"evaluate_ends/{label}", series.evaluate(s, ends(-1.0, 2.0)))

    for label, basis in finite[:3] + finite[5:7]:
        f = series.PolySeries(basis, (-1.0, 1.0), random_kernel(10, 3))
        for extended in (False, True):
            put(f"coeff_block/{label}/{extended}",
                oracle.conv_coeff_block(f, 300, extended=extended))
        f = series.PolySeries(basis, (-1.0, 1.0), random_kernel(100, 5))
        R = convmat.build(basis, f.coeffs, 1000)
        put(f"sampled/{label}", oracle.sampled_value_errors(R, f, 100, 11).grid)
        g = series.PolySeries(basis, (0.5, 2.5), random_kernel(40, 9))
        put(f"point_oracle/{label}", oracle.conv_point_oracle(
            f, g, np.linspace(-0.5, 1.5, 301)))
        put(f"point_oracle_ends/{label}", oracle.conv_point_oracle(f, g, ends(-0.5, 1.5)))
        h = volterra.convolve(f, g)
        put(f"convolve/{label}", h.coeffs)
        put(f"convolve_domain/{label}", np.array(h.domain))
        problem = volterra.VolterraProblem(
            series.PolySeries(basis, (0.0, 2.0), 0.1 * random_kernel(8, 4)),
            series.PolySeries(basis, (0.0, 2.0), random_kernel(12, 6)))
        put(f"solve/{label}", volterra.solve_second_kind(problem, 200).coeffs)

    for al, be, n in ((0.0, 0.0, 7), (-0.5, -0.5, 33), (2.0, 1.5, 120), (-0.5, 0.3, 61),
                      (0.3, -0.3, 250), (1.0, 0.0, 16)):
        for extended in (False, True):
            rule = quadrature.gauss_jacobi(al, be, n, extended=extended)
            put(f"gauss_jacobi/{al}_{be}_{n}/{extended}/x", rule.x)
            put(f"gauss_jacobi/{al}_{be}_{n}/{extended}/w", rule.w)
    for n in (5, 60, 300):
        for i, v in enumerate(quadrature.gauss_laguerre(n)):
            put(f"gauss_laguerre/{n}/{i}", v)

    put("fit_chebyshev", series.fit_chebyshev(lambda x: np.exp(np.sin(3 * x)),
                                              (-1.0, 2.0)).coeffs)
    put("fit_fixed_chebyshev", series.fit_fixed_chebyshev(np.cos, (0.0, 3.0), 40).coeffs)
    put("fit_laguerre", laguerre.fit_laguerre(lambda x: np.exp(-x / 2), 60).coeffs)
    put("indefinite_integral_cheb",
        series.indefinite_integral_cheb(np.random.default_rng(5).uniform(-1, 1, 50)))
    for M, N in ((0, 3), (5, 40), (60, 1000), (1000, 100000)):
        a = np.random.default_rng(M + N).uniform(-1, 1, M + 1)
        R = laguerre.build_laguerre(a, N)
        put(f"laguerre/{M}_{N}", laguerre.apply_laguerre(
            R, np.random.default_rng(N).uniform(-1, 1, N + 1)))
        if N <= 1000:
            put(f"laguerre_dense/{M}_{N}", laguerre.to_dense_laguerre(R))
    return out


def compare(path_a, path_b) -> int:
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in bad:
        print(f"differs: {key}" if key in a and key in b else f"only in one: {key}")
    print(f"{len(a.keys() | b.keys()) - len(bad)} equal, {len(bad)} differ")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?")
    p.add_argument("--cpus", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar="FILE")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.checkout and args.out):
        p.error("give a checkout and --out, or --compare A B")
    sys.path.insert(0, str(pathlib.Path(args.checkout).resolve() / "src"))
    import voltconv
    hashes = outputs(args.cpus)
    pathlib.Path(args.out).write_text(json.dumps(hashes, indent=0, sort_keys=True) + "\n")
    print(f"{len(hashes)} outputs hashed from {voltconv.__file__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
