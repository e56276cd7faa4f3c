import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from voltconv import bases, convmat, oracle, quadrature, series
from voltconv.errors import (ArgumentError, DimensionError, DomainMismatchError,
                             NarrowLongdoubleError, OversizeError)
from voltconv.prng import random_kernel
from voltconv.series import PolySeries, evaluate, indefinite_integral_cheb

LD = np.longdouble
EXTENDED_BASES = {
    "chebyshev": bases.chebyshev(),
    "legendre": bases.legendre(),
    "gegenbauer2": bases.gegenbauer(2.0),
    "jacobi_2_1.5": bases.jacobi(2.0, 1.5),
    "jacobi_-0.5_0.3": bases.jacobi(-0.5, 0.3),
}


class TestCoefficientOracle:
    def test_unit_kernel_column0(self):
        f = PolySeries(bases.chebyshev(), (-1, 1), [1.0])
        np.testing.assert_allclose(oracle.conv_coeff_oracle(f, 0), [1, 1], atol=1e-14)

    def test_t1_star_t1(self):
        # symbolic integral of (y-1-t) t over [-1, y], expanded in Chebyshev
        f = PolySeries(bases.chebyshev(), (-1, 1), [0, 1.0])
        np.testing.assert_allclose(oracle.conv_coeff_oracle(f, 1),
                                   [-1 / 12, -3 / 8, -1 / 4, 1 / 24], atol=1e-14)

    def test_analytic_low_columns(self):
        # f in {T_0, T_1, T_2}: columns from the antiderivative identities
        for m in range(3):
            a = np.zeros(m + 1)
            a[m] = 1.0
            f = PolySeries(bases.chebyshev(), (-1, 1), a)
            np.testing.assert_allclose(oracle.conv_coeff_oracle(f, 0),
                                       indefinite_integral_cheb(a), atol=1e-14)

    def test_matches_build_small(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 4)  # M = 3
        f = PolySeries(bases.chebyshev(), (-1, 1), a)
        R = convmat.build_chebyshev(a, 20)
        D = convmat.to_dense(R)
        for n in (0, 3, 11, 20):
            col = oracle.conv_coeff_oracle(f, n)
            np.testing.assert_allclose(D[:len(col), n], col, atol=1e-14)

    def test_oversize_guard(self):
        f = PolySeries(bases.chebyshev(), (-1, 1), np.ones(400))
        with pytest.raises(OversizeError):
            oracle.conv_coeff_block(f, 400)

    @pytest.mark.parametrize("N", [True, 2.5])
    def test_non_integer_N(self, N):
        f = PolySeries(bases.chebyshev(), (-1, 1), [1.0, 0.5])
        with pytest.raises(ArgumentError, match="N must be an integer"):
            oracle.conv_coeff_block(f, N)

    def test_continuous_recurrence_identity(self):
        # columns of the quadrature oracle satisfy the five-term column
        # relation col_{n+1} = 2(n+1) int(col_n) + (n+1)/(n-1) col_{n-1}
        # + 2(-1)^n/(n-1) col_0 without any recursion having been used
        rng = np.random.default_rng(1)
        for M in (2, 6):
            a = rng.uniform(-1, 1, M + 1)
            f = PolySeries(bases.chebyshev(), (-1, 1), a)
            cols = oracle.conv_coeff_block(f, 11)
            for n in range(2, 11):
                ic = indefinite_integral_cheb(cols[:M + n + 2, n])
                lhs = cols[:, n + 1]
                rhs = np.zeros_like(lhs)
                rhs[:len(ic)] += 2 * (n + 1) * ic
                rhs += (n + 1) / (n - 1) * cols[:, n - 1]
                rhs += 2 * (-1.0) ** n / (n - 1) * cols[:, 0]
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_self_consistency_with_pointwise(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, 5)
        f = PolySeries(bases.chebyshev(), (-1, 1), a)
        n = 9
        col = oracle.conv_coeff_oracle(f, n)
        series = PolySeries(bases.chebyshev(), (-1, 1), col)
        en = np.zeros(n + 1)
        en[n] = 1.0
        tn = PolySeries(bases.chebyshev(), (-1, 1), en)
        x = rng.uniform(-2, 0, 23)
        vals = oracle.conv_point_oracle(f, tn, x)
        np.testing.assert_allclose(evaluate(series, x + 1), vals, atol=1e-13)


class TestPointwiseOracle:
    def test_unit_convolution_values(self):
        one = PolySeries(bases.chebyshev(), (-1, 1), [1.0])
        got = oracle.conv_point_oracle(one, one, [-1.0, 0.0])
        np.testing.assert_allclose(got, [1.0, 2.0], atol=1e-15)

    def test_renewal_functions(self):
        from voltconv.series import fit_chebyshev
        f = fit_chebyshev(lambda x: 0.5 * x**2 * np.exp(-x), (0, 2))
        uex = lambda x: (1 / 3 - (np.cos(np.sqrt(3) / 2 * x)
                                  + np.sqrt(3) * np.sin(np.sqrt(3) / 2 * x))
                         * np.exp(-1.5 * x) / 3)
        u = fit_chebyshev(uex, (0, 2))
        from voltconv import volterra
        h = volterra.convolve(f, u)
        xs = np.linspace(0, 2, 100)
        np.testing.assert_allclose(evaluate(h, xs),
                                   oracle.conv_point_oracle(f, u, xs), atol=1e-14)


class TestReports:
    def test_matrix_vs_itself(self):
        R = convmat.build_chebyshev([1.0, 0.3], 6)
        rep = oracle.compare_entrywise(R, convmat.to_dense(R))
        assert rep.max_abs == 0.0
        assert rep.grid.shape == R.shape

    def test_shape_mismatch(self):
        R = convmat.build_chebyshev([1.0], 3)
        with pytest.raises(DimensionError):
            oracle.compare_entrywise(R, np.zeros((2, 2)))

    def test_csv_roundtrip_essentials(self):
        R = convmat.build_chebyshev([1.0], 3)
        rep = oracle.compare_entrywise(R, convmat.to_dense(R),
                                       meta={"seed": 7})
        text = oracle.report_to_csv(rep)
        assert text.startswith("# basis: Chebyshev")
        assert "# seed: 7" in text
        assert text.rstrip().splitlines()[-1] == "max_abs,0"

    def test_naive_vs_oracle_reports(self):
        from voltconv.prng import random_kernel
        a = random_kernel(10, 1)
        f = PolySeries(bases.chebyshev(), (-1, 1), a)
        cols = oracle.conv_coeff_block(f, 50)
        naive = convmat.build_chebyshev_naive(a, 50)
        stable = convmat.build_chebyshev(a, 50)
        rep_n = oracle.compare_entrywise(naive, cols)
        rep_s = oracle.compare_entrywise(stable, cols)
        assert rep_n.max_abs >= 1e3
        assert rep_s.max_abs <= 1e-13

    @pytest.mark.parametrize("kernel", [(bases.chebyshev(), 10), (bases.legendre(), 4)],
                             ids=["basis", "degree"])
    def test_sampled_kernel_must_match(self, kernel):
        # another kernel's oracle values would give an error figure, not an error
        R = convmat.build(bases.legendre(), random_kernel(10, 3), 200)
        basis, M = kernel
        with pytest.raises(DomainMismatchError):
            oracle.sampled_value_errors(
                R, PolySeries(basis, (-1, 1), random_kernel(M, 3)), 20, 1)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_sampled_needs_a_sample(self, n_samples):
        R = convmat.build(bases.legendre(), random_kernel(10, 3), 200)
        f = PolySeries(bases.legendre(), (-1, 1), random_kernel(10, 3))
        with pytest.raises(ArgumentError):
            oracle.sampled_value_errors(R, f, n_samples, 1)


def _oracle_outputs(name, M, N, samples):
    """conv_coeff_block in both tiers and a sampled check, for one basis."""
    basis = EXTENDED_BASES[name]
    f = PolySeries(basis, (-1, 1), random_kernel(M, 3))
    g = PolySeries(basis, (-1, 1), random_kernel(20, 4))
    R = convmat.build(basis, g.coeffs, 200)
    return {"double": oracle.conv_coeff_block(f, N),
            "extended": oracle.conv_coeff_block(f, N, extended=True),
            "sampled": oracle.sampled_value_errors(R, g, samples, 5).grid}


# (M, N, samples) of _oracle_outputs: every grid of SMALL lies below
# bases._MIN_RANGE_BYTES, and so do its projected values (at most 63 x 51
# longdouble); LARGE's grids hold 2 (the double block) to 4 times it (the
# extended block: 363 x 182 longdouble nodes; the sampled check: 440 x 112),
# and its projected values (363 x 351) 4 (double) and 8 (extended) times it
SMALL = ((0, 0, 30), (3, 7, 30), (10, 50, 30))
LARGE = (10, 350, 440)


class TestThreadedRecurrences:
    """The grid recurrences and the Clenshaw kernel run on worker threads
    above the floor, inline below it; nothing public runs on a worker."""

    @pytest.mark.parametrize("name", list(EXTENDED_BASES))
    def test_bits_do_not_depend_on_the_thread_count(self, name, monkeypatch):
        # 3 workers are more than a 2-CPU machine has; a short switch
        # interval makes the threads interleave as often as they can
        interval = sys.getswitchinterval()
        runs, parts = {}, {}
        run_split = bases._run_split

        def record(work, split):
            parts[cpus].append(len(split))
            run_split(work, split)

        monkeypatch.setattr(bases, "_run_split", record)
        try:
            sys.setswitchinterval(1e-6)
            for cpus in (1, 3):
                monkeypatch.setattr(bases, "_cpu_count", lambda cpus=cpus: cpus)
                parts[cpus] = []
                runs[cpus] = _oracle_outputs(name, *LARGE)
        finally:
            sys.setswitchinterval(interval)
        assert set(parts[1]) == {1} and min(parts[3]) >= 2 and max(parts[3]) == 3
        for key in runs[1]:
            assert runs[1][key].dtype == runs[3][key].dtype
            assert np.array_equal(runs[1][key], runs[3][key]), key

    @pytest.mark.parametrize("name", list(EXTENDED_BASES))
    def test_no_pool_below_the_floor(self, name, monkeypatch):
        def no_pool():
            raise AssertionError("the worker pool was used below the floor")

        monkeypatch.setattr(bases, "_pool", no_pool)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        for M, N, samples in SMALL:
            out = _oracle_outputs(name, M, N, samples)
            for key in ("double", "extended"):
                below = np.tri(M + N + 2, N + 1, -(M + 2), dtype=bool)
                assert out[key].shape == (M + N + 2, N + 1)
                assert np.all(out[key][below] == 0.0)

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        # swap every public voltconv function for a recorder, in every
        # voltconv module that refers to it, as an outside tracer would
        calls = []
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("voltconv.") and modname.count(".") == 1:
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_") and callable(obj)
                            and not isinstance(obj, type)
                            and getattr(obj, "__module__", None) == modname):
                        wrappers[id(obj)] = _recorder(f"{modname}.{attr}", obj, calls)
        for modname, mod in list(sys.modules.items()):
            if modname == "voltconv" or modname.startswith("voltconv."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        monkeypatch.setattr(mod, attr, wrappers[id(obj)])
        workers, kernels, projections = set(), set(), set()
        h_block, pn_group = oracle._h_block, oracle._pn_group
        project_columns = oracle._project_columns
        clenshaw_rows = series._clenshaw_rows

        def on_worker(fn, seen):
            def run(*args):
                seen.add(threading.get_ident())
                return fn(*args)
            return run

        monkeypatch.setattr(oracle, "_h_block", on_worker(h_block, workers))
        monkeypatch.setattr(oracle, "_pn_group", on_worker(pn_group, workers))
        monkeypatch.setattr(oracle, "_project_columns",
                            on_worker(project_columns, projections))
        monkeypatch.setattr(series, "_clenshaw_rows", on_worker(clenshaw_rows, kernels))
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        # 2000 points x 102 nodes: both of its Clenshaw sums lie above the floor
        f = PolySeries(bases.legendre(), (-1, 1), random_kernel(100, 3))
        g = PolySeries(bases.legendre(), (-1, 1), random_kernel(100, 4))

        def run():
            _oracle_outputs("jacobi_2_1.5", *LARGE)
            oracle.conv_point_oracle(f, g, np.linspace(-2, 0, 2000))

        run()                 # starts the shared pool's threads
        before = threading.active_count()
        for _ in range(2):
            run()
            assert threading.active_count() == before
        caller = threading.get_ident()
        names = {name for name, _ in calls}
        assert {"voltconv.series.clenshaw", "voltconv.bases.recurrence_abc",
                "voltconv.oracle.conv_coeff_block", "voltconv.series.evaluate",
                "voltconv.oracle.conv_point_oracle"} <= names
        assert {ident for _, ident in calls} == {caller}
        # the caller runs the last part of each split, a pool thread the rest
        assert len(workers) >= 2 and len(kernels) >= 2 and len(projections) >= 2

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_worker_error_reaches_the_caller(self, cpus, monkeypatch):
        def fail(*args):
            raise FloatingPointError("step failed")

        monkeypatch.setattr(bases, "_recurrence_step", fail)
        monkeypatch.setattr(bases, "_ring_step", fail)
        monkeypatch.setattr(bases, "_cpu_count", lambda: cpus)
        f = PolySeries(bases.legendre(), (-1, 1), [1.0, 0.5])
        R = convmat.build(bases.legendre(), [1.0, 0.5], 10)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="step failed"):
            oracle.conv_coeff_block(f, 10, extended=True)
        with pytest.raises(FloatingPointError, match="step failed"):
            oracle.sampled_value_errors(R, f, 5, 1)
        assert threading.active_count() == before

    def test_workers_see_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        basis = bases.jacobi(2.0, 1.5)
        t = np.full((4, 3), np.inf, dtype=LD)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                oracle._pn_rows(basis, t, np.array([3, 3, 3, 3]))


def _full_projection(f, N, extended):
    """conv_coeff_block as one (M+N+2, N+1) product, with the entries past
    each column's degree masked to zero afterwards: the reference for the
    projection over blocks of columns."""
    M = f.degree
    K = M + N + 1
    al, be = bases.weight_parameters(f.basis)
    proj = quadrature.cached_gauss_jacobi(al, be, K + 2, extended=extended)
    root_w = np.sqrt(proj.w)[:, None]
    WH = oracle._h_values(f, proj.x, (M + N) // 2 + 2, N).T
    WH *= root_w
    V = bases.poly_vandermonde(f.basis, proj.x, K)
    V *= root_w
    num = np.dot(np.ascontiguousarray(V.T), WH)
    norms = np.einsum("jk,jk->k", V, V)
    out = (num / norms[:, None]).astype(float, copy=False)
    out[np.tri(K + 1, N + 1, -(M + 2), dtype=bool)] = 0.0
    return out


@pytest.mark.parametrize("extended", [False, True])
def test_h_values_keep_the_projection_layout(extended):
    # longdouble np.dot has no BLAS and reads the right factor WH = H.T with
    # its own strides; a C-ordered WH made the extended projection about 8
    # times slower at the (10, 590) block shape (timings in CHANGES.md)
    M, N = 10, 50
    f = PolySeries(bases.jacobi(2.0, 1.5), (-1, 1), random_kernel(M, 3))
    al, be = bases.weight_parameters(f.basis)
    proj = quadrature.cached_gauss_jacobi(al, be, M + N + 3, extended=extended)
    H = oracle._h_values(f, proj.x, (M + N) // 2 + 2, N)
    assert H.shape == (N + 1, len(proj.x)) and H.flags.c_contiguous
    assert H.T.flags.f_contiguous


# The double tier's products run through BLAS, whose sums over the nodes
# are ordered by the operands' shapes, so blocks of columns round apart
# from the one full product: 1.4e-15 of max|R| at (10, 300) on six bases
DOUBLE_TIER_RTOL = 1e-14


@pytest.mark.parametrize("name", ["chebyshev", "legendre", "gegenbauer2", "jacobi_2_1.5"])
def test_blocked_projection_matches_the_full_product(name, monkeypatch):
    # a floor of one byte splits every block over up to one part per CPU
    workers, run_split = bases._workers, bases._run_split
    parts = []

    def record(work, split):
        if work is oracle._project_columns:
            parts.append(len(split))
        run_split(work, split)

    monkeypatch.setattr(bases, "_workers", lambda nbytes, rows, floor=1: workers(nbytes, rows, 1))
    monkeypatch.setattr(bases, "_run_split", record)
    for M, N in ((0, 0), (3, 7), (12, 8), (10, 50), (10, 300)):
        f = PolySeries(EXTENDED_BASES[name], (-1, 1), random_kernel(M, 3))
        ref = {ext: _full_projection(f, N, ext) for ext in (True, False)}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(bases, "_cpu_count", lambda cpus=cpus: cpus)
            parts.clear()
            for ext in (True, False):
                got = oracle.conv_coeff_block(f, N, extended=ext)
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.shape == ref[ext].shape == (M + N + 2, N + 1)
                if ext:
                    assert np.array_equal(got, ref[ext])
                    assert np.array_equal(np.signbit(got), np.signbit(ref[ext]))
                else:
                    err = np.max(np.abs(got - ref[ext]))
                    assert err <= DOUBLE_TIER_RTOL * np.max(np.abs(ref[ext])), (M, N, err)
            assert parts == [min(cpus, -(-(N + 1) // oracle._BLOCK_COLUMNS))] * 2


def _recorder(name, fn, calls):
    def wrapper(*args, **kwargs):
        calls.append((name, threading.get_ident()))
        return fn(*args, **kwargs)
    return wrapper


class TestNarrowLongdouble:
    def test_extended_paths_refuse(self, monkeypatch):
        f = PolySeries(bases.legendre(), (-1, 1), [1.0, 0.5])
        R = convmat.build(bases.legendre(), [1.0, 0.5], 10)
        calls = [lambda: oracle.conv_coeff_block(f, 10, extended=True),
                 lambda: oracle.sampled_value_errors(R, f, 3, 1),
                 lambda: quadrature.gauss_jacobi(1.0, 0.5, 7, extended=True),
                 lambda: quadrature.gauss_legendre(7, extended=True)]
        for call in calls:
            call()    # fills the rule caches, which must not bypass the check
        monkeypatch.setattr(quadrature, "EXTENDED_AVAILABLE", False)
        for call in calls:
            with pytest.raises(NarrowLongdoubleError, match="eps here is"):
                call()
        # the float64 tier does not need longdouble, also where longdouble
        # is plain double and so compares equal to float64
        assert oracle.conv_coeff_block(f, 10).shape == (13, 11)
        monkeypatch.setattr(oracle, "LD", np.float64)
        monkeypatch.setattr(quadrature, "LD", np.float64)
        quadrature.cached_gauss_legendre.cache_clear()   # a cached rule skips the check
        assert oracle.conv_coeff_block(f, 10).shape == (13, 11)
        assert not quadrature.gauss_legendre(7).extended
        assert quadrature.gauss_jacobi(1.0, 0.5, 7).x.dtype == np.float64


@pytest.mark.parametrize("basis", [bases.legendre(), bases.gegenbauer(2.0),
                                   bases.jacobi(2.0, 1.5), bases.jacobi(-0.5, 0.3),
                                   bases.jacobi(1.5, 1.5)],
                         ids=["legendre", "gegenbauer2", "jacobi_2_1.5",
                              "jacobi_-0.5_0.3", "jacobi_1.5_1.5"])
def test_pn_rows_share_the_vandermonde_recurrence(basis):
    rng = np.random.default_rng(7)
    ncols = rng.integers(0, 60, 25)
    t = rng.uniform(-1, 1, (25, 9)).astype(LD)
    rows = oracle._pn_rows(basis, t, ncols)
    for i, n in enumerate(ncols):
        assert np.array_equal(rows[i], bases.poly_vandermonde(basis, t[i], n)[..., n])


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of a second call."""
    fn(*args)
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", list(EXTENDED_BASES))
def test_grid_recurrence_memory_is_its_buffers(name, cpus, monkeypatch):
    # counted in grid-sized longdouble arrays: _h_values holds t and G, the
    # ring's three rows and its two multiplier rows, besides H; _pn_rows its
    # result, the gathered points, the ring and the multiplier rows.  That is
    # seven, the three-pass step's five plus the multiplier rows, and six
    # where x2 is the multiplier row: the parts share the caller's buffers.
    # A second copy of the grid would exceed it, and so would numpy's buffer
    # for scaling H in place on each part's columns at once (half a grid per
    # part).  The slack holds the tables and the cuts.
    basis = EXTENDED_BASES[name]
    monkeypatch.setattr(bases, "_cpu_count", lambda: cpus)
    parts = []
    run_split = bases._run_split

    def record(work, split):
        parts.append(len(split))
        run_split(work, split)

    monkeypatch.setattr(bases, "_run_split", record)
    M, N = 10, 300
    f = PolySeries(basis, (-1, 1), random_kernel(M, 3))
    al, be = bases.weight_parameters(basis)
    y = quadrature.cached_gauss_jacobi(al, be, M + N + 3, extended=True).x
    q = (M + N) // 2 + 2
    H, peak = _traced_peak(oracle._h_values, f, y, q, N)
    grid = len(y) * q * LD(0).itemsize
    assert peak <= H.nbytes + 7.25 * grid, (peak - H.nbytes) / grid
    M, N, rows = 100, 1000, 100
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, (rows, (M + N) // 2 + 2)).astype(LD)
    ncols = rng.integers(0, N + 1, rows)
    _, peak = _traced_peak(oracle._pn_rows, basis, t, ncols)
    assert peak <= 7.25 * t.nbytes, peak / t.nbytes
    # both grids lie above the floor, so at 2 CPUs every split is in two
    assert set(parts) == {cpus}


def _mp_basis_monomials(basis, K):
    """Monomial coefficients of p_0 .. p_K from the classical three-term
    recurrences, written out in mpmath."""
    mpf = mpmath.mpf
    x_times = lambda p: [mpf(0)] + p

    def lin(c1, p1, c0, p0):
        n = max(len(p1), len(p0))
        p1, p0 = p1 + [mpf(0)] * (n - len(p1)), p0 + [mpf(0)] * (n - len(p0))
        return [c1 * u + c0 * v for u, v in zip(p1, p0)]

    if basis.kind == bases.JACOBI:
        a, b = mpf(basis.alpha), mpf(basis.beta)
        P = [[mpf(1)], [(a - b) / 2, (a + b + 2) / 2]]
    elif basis.kind == bases.GEGENBAUER:
        lam = mpf(basis.lam)
        P = [[mpf(1)], [mpf(0), 2 * lam]]
    else:
        P = [[mpf(1)], [mpf(0), mpf(1)]]
    for k in range(1, K):
        xp = x_times(P[k])
        if basis.kind == bases.CHEBYSHEV:
            nxt = lin(2, xp, -1, P[k - 1])
        elif basis.kind == bases.LEGENDRE:
            nxt = lin(mpf(2 * k + 1) / (k + 1), xp, -mpf(k) / (k + 1), P[k - 1])
        elif basis.kind == bases.GEGENBAUER:
            nxt = lin(2 * (k + lam) / (k + 1), xp, -(k + 2 * lam - 1) / (k + 1), P[k - 1])
        else:
            s = 2 * k + a + b
            d = 2 * (k + 1) * (k + a + b + 1) * s
            nxt = lin((s + 1) / d, lin((s + 2) * s, xp, a * a - b * b, P[k]),
                      -2 * (k + a) * (k + b) * (s + 2) / d, P[k - 1])
        P.append(nxt)
    return P[:K + 1]


def _mp_columns(basis, a, N):
    """Columns 0..N of the convolution matrix by exact polynomial algebra:
    h_n(y) = int_{-1}^{y} f(y - 1 - t) p_n(t) dt expanded in monomials, then
    converted back to the basis by triangular elimination."""
    mpf, binom = mpmath.mpf, mpmath.binomial
    M = len(a) - 1
    P = _mp_basis_monomials(basis, M + N + 1)
    F = [mpf(0)] * (M + 1)
    for m, am in enumerate(a):
        for i, c in enumerate(P[m]):
            F[i] += mpf(float(am)) * c

    def mul(p, q):
        out = [mpf(0)] * (len(p) + len(q) - 1)
        for i, u in enumerate(p):
            for j, v in enumerate(q):
                out[i + j] += u * v
        return out

    ym1_pow = [[mpf(1)]]
    for _ in range(M):
        ym1_pow.append(mul(ym1_pow[-1], [mpf(-1), mpf(1)]))
    cols = []
    for n in range(N + 1):
        h = [mpf(0)] * (M + n + 2)
        for r in range(M + 1):
            # int_{-1}^{y} t^r p_n(t) dt, and sum_i F_i C(i, r) (-1)^r (y-1)^(i-r)
            integral = [mpf(0)] * (r + n + 2)
            for s, c in enumerate(P[n]):
                integral[r + s + 1] += c / (r + s + 1)
                integral[0] -= c * (-1) ** (r + s + 1) / (r + s + 1)
            q = [mpf(0)] * (M - r + 1)
            for i in range(r, M + 1):
                for j, c in enumerate(ym1_pow[i - r]):
                    q[j] += F[i] * binom(i, r) * (-1) ** r * c
            for j, c in enumerate(mul(q, integral)):
                h[j] += c
        col = [mpf(0)] * (M + N + 2)
        for k in range(M + n + 1, -1, -1):
            col[k] = h[k] / P[k][k]
            for j, c in enumerate(P[k]):
                h[j] -= col[k] * c
        cols.append(col)
    return cols


@pytest.mark.parametrize("name", list(EXTENDED_BASES))
@pytest.mark.parametrize("M,N", [(5, 15), (12, 8)])
def test_extended_block_matches_mpmath(name, M, N):
    basis = EXTENDED_BASES[name]
    a = random_kernel(M, 3)
    cols = oracle.conv_coeff_block(PolySeries(basis, (-1, 1), a), N, extended=True)
    with mpmath.workdps(40):
        exact = _mp_columns(basis, a, N)
        err = np.array([[float(abs(mpmath.mpf(float(cols[k, n])) - exact[n][k]))
                         for n in range(N + 1)] for k in range(M + N + 2)])
    ref = np.abs(np.array([[float(exact[n][k]) for n in range(N + 1)]
                           for k in range(M + N + 2)]))
    bound = np.finfo(float).eps / 2 * ref + 2e-17 * ref.max()
    assert np.all(err <= bound), float(np.max(err / bound))


@pytest.mark.parametrize("basis, bound", [(bases.jacobi(0.0, 10.0), 1e-13),
                                          (bases.jacobi(-0.99, 5.0), 5e-13)],
                         ids=["jacobi_0_10", "jacobi_-0.99_5"])
def test_extended_projection_keeps_small_weights(basis, bound):
    # Jacobi(0, 10)'s weights span 111 binades over the projection nodes,
    # and p_k is largest near y = -1 where they are smallest; at
    # alpha = -0.99 most of the mass sits on the node nearest +1.  The
    # projection must keep the light nodes.
    a = random_kernel(10, 3)
    R = convmat.to_dense(convmat.build(basis, a, 300))
    cols = oracle.conv_coeff_block(PolySeries(basis, (-1, 1), a), 300, extended=True)
    assert np.max(np.abs(R - cols)) <= bound * np.max(np.abs(R))
