import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from voltconv import bases, convmat, laguerre, oracle, volterra
from voltconv.errors import (ArgumentError, DegenerateParameterError,
                             DimensionError)
from voltconv.prng import random_kernel
from voltconv.series import PolySeries, indefinite_integral_cheb

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


class TestColumnZero:
    def test_matches_indefinite_integral(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 9)  # M = 8
        np.testing.assert_array_equal(
            convmat.to_dense(convmat.build_chebyshev(a, 0))[:, 0],
            indefinite_integral_cheb(a))

    def test_constant(self):
        np.testing.assert_allclose(
            convmat.to_dense(convmat.build_chebyshev([1.0], 0))[:, 0], [1, 1], atol=0)

    def test_empty_raises(self):
        with pytest.raises(ArgumentError):
            convmat.build_chebyshev([], 0)


class TestAnalyticMatrices:
    def test_chebyshev_unit_kernel(self):
        D = convmat.to_dense(convmat.build_chebyshev([1.0], 2))
        expect = np.array([[1, -0.25, -1 / 3],
                           [1, 0, -0.5],
                           [0, 0.25, 0],
                           [0, 0, 1 / 6]])
        np.testing.assert_allclose(D, expect, atol=1e-15)

    def test_legendre_unit_kernel(self):
        D = convmat.to_dense(convmat.build_legendre([1.0], 1))
        np.testing.assert_allclose(D, [[1, -1 / 3], [1, 0], [0, 1 / 3]], atol=1e-15)

    def test_gegenbauer_unit_kernel(self):
        D = convmat.to_dense(convmat.build_gegenbauer([1.0], 2.0, 1))
        np.testing.assert_allclose(D, [[1, -5 / 3], [0.25, 0], [0, 1 / 6]], atol=1e-15)

    def test_jacobi_column0(self):
        D = convmat.to_dense(convmat.build_jacobi([1.0], 2.0, 1.5, 0))
        np.testing.assert_allclose(D[:, 0], [10 / 11, 4 / 11], atol=1e-15)


class TestTables:
    def test_gegenbauer_S_values(self):
        assert bases.gegenbauer_S_array(0.5, 0)[0] == pytest.approx(-1.0, abs=1e-15)
        assert bases.gegenbauer_S_array(0.5, 3)[3] == 0.0
        assert bases.gegenbauer_S_array(2.0, 0)[0] == pytest.approx(-4.0, abs=1e-15)

    def test_jacobi_symmetric_kills_B(self):
        t = convmat.jacobi_tables(1.0, 1.0, 8)
        assert np.all(t.B[1:] == 0.0)

    def test_legendre_values(self):
        t = convmat.jacobi_tables(0.0, 0.0, 8)
        assert t.A[1] == pytest.approx(1.0, abs=1e-15)
        assert t.C[0] == pytest.approx(-1 / 3, abs=1e-15)
        # merged S_0 - B_0 slot over A_1 = 1; matches the Gegenbauer constant
        # at lam = 1/2
        assert t.shat[0] == pytest.approx(-1.0, abs=1e-15)
        assert np.all(t.shat[1:] == 0.0)

    def test_all_finite(self):
        t = convmat.jacobi_tables(2.0, 1.5, 64)
        for arr in (t.A, t.B, t.C, t.shat):
            assert np.all(np.isfinite(arr))

    def test_chebyshev_values(self):
        t = convmat._tables(bases.chebyshev(), 8)
        j = np.arange(10.0)
        assert t.A[1] == 1.0                     # the integral of T_0 is T_1
        np.testing.assert_array_equal(t.A[2:], 1.0 / (2.0 * j[2:]))
        assert np.all(t.B == 0.0)
        assert t.C[0] == 0.0                     # T_{-1} carries no term
        np.testing.assert_array_equal(t.C[1:], -1.0 / (2.0 * j[1:]))
        n = j[2:9]
        np.testing.assert_array_equal(t.shat[:2], [-1.0, 1.0])
        np.testing.assert_allclose(t.shat[2:], 2.0 * (-1.0) ** n / (n - 1.0),
                                   rtol=1e-15)

    def test_degenerate_line_rejected(self):
        with pytest.raises(DegenerateParameterError):
            convmat.jacobi_tables(-0.3, -0.7, 4)


class TestSymmetryRatio:
    def test_diagonal(self):
        assert convmat.symmetry_ratio(bases.chebyshev(), 5, 5) == 1.0

    def test_chebyshev_value(self):
        assert convmat.symmetry_ratio(bases.chebyshev(), 3, 4) == pytest.approx(-4 / 3)

    def test_chebyshev_n0_rejected(self):
        with pytest.raises(ArgumentError):
            convmat.symmetry_ratio(bases.chebyshev(), 0, 4)

    def test_jacobi_product_vs_quotient(self):
        al, be = 2.0, 1.5

        def poch(x, m):
            r = 1.0
            for i in range(m):
                r *= x + i
            return r

        def quotient(n, k):
            ab = al + be
            return ((-1) ** (k + n) * (ab + 2 * n + 1) / (ab + 2 * k + 1)
                    * poch(al + 1, k) * poch(be + 1, k) * poch(ab + 1, n) ** 2
                    / (poch(al + 1, n) * poch(be + 1, n) * poch(ab + 1, k) ** 2))

        got = convmat.symmetry_ratio(bases.jacobi(al, be), 3, 6)
        assert got == pytest.approx(quotient(3, 6), rel=1e-13)
        got = convmat.symmetry_ratio(bases.jacobi(al, be), 6, 3)
        assert got == pytest.approx(1.0 / quotient(3, 6), rel=1e-13)


class TestStructure:
    def test_legendre_exact_band(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 6)  # M = 5
        D = convmat.to_dense(convmat.build_legendre(a, 40))
        k, n = np.indices(D.shape)
        assert np.all(D[np.abs(k - n) > 6] == 0.0)

    @pytest.mark.parametrize("basis", [bases.jacobi(0.0, 0.0), bases.jacobi(2.0, 0.0),
                                       bases.jacobi(-0.5, 0.0), bases.gegenbauer(0.5)],
                             ids=lambda b: b.label())
    def test_homogeneous_recursion_exact_band(self, basis):
        # shat_n = 0 for n >= 1: the top rows vanish beyond the band, and the
        # shortened region-C sweep still agrees with the oracle everywhere
        M, N = 10, 300
        a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
        R = convmat.build(basis, a, N)
        k, n = np.indices(R.top.shape)
        assert np.all(R.top[n > k + M + 1] == 0.0)
        cols = oracle.conv_coeff_block(PolySeries(basis, (-1, 1), a), N, extended=True)
        assert np.abs(cols[:M + 1][n > k + M + 1]).max() < 1e-18
        assert oracle.compare_entrywise(R, cols).max_abs < 1e-15

    def test_lower_structural_zeros(self, finite_basis):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, 5)  # M = 4
        D = convmat.to_dense(convmat.build(finite_basis, a, 25))
        k, n = np.indices(D.shape)
        assert np.all(D[k > n + 5] == 0.0)

    def test_entry_accessor(self):
        R = convmat.build_chebyshev([1.0], 2, scale=2.0)
        D = convmat.to_dense(R)
        for k in range(4):
            for n in range(3):
                assert R.entry(k, n) == D[k, n]
        with pytest.raises(DimensionError):
            R.entry(4, 0)

    def test_shape_and_bandwidth(self):
        R = convmat.build_chebyshev(np.ones(8), 30)
        assert R.shape == (7 + 30 + 2, 31)
        assert R.bandwidth == 8


@pytest.mark.parametrize("M, N", [(0, 0), (3, 1), (5, 12), (10, 15)])
class TestLayout:
    """top and band as documented; N < 2M+3 runs the padded-column extension."""

    def build(self, basis, M, N):
        a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
        return convmat.build(basis, a, N, scale=0.7)

    def test_storage(self, finite_basis, M, N):
        R = self.build(finite_basis, M, N)
        assert R.top.shape == (M + 1, N + 1)
        assert R.band.shape == (2 * M + 3, N + 1)
        for arr in (R.top, R.band):
            assert arr.flags.c_contiguous and not arr.flags.writeable
        d, n = np.indices(R.band.shape)
        k = d + n - (M + 1)                     # band[d, n] = R_{k, n}
        assert np.all(R.band[(k < M + 1) | (k > M + N + 1)] == 0.0)

    def test_readers_agree(self, finite_basis, M, N):
        R = self.build(finite_basis, M, N)
        D = convmat.to_dense(R)
        assert D.shape == R.shape
        for n in range(N + 1):
            np.testing.assert_array_equal(R.scale * convmat._column(R, n), D[:, n])
            for k in range(M + N + 2):
                assert R.entry(k, n) == D[k, n]
            np.testing.assert_array_equal(volterra.truncate_square(R, n),
                                          D[:n + 1, :n + 1])


class TestLegendreOracle:
    def test_random_kernel_tight_tolerance(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, 11)  # M = 10
        R = convmat.build_legendre(a, 50)
        cols = oracle.conv_coeff_block(PolySeries(bases.legendre(), (-1, 1), a),
                                       50, extended=True)
        assert oracle.compare_entrywise(R, cols).max_abs <= 1e-14


class TestBasisCoincidences:
    def test_legendre_gegenbauer_jacobi_agree(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, 9)  # M = 8
        DL = convmat.to_dense(convmat.build_legendre(a, 40))
        DG = convmat.to_dense(convmat.build_gegenbauer(a, 0.5, 40))
        DJ = convmat.to_dense(convmat.build_jacobi(a, 0.0, 0.0, 40))
        assert np.max(np.abs(DL - DG)) < 1e-14
        assert np.max(np.abs(DL - DJ)) < 1e-14


class TestOracleAgreement:
    def test_small_scale(self, finite_basis):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, 11)
        N = 50
        R = convmat.build(finite_basis, a, N)
        cols = oracle.conv_coeff_block(PolySeries(finite_basis, (-1, 1), a), N,
                                       extended=True)
        rep = oracle.compare_entrywise(R, cols)
        assert rep.max_abs < 1e-13

    def test_edge_sizes(self, finite_basis):
        for (M, N) in [(0, 0), (0, 1), (0, 7), (1, 0), (3, 1), (5, 3), (9, 2)]:
            rng = np.random.default_rng(M * 37 + N)
            a = rng.uniform(-1, 1, M + 1)
            R = convmat.build(finite_basis, a, N)
            cols = oracle.conv_coeff_block(PolySeries(finite_basis, (-1, 1), a), N,
                                           extended=True)
            rep = oracle.compare_entrywise(R, cols)
            assert rep.max_abs < 1e-13, (M, N, rep.max_abs)


class TestNaive:
    def test_tiny_case_matches_stable(self):
        Dn = convmat.build_chebyshev_naive([1.0], 2)
        Ds = convmat.to_dense(convmat.build_chebyshev([1.0], 2))
        np.testing.assert_allclose(Dn, Ds, atol=1e-15)

    def test_instability_witness(self):
        from voltconv.prng import random_kernel
        a = random_kernel(10, 1)
        naive = convmat.build_chebyshev_naive(a, 50)
        stable = convmat.to_dense(convmat.build_chebyshev(a, 50))
        above = np.triu(np.abs(naive - stable), k=1)
        assert above.max() >= 1e3
        assert abs(naive[0, 50]) >= 1e6
        assert abs(stable[0, 50]) <= 1.0


APPLY_BASES = {"chebyshev": bases.chebyshev(), "legendre": bases.legendre(),
               "gegenbauer2": bases.gegenbauer(2.0), "jacobi_2_1.5": bases.jacobi(2.0, 1.5),
               "jacobi_-0.5_0.3": bases.jacobi(-0.5, 0.3)}


def reference_apply(R, b):
    """scale * (R b) by one loop over the band diagonals in band row order,
    after the top rows' product on rows 0..M."""
    M, N = R.M, R.N
    out = np.zeros(M + N + 2)
    out[:M + 1] = R.top[:, :b.size] @ b
    for o in range(-(M + 1), M + 2):          # band row o + M + 1: R_{n+o, n}
        nlo, nhi = max(0, M + 1 - o), min(b.size - 1, M + N + 1 - o)
        if nlo <= nhi:
            out[nlo + o:nhi + o + 1] += R.band[o + M + 1, nlo:nhi + 1] * b[nlo:nhi + 1]
    return R.scale * out


class TestApply:
    def test_column_selection(self):
        R = convmat.build_chebyshev([1.0], 2)
        np.testing.assert_allclose(convmat.apply(R, [0, 0, 1.0]),
                                   [-1 / 3, -0.5, 0, 1 / 6], atol=1e-15)

    def test_zero_vector(self):
        R = convmat.build_chebyshev([1.0], 2)
        np.testing.assert_array_equal(convmat.apply(R, [0.0]), np.zeros(4))

    def test_short_vector_zero_padded(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, 7)
        R = convmat.build_chebyshev(a, 30)
        b = rng.uniform(-1, 1, 12)
        bp = np.zeros(31)
        bp[:12] = b
        np.testing.assert_allclose(convmat.apply(R, b), convmat.to_dense(R) @ bp,
                                   atol=1e-14)

    def test_too_long_raises(self):
        R = convmat.build_chebyshev([1.0], 2)
        with pytest.raises(DimensionError):
            convmat.apply(R, np.ones(4))

    @pytest.mark.parametrize("basis", list(APPLY_BASES.values()), ids=list(APPLY_BASES))
    @pytest.mark.parametrize("M, N", [(0, 0), (3, 1), (5, 12), (10, 15), (40, 60),
                                      (10, 200)])
    def test_matches_diagonal_loop(self, basis, M, N):
        a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
        R = convmat.build(basis, a, N, scale=0.7)
        rng = np.random.default_rng(N)
        for size in (0, 1, N // 2 + 1, N + 1):
            b = rng.uniform(-1, 1, size)
            assert np.array_equal(convmat.apply(R, b), reference_apply(R, b)), size

    def test_dia_view_shares_band(self):
        R = convmat.build(bases.jacobi(2.0, 1.5), random_kernel(10, 2), 50)
        b = np.ones(51)
        convmat.apply(R, b)
        view = R._dia
        assert np.shares_memory(view.data, R.band)
        assert view.shape == (R.N + 1, R.N + 1)     # R's rows M+1..M+N+1
        convmat.apply(R, b)
        assert R._dia is view

    def test_matches_dense_columns(self, finite_basis):
        rng = np.random.default_rng(10)
        a = rng.uniform(-1, 1, 7)  # M = 6
        R = convmat.build(finite_basis, a, 30, scale=1.3)
        D = convmat.to_dense(R)
        for n in range(31):
            e = np.zeros(n + 1)
            e[n] = 1.0
            np.testing.assert_allclose(convmat.apply(R, e), D[:, n], atol=0)


def minus_one_values(basis, n):
    """p_k(-1) for k = 0..n-1 from the closed forms (-1)^k (s)_k / k!.

    The Pochhammer quotient is a running product of (s + j) / (j + 1): its
    relative error grows like sqrt(k) eps, where exp(gammaln) loses
    eps |gammaln| ~ 1e-11 at k = 20000.
    """
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    if basis.kind in (bases.CHEBYSHEV, bases.LEGENDRE):
        return sign
    s = 2.0 * basis.lam if basis.kind == bases.GEGENBAUER else basis.beta + 1.0
    j = np.arange(n - 1, dtype=float)
    return sign * np.concatenate([[1.0], np.cumprod((s + j) / (j + 1.0))])


class TestRegionA:
    """Region A runs one forward recurrence per band offset."""

    def test_boundary_identity_at_large_n(self, finite_basis):
        # sum_k R_{k,n} p_k(-1) = 0 for every column n >= 2 (the row-0
        # entries of columns 0 and 1 come from that sum, so theirs is
        # vacuous).  Rounding accumulates additively over the column steps,
        # so the bound is 64 eps per row of the column times sum_k |R_kn p_k|,
        # plus 64 eps times column 0's entry scale.
        M, N = 10, 20000
        R = convmat.build(finite_basis, random_kernel(M, 2), N)
        w = minus_one_values(finite_basis, M + N + 2)
        res = w[:M + 1] @ R.top
        size = np.abs(w[:M + 1]) @ np.abs(R.top)
        n = np.arange(N + 1)
        for o in range(-(M + 1), M + 2):          # band row o + M + 1: R_{n+o, n}
            k = n + o
            ok = (k >= M + 1) & (k <= M + N + 1)
            terms = R.band[o + M + 1, ok] * w[k[ok]]
            res[ok] += terms
            size[ok] += np.abs(terms)
        floor = np.abs(convmat._column(R, 0) * w).sum()
        rows = M + n + 2
        ratio = np.abs(res[2:]) / (64 * EPS * (rows[2:] * size[2:] + floor))
        assert ratio.max() <= 1.0, (int(ratio.argmax()) + 2, ratio.max())

    def test_no_subnormals_stored(self, finite_basis):
        # at M = 1000 a sizeable share of the band underflows; those entries
        # are stored as exact zeros, not as subnormals
        R = convmat.build(finite_basis, random_kernel(1000, 3), 5000)
        for row in itertools.chain(R.top, R.band):
            assert not np.any((row != 0.0) & (np.abs(row) < TINY))

    def test_tiny_kernel_keeps_exact_arithmetic(self, finite_basis):
        # eps^2 max|col0| < tiny: nothing is flushed, so scaling the kernel
        # by a power of two scales the matrix to within subnormal rounding
        a, s = random_kernel(30, 4), 2.0 ** -1000
        R = convmat.build(finite_basis, a, 400)
        Rs = convmat.build(finite_basis, s * a, 400)
        scale = s * max(np.abs(R.top).max(), np.abs(R.band).max())
        for big, small in ((R.top, Rs.top), (R.band, Rs.band)):
            assert np.abs(small - s * big).max() <= EPS * scale


def test_build_memory_is_its_work_arrays(finite_basis):
    # the build's peak is what it returns, top and band, plus a few rows
    # over the N+M+2 padded columns: no (M+3) x (N+M+2) work array for top,
    # which would take 1.22 times this bound at this shape
    M, N = 200, 300
    a = random_kernel(M, 3)
    convmat.build(finite_basis, a, N)         # LAPACK's import is not traced
    tracemalloc.start()
    try:
        convmat.build(finite_basis, a, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = 8 * ((M + 1) * (N + 1) + (2 * M + 3) * (N + 1) + 16 * (N + M + 2))
    assert peak <= 1.1 * work, peak / work


def test_region_a_solves_few_subnormals(monkeypatch):
    # past g's reach each offset decays in short chunks and stops at its
    # last nonzero entry, so few solved entries fall below finfo.tiny
    from scipy.linalg import lapack
    dtbtrs, count = lapack.dtbtrs, [0, 0]

    def counted(ab, b, **kwargs):
        out = dtbtrs(ab, b, **kwargs)
        count[0] += np.count_nonzero((out[0] != 0.0) & (np.abs(out[0]) < TINY))
        count[1] += out[0].size
        return out

    monkeypatch.setattr(lapack, "dtbtrs", counted)
    M = 1000
    convmat.build(bases.chebyshev(), random_kernel(M, 3), 5000)
    assert count[1] > 0 and count[0] <= 32 * (M + 2), count


def test_import_loads_no_fft_or_linalg():
    # scipy.fft takes ~0.4 s to import; it, LAPACK and scipy.sparse load on
    # first use
    import voltconv
    code = ("import sys, voltconv; print(sorted(m for m in "
            "('scipy.fft', 'scipy.linalg', 'scipy.sparse') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(voltconv.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


BUILDERS = {
    "stable": lambda a, N: convmat.build(bases.chebyshev(), a, N),
    "naive": convmat.build_chebyshev_naive,
    "laguerre": laguerre.build_laguerre,
}


@pytest.mark.parametrize("builder", list(BUILDERS))
class TestInputValidation:
    def test_2d_kernel(self, builder):
        with pytest.raises(DimensionError, match="1-D"):
            BUILDERS[builder](np.ones((2, 3)), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_kernel(self, builder, bad):
        with pytest.raises(ArgumentError):
            BUILDERS[builder]([1.0, bad, 0.5], 4)

    @pytest.mark.parametrize("N", [True, 2.5])
    def test_non_integer_N(self, builder, N):
        with pytest.raises(ArgumentError):
            BUILDERS[builder]([1.0, 0.5], N)


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_nonfinite_scale(scale):
    with pytest.raises(ArgumentError):
        convmat.build(bases.chebyshev(), [1.0, 0.5], 4, scale=scale)
