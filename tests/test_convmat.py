import gc
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from voltconv import bases, convmat, laguerre, oracle, volterra
from voltconv.errors import (ArgumentError, BasisParameterError,
                             DegenerateParameterError, DimensionError)
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

    def test_coinciding_bases_share_bits(self):
        # Legendre = Gegenbauer(1/2) = Jacobi(0, 0): their tables' Ainv and
        # Cinv are the same exact integers
        a = np.random.default_rng(3).uniform(-1, 1, 41)
        cols = [convmat.to_dense(convmat.build(basis, a, 0))[:, 0]
                for basis in (bases.legendre(), bases.gegenbauer(0.5), bases.jacobi(0.0, 0.0))]
        for col in cols[1:]:
            assert np.array_equal(col.view(np.int64), cols[0].view(np.int64))

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
        assert convmat._gegenbauer_tables(0.5, 0).shat[0] == pytest.approx(-1.0, abs=1e-15)
        assert convmat._gegenbauer_tables(0.5, 3).shat[3] == 0.0
        assert convmat._gegenbauer_tables(2.0, 0).shat[0] == pytest.approx(-4.0, abs=1e-15)

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
        # BasisSpec itself refuses the line, so every Jacobi entry point does
        for make in (lambda: convmat.jacobi_tables(-0.3, -0.7, 4),
                     lambda: bases.jacobi(-0.3, -0.7),
                     lambda: convmat.build_jacobi([1.0, 0.5], -0.3, -0.7, 4)):
            with pytest.raises(DegenerateParameterError):
                make()

    @pytest.mark.parametrize("basis, M, N", [
        (bases.gegenbauer(1000.0), 10, 300), (bases.gegenbauer(600.0), 10, 300),
        (bases.gegenbauer(300.0), 100, 400), (bases.jacobi(0.0, 1000.0), 10, 300)],
        ids=lambda v: v.label() if isinstance(v, bases.BasisSpec) else str(v))
    def test_overflowing_tables_rejected(self, basis, M, N):
        # shat's cumulative products overflow: the build refuses by name
        # before any pass over the matrix, and the overflow's RuntimeWarning,
        # an error under this suite's filter, does not escape
        with pytest.raises(BasisParameterError, match=f"M={M}, N={N}: .* shat overflows"):
            convmat.build(basis, random_kernel(M, 3), N)

    @pytest.mark.parametrize("basis", [bases.gegenbauer(200.0), bases.jacobi(0.0, 400.0)],
                             ids=lambda b: b.label())
    def test_large_finite_tables_build(self, basis):
        # max|R| is about 1e247 and 1e237 here, and still finite
        R = convmat.build(basis, random_kernel(100, 3), 400)
        assert np.all(np.isfinite(R.top)) and np.all(np.isfinite(R.band))


class TestSymmetryRatio:
    def test_diagonal(self):
        assert convmat.symmetry_ratio(bases.chebyshev(), 5, 5) == 1.0

    def test_chebyshev_value(self):
        assert convmat.symmetry_ratio(bases.chebyshev(), 3, 4) == pytest.approx(-4 / 3)

    def test_index_zero_rejected(self, finite_basis):
        for n, k in ((0, 4), (4, 0), (0, 0)):
            with pytest.raises(ArgumentError, match="n, k >= 1"):
                convmat.symmetry_ratio(finite_basis, n, k)

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


class TestRatioFactors:
    @staticmethod
    def sgn_quotient(basis, nmax, klo, khi, o):
        """R_{k,k+o} / R_{k+o,k} as (+-1) times the quotient, the sign first."""
        kfull = np.arange(nmax + 1, dtype=float)
        sgn = 1.0 if o % 2 == 0 else -1.0
        if basis.kind == bases.CHEBYSHEV:
            k = kfull[klo:khi + 1]
            return sgn * (k + o) / k
        if basis.kind in (bases.LEGENDRE, bases.GEGENBAUER):
            kl = kfull + (0.5 if basis.kind == bases.LEGENDRE else basis.lam)
            return sgn * kl[klo:khi + 1] / kl[klo + o:khi + o + 1]
        ab = basis.alpha + basis.beta
        f = (kfull + basis.alpha + 1.0) * (kfull + basis.beta + 1.0) / (kfull + ab + 1.0) ** 2
        F = np.concatenate([[1.0], np.cumprod(f)])
        sig = ab + 2.0 * kfull + 1.0
        prods = F[klo + o:khi + o + 1] / F[klo:khi + 1]
        return sgn * sig[klo:khi + 1] / sig[klo + o:khi + o + 1] * prods

    @pytest.mark.parametrize("basis", [bases.chebyshev(), bases.legendre(),
                                       bases.gegenbauer(2.0), bases.jacobi(2.0, 1.5),
                                       bases.jacobi(-0.5, 0.3)], ids=lambda b: b.label())
    @pytest.mark.parametrize("o", [1, 2, 7, 40])
    def test_bits_with_and_without_a_buffer(self, basis, o):
        nmax = 300
        ratios = convmat._ratio_tables(basis, nmax, o)
        for klo, khi in ((1, nmax - o), (11, 11), (150, 260 - o)):
            want = self.sgn_quotient(basis, nmax, klo, khi, o)
            k = slice(klo, khi + 1)
            buf, tmp = np.full((2, khi - klo + 1), np.nan)
            for got in (convmat._ratio(ratios, o, k), convmat._ratio(ratios, o, k, buf, tmp)):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            assert convmat._ratio(ratios, o, k, buf, tmp) is buf
            assert np.all(np.signbit(want) == (o % 2 == 1))

    @pytest.mark.parametrize("basis", [bases.chebyshev(), bases.jacobi(2.0, 1.5)],
                             ids=lambda b: b.label())
    def test_index_arrays_and_skewed_blocks(self, basis):
        # the pad rows index o by an array at one k, the mirror takes a block
        # of offsets by slices: both give each entry's 1-D bits
        nmax, omax = 300, 40
        ratios = convmat._ratio_tables(basis, nmax, omax)
        o = np.arange(1, omax + 1)
        want = [self.sgn_quotient(basis, nmax, 7, 7, j)[0] for j in o]
        got = convmat._ratio(ratios, o, 7)
        np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))
        block = convmat._ratio(ratios, slice(3, 9), slice(100, 250))
        for j in range(3, 9):
            want = self.sgn_quotient(basis, nmax, 100, 249, j)
            np.testing.assert_array_equal(block[j - 3].view(np.int64), want.view(np.int64))


class TestFlushSubnormal:
    @staticmethod
    def flushed(x):
        out = x.copy()
        np.copyto(out, 0.0, where=np.abs(out) < TINY)
        return out

    def test_nothing_below_tiny_is_not_written(self):
        x = np.array([1.0, -TINY, TINY, -3e300, np.inf, -np.inf])
        x.setflags(write=False)
        convmat._flush_subnormal(x, np.empty(8))    # a write would raise
        np.testing.assert_array_equal(x, [1.0, -TINY, TINY, -3e300, np.inf, -np.inf])

    @pytest.mark.parametrize("row", [
        [1.0, TINY / 4, -TINY / 4, -2.0, 5e-324, -5e-324],
        [-0.0, 1.0, 0.0, -0.0],
        [np.nan, 1.0, -TINY / 2, -0.0, TINY],
        [np.nan, 2.0, -3.0]], ids=["subnormals", "signed zeros", "nan", "nan only"])
    def test_matches_the_masked_copy(self, row):
        # subnormals of either sign and -0.0 become +0.0; NaN is kept
        x = np.array(row)
        want = self.flushed(x)
        convmat._flush_subnormal(x, np.full(x.size + 3, np.nan))
        np.testing.assert_array_equal(x.view(np.int64), want.view(np.int64))
        small = np.abs(np.array(row)) < TINY
        assert np.all(x[small] == 0.0) and not np.any(np.signbit(x[small]))


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


# conftest's finite bases, and Jacobi(1.5, 1.5): all-zero B with a dense top
ORACLE_BASES = {"chebyshev": bases.chebyshev(), "legendre": bases.legendre(),
                "gegenbauer": bases.gegenbauer(2.0), "jacobi": bases.jacobi(2.0, 1.5),
                "jacobi_1.5_1.5": bases.jacobi(1.5, 1.5)}


class TestOracleAgreement:
    @pytest.mark.parametrize("basis", list(ORACLE_BASES.values()), ids=list(ORACLE_BASES))
    def test_small_scale(self, basis):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, 11)
        N = 50
        R = convmat.build(basis, a, N)
        cols = oracle.conv_coeff_block(PolySeries(basis, (-1, 1), a), N,
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
        # on and below the diagonal the multipliers are <= 1, so there the
        # two agree; the blow-up witnesses alone would pass a naive builder
        # that read a wrong table entry
        for M, N in ((10, 50), (5, 30), (30, 10), (100, 40)):
            a = random_kernel(M, 1)
            Dn = convmat.build_chebyshev_naive(a, N)
            Ds = convmat.to_dense(convmat.build_chebyshev(a, N))
            assert np.tril(np.abs(Dn - Ds)).max() <= 1e-14 * np.abs(Ds).max(), (M, N)

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
    def test_matches_diagonal_loop(self, basis, M, N, monkeypatch):
        # a floor of one byte splits every matrix into one row block per CPU
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
        R = convmat.build(basis, a, N, scale=0.7)
        rng = np.random.default_rng(N)
        for size in (0, 1, N // 2 + 1, N + 1):
            b = rng.uniform(-1, 1, size)
            want = reference_apply(R, b)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(bases, "_cpu_count", lambda cpus=cpus: cpus)
                got = convmat.apply(R, b)
                assert np.array_equal(got, want), (size, cpus)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (size, cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_split_at_the_real_floor(self, cpus, monkeypatch):
        R = convmat.build(bases.jacobi(2.0, 1.5), random_kernel(100, 2), 4000)
        assert R.top.nbytes + R.band.nbytes >= 3 * convmat._MIN_APPLY_BYTES
        splits = []
        run_split = bases._run_split

        def record(work, parts):
            splits.append(len(parts))
            run_split(work, parts)

        monkeypatch.setattr(bases, "_run_split", record)
        monkeypatch.setattr(bases, "_cpu_count", lambda: cpus)
        for size in (4001, 1500):
            b = np.random.default_rng(size).uniform(-1, 1, size)
            got, want = convmat.apply(R, b), reference_apply(R, b)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        # the top rows hold a third of the entries here and ride with the
        # first block, but count at convmat._TOP_COST of a band entry, so
        # the first cut falls past row 0 and every CPU gets a block
        assert splits == [cpus, cpus]

    def test_nothing_is_submitted_below_the_floor(self, monkeypatch):
        def no_pool():
            raise AssertionError("the worker pool was used below the floor")

        monkeypatch.setattr(bases, "_pool", no_pool)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        for M, N in ((10, 200), (10, 7000), (100, 1200)):
            R = convmat.build(bases.chebyshev(), random_kernel(M, 2), N)
            assert R.top.nbytes + R.band.nbytes < 2 * convmat._MIN_APPLY_BYTES
            b = np.ones(N + 1)
            assert np.array_equal(convmat.apply(R, b), reference_apply(R, b))

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        caller = threading.get_ident()
        apply_rows = convmat._apply_rows

        def fail_on_worker(*args):
            if threading.get_ident() != caller:
                raise FloatingPointError("block failed")
            apply_rows(*args)

        monkeypatch.setattr(convmat, "_apply_rows", fail_on_worker)
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 2)
        R = convmat.build(bases.legendre(), random_kernel(10, 2), 200)
        with pytest.raises(FloatingPointError, match="block failed"):
            convmat.apply(R, np.ones(201))

    def test_workers_serve_again_after_an_error(self, monkeypatch):
        caller = threading.get_ident()
        apply_rows = convmat._apply_rows
        threads, fail = set(), [True]

        def record(*args):
            threads.add(threading.get_ident())
            if fail[0] and threading.get_ident() != caller:
                raise FloatingPointError("block failed")
            apply_rows(*args)

        monkeypatch.setattr(convmat, "_apply_rows", record)
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        R = convmat.build(bases.legendre(), random_kernel(10, 2), 200)
        b = np.random.default_rng(4).uniform(-1, 1, 201)
        with pytest.raises(FloatingPointError, match="block failed"):
            convmat.apply(R, b)
        failed_on, fail[0] = set(threads), False
        threads.clear()
        got = convmat.apply(R, b)
        assert np.array_equal(got, reference_apply(R, b))
        assert np.array_equal(np.signbit(got), np.signbit(reference_apply(R, b)))
        assert len(threads) == 3 and threads == failed_on

    def test_idle_workers_keep_nothing_alive(self, monkeypatch):
        # a worker that kept its last task would keep R, b and out alive
        # until its next split
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        R = convmat.build(bases.jacobi(2.0, 1.5), random_kernel(10, 2), 300)
        b = np.ones(301)
        out = convmat.apply(R, b)
        assert len(R._views[3]) == 3
        alive = weakref.ref(R)
        del R, b, out
        gc.collect()
        assert alive() is None

    def test_concurrent_callers_get_exact_results(self, monkeypatch):
        # more blocks than CPUs, from two threads at once, switching often
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        cases = []
        for seed, basis in enumerate((bases.gegenbauer(2.0), bases.jacobi(2.0, 1.5))):
            R = convmat.build(basis, random_kernel(10, seed), 300)
            b = np.random.default_rng(seed).uniform(-1, 1, 301)
            cases.append((R, b, reference_apply(R, b)))
        bad = []

        def run(R, b, want):
            for _ in range(200):
                got = convmat.apply(R, b)
                if not np.array_equal(got, want):
                    bad.append(got)

        threads = [threading.Thread(target=run, args=case) for case in cases]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad

    def test_row_block_views_share_band(self, monkeypatch):
        R = convmat.build(bases.jacobi(2.0, 1.5), random_kernel(10, 2), 50)
        b = np.ones(51)
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(bases, "_cpu_count", lambda cpus=cpus: cpus)
            convmat.apply(R, b)
            views = R._views[cpus]
            assert 1 <= len(views) <= cpus
            assert [lo for lo, _ in views] == list(
                np.cumsum([0] + [view.shape[0] for _, view in views[:-1]]))
            assert sum(view.shape[0] for _, view in views) == R.N + 1   # rows M+1..
            for lo, view in views:
                assert np.shares_memory(view.data, R.band)
                assert view.shape[1] == R.N + 1
            convmat.apply(R, b)
            assert R._views[cpus] is views
        assert len(R._views[1]) == 1 and len(R._views[2]) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 2)
        R = convmat.build(bases.legendre(), random_kernel(10, 2), 200)
        b = np.ones(201)
        want = convmat.apply(R, b)      # the pool now has a thread, which fork drops
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)   # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(convmat.apply(R, b), want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's apply did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

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


def _bits(R):
    return R.top.view(np.int64).copy(), R.band.view(np.int64).copy()


class TestSplitBuild:
    """Above the floor a worker zeroes top beside region A and runs region B
    beside region C; the matrix keeps the inline build's bits."""

    @staticmethod
    def counted_splits(monkeypatch):
        splits = []
        run_split = bases._run_split

        def record(work, parts):
            splits.append(len(parts))
            run_split(work, parts)

        monkeypatch.setattr(bases, "_run_split", record)
        return splits

    @pytest.mark.parametrize("basis", list(APPLY_BASES.values()), ids=list(APPLY_BASES))
    @pytest.mark.parametrize("M, N", [(0, 0), (3, 1), (5, 12), (40, 60), (200, 50),
                                      (200, 150), (10, 200), (200, 1000)])
    def test_bits_do_not_depend_on_the_cpu_count(self, basis, M, N, monkeypatch):
        # every case lies below the floor, so the reference builds inline; a
        # floor of one byte splits every build over two CPUs or more, except
        # that Legendre's banded region C at (10, 200), with rows under an
        # eighth of region B's, keeps region B inline.  At (200, 1000) the
        # mirror runs in several blocks, split or not
        a = np.random.default_rng(M + 17 * N).uniform(-1, 1, M + 1)
        scales = (1.0, 1e-300)                  # 1e-300: nothing is flushed
        want = [_bits(convmat.build(basis, scale * a, N)) for scale in scales]
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        splits, blocks, mirror = self.counted_splits(monkeypatch), [], convmat._mirror

        def counted_mirror(ratios, M, flush, src, dst, mirror_blocks, *rest):
            blocks.append(len(mirror_blocks))
            mirror(ratios, M, flush, src, dst, mirror_blocks, *rest)

        monkeypatch.setattr(convmat, "_mirror", counted_mirror)
        short_c = basis.kind == bases.LEGENDRE and (M, N) == (10, 200)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(bases, "_cpu_count", lambda cpus=cpus: cpus)
            for scale, bits in zip(scales, want):
                splits.clear()
                blocks.clear()
                for got, ref in zip(_bits(convmat.build(basis, scale * a, N)), bits):
                    assert np.array_equal(got, ref), (scale, cpus)
                assert (2 in splits) == (cpus > 1 and not short_c), (scale, cpus)
                if (M, N) == (200, 1000):
                    assert blocks[0] >= 2, (scale, cpus)

    @pytest.mark.parametrize("basis", list(APPLY_BASES.values()), ids=list(APPLY_BASES))
    @pytest.mark.parametrize("M, N, scale", [(40, 60, 1.0), (200, 150, 1.0), (10, 200, 1e-300),
                                             (30, 400, 1.0)])
    def test_superdiagonals_are_the_mirror(self, basis, M, N, scale, monkeypatch):
        # R_{k,k+o} = sgn_quotient * R_{k+o,k}, flushed as the build flushes,
        # bit for bit; an exact zero may carry either sign where it is written.
        # band's slots outside R's rows M+1..M+N+1 hold +0.0 only
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 2)
        R = convmat.build(basis, scale * random_kernel(M, 5), N)
        d, n = np.indices(R.band.shape)
        k = n + d - (M + 1)
        assert not np.any(R.band.view(np.int64)[(k <= M) | (k > M + N + 1)])
        for o in range(1, M + 2):
            if N - o < M + 1:
                continue
            got = R.band[M + 1 - o, M + 1 + o:N + 1]
            want = (TestRatioFactors.sgn_quotient(basis, N, M + 1, N - o, o)
                    * R.band[M + 1 + o, M + 1:N + 1 - o])
            if scale == 1.0:
                want[np.abs(want) < TINY] = 0.0
            nonzero = want != 0.0
            assert np.array_equal(got[nonzero].view(np.int64), want[nonzero].view(np.int64)), o
            assert np.all(got[~nonzero] == 0.0), o

    @pytest.mark.parametrize("basis", list(APPLY_BASES.values()), ids=list(APPLY_BASES))
    @pytest.mark.parametrize("M, N, scale", [(40, 60, 1.0), (200, 150, 1e-300), (60, 300, 1e-300)])
    def test_pad_rows_are_the_stored_rows(self, basis, M, N, scale, monkeypatch):
        # region C starts from R's rows M+1 and M+2, formed before region B
        # stores them: they must equal band's, sign bits included
        pads, pad_rows = [], convmat._pad_rows

        def record(ratios, M, W, D, ends, flush, pad, t):
            pad_rows(ratios, M, W, D, ends, flush, pad, t)
            pads.append(pad.copy())

        monkeypatch.setattr(convmat, "_pad_rows", record)
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 2)
        R = convmat.build(basis, scale * random_kernel(M, 5), N)
        for i, r in enumerate((M + 1, M + 2)):
            n = np.arange(r - M - 1, min(N, r + M + 1) + 1)
            assert np.array_equal(pads[0][i, n].view(np.int64),
                                  R.band[r - n + M + 1, n].view(np.int64)), r

    def test_no_pool_below_the_floor(self, monkeypatch):
        def no_pool():
            raise AssertionError("the worker pool was used below the floor")

        monkeypatch.setattr(bases, "_pool", no_pool)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        for basis in (bases.chebyshev(), bases.legendre()):
            for M, N in ((10, 200), (10, 7000), (100, 1000), (100, 1200)):
                R = convmat.build(basis, random_kernel(M, 2), N)
                assert R.top.nbytes + R.band.nbytes < 2 * convmat._MIN_APPLY_BYTES

    @pytest.mark.parametrize("which", [0, 1], ids=["zero-top", "region-b"])
    def test_worker_error_reaches_the_caller(self, which, monkeypatch):
        caller, calls = threading.get_ident(), []
        run_split = bases._run_split

        def fail_on_worker(*args):
            if threading.get_ident() != caller:
                raise FloatingPointError("phase failed")

        def record(work, parts):
            calls.append(len(parts))
            if len(calls) == which + 1:
                parts = [(fail_on_worker,) + tuple(parts[0][1:])] + list(parts[1:])
            run_split(work, parts)

        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 2)
        monkeypatch.setattr(bases, "_run_split", record)
        with pytest.raises(FloatingPointError, match="phase failed"):
            convmat.build(bases.jacobi(2.0, 1.5), random_kernel(10, 2), 200)
        assert calls[which] == 2
        monkeypatch.setattr(bases, "_run_split", run_split)
        want = _bits(convmat.build(bases.jacobi(2.0, 1.5), random_kernel(10, 2), 200))
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1 << 40)
        for g, w in zip(want, _bits(convmat.build(bases.jacobi(2.0, 1.5),
                                                   random_kernel(10, 2), 200))):
            assert np.array_equal(g, w)

    def test_concurrent_builds_keep_their_bits(self, monkeypatch):
        # two calling threads split their builds over one pool, switching
        # often: a build that finds the pool busy runs its phases inline
        cases = [(basis, random_kernel(M, seed), N) for seed, (basis, M, N) in enumerate(
            ((bases.jacobi(2.0, 1.5), 40, 300), (bases.chebyshev(), 10, 500)))]
        want = [_bits(convmat.build(*case)) for case in cases]
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        bad = []

        def run(case, bits):
            for _ in range(30):
                got = _bits(convmat.build(*case))
                if not all(np.array_equal(g, w) for g, w in zip(got, bits)):
                    bad.append(case)

        threads = [threading.Thread(target=run, args=pair) for pair in zip(cases, want)]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad

    def test_workers_keep_no_matrix_alive(self, monkeypatch):
        # a worker that kept its last phase would keep top or band alive
        # until its next split
        monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        splits = self.counted_splits(monkeypatch)
        R = convmat.build(bases.jacobi(2.0, 1.5), random_kernel(10, 2), 300)
        assert splits == [2, 2]
        alive = [weakref.ref(R.top), weakref.ref(R.band if R.band.base is None else R.band.base)]
        del R
        gc.collect()
        assert [ref() for ref in alive] == [None, None]


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


def test_split_build_memory_is_its_work_arrays_and_scratch(finite_basis, monkeypatch):
    # split, the build adds to its work arrays only the scratch of region
    # B's blocks beside region C: 17 bytes per entry, at most 64 padded rows
    M, N = 200, 300
    a = random_kernel(M, 3)
    monkeypatch.setattr(convmat, "_MIN_APPLY_BYTES", 1)
    monkeypatch.setattr(bases, "_cpu_count", lambda: 2)
    splits = TestSplitBuild.counted_splits(monkeypatch)
    convmat.build(finite_basis, a, N)         # LAPACK's import is not traced
    tracemalloc.start()
    try:
        convmat.build(finite_basis, a, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 in splits
    work = 8 * ((M + 1) * (N + 1) + (2 * M + 3) * (N + 1) + 16 * (N + M + 2))
    scratch = 17 * 64 * (N + M + 2)
    assert peak <= 1.1 * work + scratch, (peak - 1.1 * work) / scratch


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
