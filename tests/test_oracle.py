import numpy as np
import pytest

from voltconv import bases, convmat, oracle
from voltconv.errors import ArgumentError, DimensionError, OversizeError
from voltconv.series import PolySeries, evaluate, indefinite_integral_cheb


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
