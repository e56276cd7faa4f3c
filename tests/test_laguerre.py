import math

import numpy as np
import pytest

from voltconv import bases, laguerre
from voltconv.errors import ArgumentError, DimensionError, RangeOverflowError
from voltconv.series import evaluate


def closed_form_g_coeffs(nmax):
    # Expansion of -(cos(sqrt3 x/2) + sqrt3 sin(sqrt3 x/2)) e^{-3x/2} / 3 in
    # the weighted basis: b_n = integral g L_n dx has the closed form below
    # (Laplace transform of L_n at p = 3/2 -+ i sqrt3/2, combined phases).
    n = np.arange(nmax + 1)
    return -(2 / 3) * 3.0 ** (-(n + 1) / 2) * np.cos(np.pi * (n + 1) / 6)


def g_func(x):
    return -(np.cos(np.sqrt(3) / 2 * x)
             + np.sqrt(3) * np.sin(np.sqrt(3) / 2 * x)) * np.exp(-1.5 * x) / 3


class TestStructure:
    def test_unit_kernel(self):
        R = laguerre.build_laguerre([1.0], 0)
        np.testing.assert_array_equal(laguerre.to_dense_laguerre(R), [[1], [-1]])

    def test_shifted_kernel_column(self):
        R = laguerre.build_laguerre([0, 1.0], 2)
        D = laguerre.to_dense_laguerre(R)
        np.testing.assert_array_equal(D[:, 2], [0, 0, 0, 1, -1])

    def test_zero_kernel(self):
        R = laguerre.build_laguerre([0.0, 0.0, 0.0], 4)
        assert np.all(laguerre.to_dense_laguerre(R) == 0.0)

    def test_entry_matches_dense(self):
        # bit for bit, so the sign of a zero too: one kernel holds a -0.0
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, 6)
        signed = a.copy()
        signed[2] = -0.0
        for kernel, N in ((a, 9), (signed, 9), (signed, 0), ([-0.0], 3), ([0.5], 0)):
            R = laguerre.build_laguerre(kernel, N)
            D = laguerre.to_dense_laguerre(R)
            entries = np.array([[R.entry(k, n) for n in range(D.shape[1])]
                                for k in range(D.shape[0])])
            np.testing.assert_array_equal(entries.view(np.int64), D.view(np.int64))

    def test_column_sums_telescope(self):
        rng = np.random.default_rng(1)
        R = laguerre.build_laguerre(rng.uniform(-1, 1, 9), 6)
        sums = laguerre.to_dense_laguerre(R).sum(axis=0)
        assert np.max(np.abs(sums)) < 1e-14


class TestApply:
    def test_basis_pair(self):
        c = laguerre.apply_laguerre(laguerre.build_laguerre([1.0], 0), [1.0])
        np.testing.assert_array_equal(c, [1, -1])

    def test_shifted_pair(self):
        c = laguerre.apply_laguerre(laguerre.build_laguerre([0, 1.0], 2), [0, 0, 1.0])
        np.testing.assert_array_equal(c, [0, 0, 0, 1, -1])

    def test_columns_match_dense(self):
        rng = np.random.default_rng(2)
        R = laguerre.build_laguerre(rng.uniform(-1, 1, 21), 15)
        D = laguerre.to_dense_laguerre(R)
        for n in range(16):
            e = np.zeros(n + 1)
            e[n] = 1.0
            c = laguerre.apply_laguerre(R, e)
            np.testing.assert_allclose(c, D[:len(c), n], atol=0)
            assert np.all(D[len(c):, n] == 0.0)

    def test_fast_path_matches_direct(self):
        rng = np.random.default_rng(3)
        for deg in (300, 4096):
            a = rng.uniform(-1, 1, deg + 1)
            b = rng.uniform(-1, 1, deg + 1)
            R = laguerre.build_laguerre(a, deg)
            assert (a.size * b.size) > laguerre.FFT_THRESHOLD
            got = laguerre.apply_laguerre(R, b)
            s = np.convolve(a, b)
            ref = np.concatenate([[s[0]], np.diff(s), [-s[-1]]])
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_kernel_transformed_once_per_fft_length(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 301)
        R = laguerre.build_laguerre(a, 1000)
        rfft = np.fft.rfft
        kernel_calls = []

        def counting_rfft(x, n=None, *args, **kwargs):
            if x is R.a:
                kernel_calls.append(n)
            return rfft(x, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        for size in (1001, 1001, 400, 1001, 400):     # FFT lengths 2048 and 1024
            b = rng.uniform(-1, 1, size)
            assert (a.size * b.size) > laguerre.FFT_THRESHOLD
            got = laguerre.apply_laguerre(R, b)
            s = np.convolve(a, b)
            ref = np.concatenate([[s[0]], np.diff(s), [-s[-1]]])
            assert np.max(np.abs(got - ref)) < 1e-13
        assert kernel_calls == [2048, 1024]
        # a second matrix over the same kernel values keeps its own transforms
        R2 = laguerre.build_laguerre(a, 1000)
        assert np.array_equal(laguerre.apply_laguerre(R2, b), got)
        assert list(R2._kernel_rfft) == [1024] and sorted(R._kernel_rfft) == [1024, 2048]

    def test_commutativity(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, 31)
        b = rng.uniform(-1, 1, 51)
        c1 = laguerre.apply_laguerre(laguerre.build_laguerre(a, 50), b)
        c2 = laguerre.apply_laguerre(laguerre.build_laguerre(b, 30), a)
        assert np.max(np.abs(c1 - c2)) < 1e-13

    def test_dimension_error(self):
        R = laguerre.build_laguerre([1.0], 2)
        with pytest.raises(DimensionError):
            laguerre.apply_laguerre(R, np.ones(4))
        with pytest.raises(ArgumentError):
            laguerre.apply_laguerre(R, np.ones(0))


class TestFitting:
    def test_renewal_kernel_exact_degree_two(self):
        fit = laguerre.fit_laguerre(lambda x: 0.5 * x**2 * np.exp(-x), 2)
        np.testing.assert_allclose(fit.coeffs, [1, -2, 1], atol=1e-14)

    def test_oscillatory_factor_closed_form(self):
        fit = laguerre.fit_laguerre(g_func, 54)
        np.testing.assert_allclose(fit.coeffs, closed_form_g_coeffs(54), atol=5e-15)

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ArgumentError, match="non-finite"):
            laguerre.fit_laguerre(lambda x: np.where(x > 3, np.nan, np.exp(-x)), 10)

    @pytest.mark.parametrize("degree", [True, 2.0])
    def test_non_integer_degree(self, degree):
        with pytest.raises(ArgumentError, match="degree must be an integer"):
            laguerre.fit_laguerre(lambda x: x * np.exp(-x), degree)

    @pytest.mark.filterwarnings("error")
    def test_float64_vandermonde_limit(self):
        # L_m overflows float64 at the largest nodes of the 2 * 244 + 8 point
        # rule: quietly fine at 243, a named numerical failure at 244
        assert laguerre.fit_laguerre(lambda x: x * np.exp(-x), 243).degree == 243
        with pytest.raises(RangeOverflowError, match="degree 244"):
            laguerre.fit_laguerre(lambda x: x * np.exp(-x), 244)

    def test_weighted_evaluation(self):
        fit = laguerre.fit_laguerre(lambda x: 0.5 * x**2 * np.exp(-x), 2)
        xs = np.array([0.0, 0.7, 3.0, 42.0, 700.0, 1e4])
        np.testing.assert_allclose(evaluate(fit, xs), 0.5 * xs**2 * np.exp(-xs),
                                   atol=1e-14)


class TestConvolutionAgainstClosedForm:
    def test_half_line_convolution(self):
        f = laguerre.fit_laguerre(lambda x: 0.5 * x**2 * np.exp(-x), 2)
        g = laguerre.fit_laguerre(g_func, 54)
        R = laguerre.build_laguerre(f.coeffs, 54)
        c = laguerre.apply_laguerre(R, g.coeffs)
        from voltconv.series import PolySeries
        h = PolySeries(bases.weighted_laguerre(), (0.0, math.inf), c)
        xs = np.concatenate([np.linspace(0, 50, 1001), np.linspace(50, 1e4, 500)])
        got = evaluate(h, xs)
        exact = -(np.exp(-xs) * (xs**2 - xs - 1)
                  + np.exp(-1.5 * xs) * (np.sqrt(3) * np.sin(np.sqrt(3) * xs / 2)
                                         + np.cos(np.sqrt(3) * xs / 2))) / 3
        assert np.max(np.abs(got - exact)) < 1e-13
