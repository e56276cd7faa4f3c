import math
import warnings

import numpy as np
import pytest

from voltconv import quadrature
from voltconv.errors import ArgumentError, ConvergenceError


def weight_mass(a, b):
    return math.exp((a + b + 1) * math.log(2.0) + math.lgamma(a + 1)
                    + math.lgamma(b + 1) - math.lgamma(a + b + 2))


class TestGaussJacobi:
    def test_two_point_legendre(self):
        r = quadrature.gauss_legendre(2)
        np.testing.assert_allclose(r.x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(r.w, [1, 1], atol=1e-14)

    def test_degree_exactness(self):
        r = quadrature.gauss_legendre(5)
        assert np.dot(r.w, r.x**8) == pytest.approx(2 / 9, abs=1e-15)

    @pytest.mark.parametrize("ab", [(0.0, 0.0), (-0.5, -0.5), (1.5, 1.5), (2.0, 1.5)])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 64])
    def test_weight_sums(self, ab, n):
        a, b = ab
        r = quadrature.gauss_jacobi(a, b, n)
        assert np.sum(r.w) == pytest.approx(weight_mass(a, b), rel=1e-13)
        assert np.all(np.diff(r.x) > 0)
        assert r.x[0] > -1 and r.x[-1] < 1
        assert np.all(r.w > 0)

    def test_jacobi_polynomial_exactness(self):
        # integrand degree 9 against the (2, 1.5) weight, 8-node rule
        a, b = 2.0, 1.5
        r = quadrature.gauss_jacobi(a, b, 8)
        got = np.dot(r.w, r.x**9 - 3 * r.x**4 + 0.5)
        # independent evaluation through monomial moments by recursion-free
        # integration: int (1-x)^a (1+x)^b x^k via the Beta representation
        import mpmath as mp
        with mp.workdps(30):
            exact = mp.quad(lambda t: (1 - t)**a * (1 + t)**b * (t**9 - 3 * t**4 + 0.5),
                            [-1, 1])
        assert got == pytest.approx(float(exact), abs=1e-14)

    def test_extended_rule_weight_sum(self):
        r = quadrature.gauss_jacobi(1.5, 1.5, 302, extended=True)
        assert r.extended
        s = float(np.sum(r.w.astype(np.longdouble)))
        assert s == pytest.approx(weight_mass(1.5, 1.5), rel=1e-16)

    # (-0.99, 5, 5) clamps a node onto -1, where the Newton step is 0/0;
    # (-0.99, -0.95, 3) clamps one onto +1, which used to give a NaN weight
    @pytest.mark.parametrize("abn", [(-0.99, 5.0, 5), (-0.99, -0.95, 3)])
    @pytest.mark.parametrize("extended", [False, True])
    def test_nonfinite_newton_step_fails_fast_and_quietly(self, abn, extended, monkeypatch):
        steps = []
        step = quadrature._newton_step

        def counted(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(quadrature, "_newton_step", counted)
        a, b, n = abn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=f"alpha={a}, beta={b}, n={n}"):
                quadrature.gauss_jacobi(a, b, n, extended=extended)
        assert len(steps) <= 3

    def test_invalid_args(self):
        with pytest.raises(ArgumentError):
            quadrature.gauss_jacobi(0.0, 0.0, 0)
        with pytest.raises(ArgumentError):
            quadrature.gauss_jacobi(-1.5, 0.0, 3)


class TestGaussLaguerre:
    def test_moments(self):
        x, w, _ = quadrature.gauss_laguerre(10)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        assert np.dot(w, x) == pytest.approx(1.0, abs=1e-13)
        assert np.dot(w, x**3) == pytest.approx(6.0, abs=5e-12)

    def test_large_rule(self):
        x, w, wexp = quadrature.gauss_laguerre(116)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-13)
        assert np.dot(w, x**2) == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.isfinite(wexp)) and np.all(wexp > 0)

    def test_wexp_consistency(self):
        x, w, wexp = quadrature.gauss_laguerre(24)
        np.testing.assert_allclose(wexp * np.exp(-x), w, rtol=1e-13)
