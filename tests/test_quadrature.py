import math
import warnings

import numpy as np
import pytest

from voltconv import bases, quadrature
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

    # at alpha = -0.99 the node nearest +1 carries most of the mass
    @pytest.mark.parametrize("ab", [(0.0, 0.0), (-0.5, -0.5), (1.5, 1.5), (2.0, 1.5),
                                    (-0.99, 5.0), (-0.99, -0.95)])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 64])
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

    @pytest.mark.parametrize("abn", [(-0.99, 5.0, 5), (-0.99, -0.95, 3)])
    @pytest.mark.parametrize("extended", [False, True])
    def test_nonfinite_newton_step_fails_fast_and_quietly(self, abn, extended, monkeypatch):
        steps = []

        def nan_step(tables, alpha, beta, x, n):
            steps.append(n)
            return np.full_like(x, np.nan), np.full_like(x, np.nan)

        monkeypatch.setattr(quadrature, "_newton_step", nan_step)
        a, b, n = abn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=f"alpha={a}, beta={b}, n={n}"):
                quadrature.gauss_jacobi(a, b, n, extended=extended)
        assert 1 <= len(steps) <= 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: quadrature.gauss_jacobi(0.0, 0.0, 0), id="n-zero"),
        pytest.param(lambda: quadrature.gauss_jacobi(0.0, 0.0, True), id="n-bool"),
        pytest.param(lambda: quadrature.gauss_jacobi(0.0, 0.0, 2.5), id="n-fraction"),
        pytest.param(lambda: quadrature.gauss_jacobi(-1.5, 0.0, 3), id="alpha-below-minus-one"),
        pytest.param(lambda: quadrature.gauss_jacobi(math.inf, 0.0, 5), id="alpha-inf"),
        pytest.param(lambda: quadrature.gauss_laguerre(2.5), id="laguerre-n-fraction"),
    ])
    def test_invalid_args(self, make):
        # a malformed size or parameter is refused before any arithmetic
        with pytest.raises(ArgumentError):
            make()


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

    def test_matches_numpy(self):
        x, w, _ = quadrature.gauss_laguerre(64)
        xr, wr = np.polynomial.laguerre.laggauss(64)
        np.testing.assert_allclose(x, xr, rtol=1e-13)
        big = wr > 1e-200
        np.testing.assert_allclose(w[big], wr[big], rtol=1e-11)

    def test_thousand_points(self):
        x, w, _ = quadrature.gauss_laguerre(1000)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(w, x) == pytest.approx(1.0, abs=1e-12)

    def test_wexp_consistency(self):
        x, w, wexp = quadrature.gauss_laguerre(24)
        np.testing.assert_allclose(wexp * np.exp(-x), w, rtol=1e-13)

    def test_past_the_longdouble_range(self):
        # |L_n| at the largest node overflows an 80-bit longdouble from
        # n = 5706; the carried exponent keeps the rule finite and quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w, wexp = quadrature.gauss_laguerre(6000)
        assert np.all(np.isfinite(wexp)) and np.all(wexp > 0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [494, 1000])
    def test_where_longdouble_is_double(self, monkeypatch, n):
        # the rule's arithmetic where longdouble is plain double: |L_n| at
        # the largest node passes float64's range from n = 494 (fit_laguerre's
        # rule for degree 243) and is about 1e854 at n = 1000
        want = quadrature.gauss_laguerre(n)
        monkeypatch.setattr(quadrature, "LD", np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w, wexp = quadrature.gauss_laguerre(n)
        np.testing.assert_allclose(x, want[0], rtol=1e-11)
        np.testing.assert_allclose(wexp, want[2], rtol=1e-7)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-11)

    def test_rescaling_keeps_the_bits(self):
        # scaling by powers of two is exact: the pair equals an unscaled
        # run's, times 2^-e
        tables = bases._step_tables(bases.weighted_laguerre(), 200, np.longdouble)
        x = np.linspace(0.0, 300.0, 41).astype(np.longdouble)
        qm1, q, e = quadrature._rescaled_last_two(tables, x, 200)
        want = list(bases.poly_vandermonde(bases.weighted_laguerre(), x, 200).T[-2:])
        assert np.any(e != 0)
        for got, ref in zip((qm1, q), want):
            assert np.array_equal(np.ldexp(got, e), ref)


def exactness(a, b, x, w):
    """max over j = 1..2n-1, j != n, of |sum w p_j(x)| / sum w |p_j(x)|, in x's dtype.

    Every p_j with j >= 1 integrates to 0 against the weight; p_n is skipped
    because it vanishes at the nodes.
    """
    n = len(x)
    A, B, C = bases._jacobi_abc(a, b, np.arange(2 * n - 1), x.dtype.type)
    p, pm1, worst = np.ones_like(x), np.zeros_like(x), 0.0
    for j in range(2 * n - 1):
        p, pm1 = (A[j] * x + B[j]) * p + C[j] * pm1, p
        if j + 1 != n:
            worst = max(worst, float(abs(w @ p) / (w @ np.abs(p))))
    return worst


def check_rule(a, b, n):
    """Both tiers: ascending nodes inside (-1, 1), positive weights summing to
    the weight's mass; the extended rule: exactness through degree 2n - 1.

    Double-tier nodes carry a rounding of ~eps, which moves sum w p_j by up
    to ~j^2 eps of its scale, so exactness is measured on the extended tier.
    The mass bound is 2e-12: at alpha = -0.99, n = 552 the node nearest +1
    sits 6.6e-8 from it and holds up to 89% of the mass, and its weight
    comes from p_{n-1} there, which the longdouble recurrence gets to ~1e-12
    (sum w reads 1.3e-12 off at beta = 0; 1.1e-13 at n = 157).
    """
    for extended in (False, True):
        r = quadrature.gauss_jacobi(a, b, n, extended=extended)
        assert np.all(np.diff(r.x) > 0) and r.x[0] > -1 and r.x[-1] < 1
        assert np.all(r.w > 0)
        assert float(np.sum(r.w)) == pytest.approx(weight_mass(a, b), rel=2e-12)
    assert exactness(a, b, r.x, r.w) <= 1e-12


GRID_ALPHA = [-0.99, -0.9, -0.5, 0.0, 0.3, 1.5, 2.0, 5.0, 10.0]
GRID_BETA = [-0.95, -0.5, 0.0, 0.7, 2.0, 5.0, 10.0]


@pytest.mark.parametrize("a", GRID_ALPHA)
def test_jacobi_rules_over_the_parameter_grid(a):
    for b in GRID_BETA:
        for n in [1, 2, 3, 5, 20, 157] + ([552] if a == -0.99 else []):
            check_rule(a, b, n)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_jacobi_rule_on_the_alpha_plus_beta_minus_one_line(n):
    # BasisSpec rejects this line for the convolution recurrences; the
    # quadrature weight is regular there
    check_rule(-0.3, -0.7, n)
