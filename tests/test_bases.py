import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from voltconv import bases
from voltconv.errors import BasisParameterError
from voltconv.series import clenshaw

LD = np.longdouble
ALL_BASES = {
    "chebyshev": bases.chebyshev(),
    "legendre": bases.legendre(),
    "gegenbauer": bases.gegenbauer(2.0),
    "jacobi": bases.jacobi(2.0, 1.5),
    "jacobi_ab0": bases.jacobi(0.3, -0.3),   # alpha + beta = 0: 0/0 at n = 0
    "laguerre": bases.weighted_laguerre(),
}


def abc_reference(basis, n, dtype):
    """Per-degree coefficients written out with scalar arithmetic."""
    one, nn = dtype(1.0), dtype(n)
    if basis.kind == bases.CHEBYSHEV:
        return (one, 0 * one, 0 * one) if n == 0 else (2 * one, 0 * one, -one)
    if basis.kind == bases.LEGENDRE:
        return (2 * nn + 1) / (nn + 1), 0 * one, -nn / (nn + 1)
    if basis.kind == bases.GEGENBAUER:
        lam = dtype(basis.lam)
        return 2 * (nn + lam) / (nn + 1), 0 * one, -(nn + 2 * lam - 1) / (nn + 1)
    if basis.kind == bases.JACOBI:
        a, b = dtype(basis.alpha), dtype(basis.beta)
        if n == 0:
            return (a + b + 2) / 2, (a - b) / 2, 0 * one
        s = 2 * nn + a + b
        denom = 2 * (nn + 1) * (nn + a + b + 1) * s
        return ((s + 1) * (s + 2) * s / denom, (s + 1) * (a * a - b * b) / denom,
                -2 * (nn + a) * (nn + b) * (s + 2) / denom)
    return -one / (nn + 1), (2 * nn + 1) / (nn + 1), -nn / (nn + 1)


def scipy_values(basis, n, x):
    if basis.kind == bases.CHEBYSHEV:
        return sp.eval_chebyt(n, x)
    if basis.kind == bases.LEGENDRE:
        return sp.eval_legendre(n, x)
    if basis.kind == bases.GEGENBAUER:
        return sp.eval_gegenbauer(n, basis.lam, x)
    if basis.kind == bases.JACOBI:
        return sp.eval_jacobi(n, basis.alpha, basis.beta, x)
    return sp.eval_laguerre(n, x)


def sample_points(basis, dtype):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 41)
    if not basis.finite_interval:
        x = 5.0 * (x + 1.0)
    return np.concatenate([x, [-1.0, 1.0]]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, LD])
@pytest.mark.parametrize("name", list(ALL_BASES))
class TestRecurrenceEngine:
    def test_array_call_equals_scalar_calls(self, name, dtype):
        basis = ALL_BASES[name]
        n = np.arange(200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A, B, C = bases.recurrence_abc(basis, n, dtype)
            for k in n:
                ref = abc_reference(basis, int(k), dtype)
                one = bases.recurrence_abc(basis, int(k), dtype)
                for arr, r, s in zip((A, B, C), ref, one):
                    assert arr.dtype == np.dtype(dtype)
                    assert arr[k] == r == s, (k, arr[k], r, s)

    def test_vandermonde_matches_scipy(self, name, dtype):
        basis = ALL_BASES[name]
        x = sample_points(basis, dtype)
        V = bases.poly_vandermonde(basis, x, 60)
        assert V.dtype == np.dtype(dtype)
        for n in range(61):
            ref = scipy_values(basis, n, x.astype(float))
            tol = 1e-13 * max(1.0, np.max(np.abs(ref)))
            np.testing.assert_allclose(V[:, n].astype(float), ref, rtol=0, atol=tol,
                                       err_msg=f"degree {n}")

    def test_clenshaw_matches_vandermonde(self, name, dtype):
        basis = ALL_BASES[name]
        x = sample_points(basis, dtype)
        c = np.random.default_rng(4).uniform(-1.0, 1.0, 61)
        V = bases.poly_vandermonde(basis, x, 60)
        got = clenshaw(basis, c, x)
        assert got.dtype == np.dtype(dtype)
        scale = np.abs(V) @ np.abs(c)
        tol = 100 * np.finfo(dtype).eps * scale
        assert np.all(np.abs(got - V @ c.astype(dtype)) <= tol)


def _spec(kind, **params):
    return lambda: bases.BasisSpec(kind, **params)


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda: bases.gegenbauer(1e-16), "lambda > -1/2", id="1e-16"),
    pytest.param(lambda: bases.gegenbauer(-1e-13), "lambda > -1/2", id="-1e-13"),
    pytest.param(lambda: bases.gegenbauer(1e-300), "lambda > -1/2", id="1e-300"),
    pytest.param(lambda: bases.gegenbauer(-0.5), "lambda > -1/2", id="lambda-minus-half"),
    pytest.param(lambda: bases.gegenbauer(math.nan), "lambda > -1/2", id="lambda-nan"),
    pytest.param(lambda: bases.gegenbauer(math.inf), "lambda > -1/2", id="lambda-inf"),
    pytest.param(_spec("Hermite"), "unknown basis kind", id="unknown-kind"),
    pytest.param(_spec(bases.GEGENBAUER), "needs lambda", id="no-lambda"),
    pytest.param(_spec(bases.LEGENDRE, lam=0.5), "only valid for Gegenbauer",
                 id="lambda-on-legendre"),
    pytest.param(_spec(bases.JACOBI, alpha=0.0), "needs alpha and beta", id="no-beta"),
    pytest.param(_spec(bases.JACOBI, beta=0.0), "needs alpha and beta", id="no-alpha"),
    pytest.param(lambda: bases.jacobi(-1.0, 0.0), "alpha, beta > -1", id="alpha-minus-one"),
    pytest.param(lambda: bases.jacobi(0.0, -1.5), "alpha, beta > -1", id="beta-below-minus-one"),
    pytest.param(lambda: bases.jacobi(math.nan, 0.0), "alpha, beta > -1", id="alpha-nan"),
    pytest.param(lambda: bases.jacobi(math.inf, 0.0), "alpha, beta > -1", id="alpha-inf"),
    pytest.param(lambda: bases.jacobi(0.0, math.inf), "alpha, beta > -1", id="beta-inf"),
    pytest.param(lambda: bases.jacobi(-0.3, -0.7), "degenerate", id="alpha-plus-beta-minus-one"),
    pytest.param(_spec(bases.CHEBYSHEV, alpha=1.0, beta=1.0), "only valid for Jacobi",
                 id="alpha-beta-on-chebyshev"),
])
def test_near_zero_gegenbauer_lambda_rejected(make, match):
    """Near-zero lambda, and every other parameter BasisSpec refuses."""
    with pytest.raises(BasisParameterError, match=match):
        make()


def unscaled_vandermonde(basis, x, degree):
    """V[..., k] = p_k(x) from the unscaled recurrence_abc tables, one array
    operation at a time: (A_k x + B_k) p_k + C_k p_{k-1}."""
    A, B, C = bases.recurrence_abc(basis, np.arange(degree), x.dtype.type)
    V = np.empty(x.shape + (degree + 1,), dtype=x.dtype)
    p, pm1 = np.ones_like(x), np.zeros_like(x)
    V[..., 0] = p
    for k in range(degree):
        tmp = x * A[k]
        if B.any():
            tmp += B[k]
        p, pm1 = tmp * p + pm1 * C[k], p
        V[..., k + 1] = p
    return V


RANGE_BASES = {**ALL_BASES, "gegenbauer20": bases.gegenbauer(20.0),
               "jacobi_10_10": bases.jacobi(10.0, 10.0),
               "jacobi_0_10": bases.jacobi(0.0, 10.0),
               "jacobi_-0.99_5": bases.jacobi(-0.99, 5.0)}


@pytest.mark.parametrize("dtype", [np.float64, LD])
@pytest.mark.parametrize("name", list(RANGE_BASES))
def test_scaled_tables_stay_in_range_through_degree_65536(name, dtype):
    basis = RANGE_BASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, a, b, c = bases._step_tables(basis, 65536, dtype)
    assert len(s) == 65537 and len(c) == 65536
    for table in (s, c[1:], a, b):
        if table is not None:
            assert table.dtype == np.dtype(dtype)
            assert np.all(np.isfinite(table))
            # b_k is zero for k >= 1 where alpha = -beta
            assert table is b or np.all(table != 0)
    assert s[0] == 1 and c[0] == 0
    if basis.finite_interval:
        assert a is None
    else:
        assert np.all(s == 1)


@pytest.mark.parametrize("dtype", [np.float64, LD])
@pytest.mark.parametrize("name, degree", [("chebyshev", 400), ("laguerre", 400)])
def test_unscaled_bits_where_the_scales_are_exact(name, degree, dtype):
    # Chebyshev's scales are powers of two and weighted Laguerre's are ones
    basis = ALL_BASES[name]
    x = np.concatenate([sample_points(basis, dtype), [dtype(-0.0), dtype(0.0)]])
    if not basis.finite_interval:
        x = np.concatenate([x, 20 * x]).astype(dtype)
    want = unscaled_vandermonde(basis, x, degree)
    got = bases.poly_vandermonde(basis, x, degree)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _mp(v):
    num, den = v.as_integer_ratio()
    return mpmath.mpf(num) / den


def _mp_abc(basis, k):
    """(A_k, B_k, C_k) in mpmath, from the basis parameters as stored."""
    n = mpmath.mpf(k)
    if basis.kind == bases.LEGENDRE:
        return (2 * n + 1) / (n + 1), 0, -n / (n + 1)
    if basis.kind == bases.GEGENBAUER:
        lam = mpmath.mpf(basis.lam)
        return 2 * (n + lam) / (n + 1), 0, -(n + 2 * lam - 1) / (n + 1)
    a, b = mpmath.mpf(basis.alpha), mpmath.mpf(basis.beta)
    if k == 0:
        return (a + b + 2) / 2, (a - b) / 2, 0
    s = 2 * n + a + b
    d = 2 * (n + 1) * (n + a + b + 1) * s
    return (s + 1) * (s + 2) * s / d, (s + 1) * (a * a - b * b) / d, -2 * (n + a) * (n + b) * (s + 2) / d


MP_BASES = {"legendre": bases.legendre(), "gegenbauer2": bases.gegenbauer(2.0),
            "gegenbauer20": bases.gegenbauer(20.0), "jacobi_2_1.5": bases.jacobi(2.0, 1.5),
            "jacobi_0_10": bases.jacobi(0.0, 10.0), "jacobi_-0.99_5": bases.jacobi(-0.99, 5.0)}


@pytest.mark.parametrize("name", list(MP_BASES))
def test_longdouble_values_and_clenshaw_match_mpmath(name):
    """p_n at n = 50, 300, 1000 from poly_vandermonde, and a degree-1001
    Clenshaw sum, against the recurrence run at 40 digits.  The forward
    recurrence's error grows with n, so the bound is 8 n longdouble ulps
    of max |p_n| over the points; the sum's is 1024 ulps of sum |c_k p_k|."""
    basis = MP_BASES[name]
    x = np.concatenate([np.random.default_rng(5).uniform(-1, 1, 13),
                        [-1.0, 1.0, -0.999999, 0.999999]]).astype(LD)
    c = np.random.default_rng(6).uniform(-1, 1, 1002)
    eps = np.finfo(LD).eps
    V = bases.poly_vandermonde(basis, x, 1000)
    got = clenshaw(basis, c, x)
    with mpmath.workdps(40):
        table = [_mp_abc(basis, k) for k in range(1001)]
        P = []
        for xv in map(_mp, x):
            p, pm1 = mpmath.mpf(1), mpmath.mpf(0)
            row = [p]
            for A, B, C in table:
                p, pm1 = (A * xv + B) * p + C * pm1, p
                row.append(p)
            P.append(row)
        for n in (50, 300, 1000):
            err = max(abs(_mp(V[i, n]) - P[i][n]) for i in range(len(x)))
            assert err <= 8 * n * eps * max(abs(row[n]) for row in P), n
        for i, row in enumerate(P):
            terms = [mpmath.mpf(ck) * pk for ck, pk in zip(c, row)]
            assert abs(_mp(got[i]) - mpmath.fsum(terms)) <= 1024 * eps * mpmath.fsum(
                map(abs, terms)), i
