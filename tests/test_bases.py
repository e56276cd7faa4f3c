import warnings

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


def test_forward_yields_degrees_zero_to_n():
    x = np.linspace(-1.0, 1.0, 5)
    vals = list(bases.forward(bases.legendre(), x, 3))
    assert len(vals) == 4
    np.testing.assert_array_equal(np.stack(vals, axis=-1),
                                  bases.poly_vandermonde(bases.legendre(), x, 3))
    assert len(list(bases.forward(bases.legendre(), x, 0))) == 1


@pytest.mark.parametrize("lam", [1e-16, -1e-13, 1e-300])
def test_near_zero_gegenbauer_lambda_rejected(lam):
    with pytest.raises(BasisParameterError):
        bases.gegenbauer(lam)
