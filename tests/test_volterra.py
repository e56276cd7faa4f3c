import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from voltconv import bases, convmat, laguerre, oracle, prng, volterra
from voltconv.errors import (ArgumentError, DimensionError, DomainMismatchError,
                             SingularSystemError)
from voltconv.series import PolySeries, evaluate, fit_chebyshev


def renewal_kernel(x):
    return 0.5 * x**2 * np.exp(-x)


def renewal_exact(x):
    return 1 / 3 - (np.cos(np.sqrt(3) / 2 * x)
                    + np.sqrt(3) * np.sin(np.sqrt(3) / 2 * x)) * np.exp(-1.5 * x) / 3


@pytest.fixture(scope="module")
def renewal_fit():
    return fit_chebyshev(renewal_kernel, (0, 2))


def solve_peak_bytes(prob, N):
    """tracemalloc peak of one solve."""
    tracemalloc.start()
    try:
        volterra.solve_second_kind(prob, N)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConvolve:
    def test_unit_functions(self):
        one = PolySeries(bases.chebyshev(), (-1, 1), [1.0])
        h = volterra.convolve(one, one)
        assert h.domain == (-2.0, 0.0)
        assert h.degree == 1
        xs = np.linspace(-2, 0, 21)
        np.testing.assert_allclose(evaluate(h, xs), xs + 2, atol=1e-15)

    def test_degree_contract(self):
        rng = np.random.default_rng(0)
        f = PolySeries(bases.chebyshev(), (-1, 1), rng.uniform(-1, 1, 8))
        g = PolySeries(bases.chebyshev(), (-1, 1), rng.uniform(-1, 1, 13))
        h = volterra.convolve(f, g)
        assert h.degree == f.degree + g.degree + 1

    def test_left_endpoint_vanishes(self, finite_basis):
        rng = np.random.default_rng(1)
        f = PolySeries(finite_basis, (0, 2), rng.uniform(-1, 1, 5))
        g = PolySeries(finite_basis, (1, 3), rng.uniform(-1, 1, 6))
        h = volterra.convolve(f, g)
        assert h.domain == (1.0, 3.0)
        assert abs(evaluate(h, 1.0)) <= 1e-13

    def test_matches_pointwise_oracle(self, finite_basis):
        rng = np.random.default_rng(2)
        f = PolySeries(finite_basis, (0, 2), rng.uniform(-1, 1, 7))
        g = PolySeries(finite_basis, (0, 2), rng.uniform(-1, 1, 9))
        h = volterra.convolve(f, g)
        xs = np.linspace(0, 2, 57)
        np.testing.assert_allclose(evaluate(h, xs),
                                   oracle.conv_point_oracle(f, g, xs), atol=1e-12)

    def test_renewal_convolution(self, renewal_fit):
        u = fit_chebyshev(renewal_exact, (0, 2))
        h = volterra.convolve(renewal_fit, u)
        xs = np.linspace(0, 2, 1000)
        err = np.abs(evaluate(h, xs) - (renewal_exact(xs) - renewal_kernel(xs)))
        assert err.max() <= 1e-14

    def test_mismatched_lengths_raise(self):
        f = PolySeries(bases.chebyshev(), (0, 2), [1.0])
        g = PolySeries(bases.chebyshev(), (0, 3), [1.0])
        with pytest.raises(DomainMismatchError):
            volterra.convolve(f, g)

    def test_mismatched_bases_raise(self):
        f = PolySeries(bases.chebyshev(), (0, 2), [1.0])
        g = PolySeries(bases.legendre(), (0, 2), [1.0])
        with pytest.raises(DomainMismatchError):
            volterra.convolve(f, g)

    def test_laguerre_route(self):
        f = laguerre.fit_laguerre(lambda x: 0.5 * x**2 * np.exp(-x), 2)
        h = volterra.convolve(f, f)
        assert not h.basis.finite_interval
        assert h.degree == 5


class TestTruncateSquare:
    def test_unit_kernel_block(self):
        R = convmat.build_chebyshev([1.0], 2)
        D = convmat.to_dense(R)
        np.testing.assert_array_equal(volterra.truncate_square(R, 2), D[:3, :3])

    def test_includes_scale(self):
        rng = np.random.default_rng(3)
        R = convmat.build_chebyshev(rng.uniform(-1, 1, 7), 30, scale=1.7)
        np.testing.assert_array_equal(volterra.truncate_square(R, 25),
                                      convmat.to_dense(R)[:26, :26])

    def test_shape(self):
        R = convmat.build_chebyshev([1.0, 0.5], 9)
        assert volterra.truncate_square(R, 9).shape == (10, 10)

    def test_oversize_raises(self):
        R = convmat.build_chebyshev([1.0], 2)
        with pytest.raises(DimensionError):
            volterra.truncate_square(R, 3)

    @pytest.mark.parametrize("N", [True, 2.0, -1])
    def test_non_integer_or_negative_N_raises(self, N):
        R = convmat.build_chebyshev([1.0], 2)
        with pytest.raises(ArgumentError):
            volterra.truncate_square(R, N)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_tailor_length_raises(self):
        with pytest.raises(ArgumentError):
            volterra.tailor_rhs(np.ones(3), -1)

    def test_numpy_integer_N(self):
        R = convmat.build_chebyshev([1.0, 0.5], 4)
        np.testing.assert_array_equal(volterra.truncate_square(R, np.int64(2)),
                                      volterra.truncate_square(R, 2))


class TestSolve:
    def test_zero_kernel_returns_rhs(self, renewal_fit):
        zero = PolySeries(bases.chebyshev(), (0, 2), [0.0])
        out = volterra.solve_second_kind(volterra.VolterraProblem(zero, renewal_fit), 10)
        np.testing.assert_array_equal(out.coeffs,
                                      volterra.tailor_rhs(renewal_fit.coeffs, 10))

    def test_renewal_solution(self, renewal_fit):
        prob = volterra.VolterraProblem(renewal_fit, renewal_fit)
        u = volterra.solve_second_kind(prob, 17)
        xs = np.linspace(0, 2, 1000)
        assert np.max(np.abs(evaluate(u, xs) - renewal_exact(xs))) <= 1e-13

    def test_spectral_convergence(self, renewal_fit):
        prob = volterra.VolterraProblem(renewal_fit, renewal_fit)
        xs = np.linspace(0, 2, 400)
        errs = []
        for N in range(1, 26, 2):
            u = volterra.solve_second_kind(prob, N)
            errs.append(np.max(np.abs(evaluate(u, xs) - renewal_exact(xs))))
        errs = np.array(errs)
        slow = 0
        for i in range(len(errs) - 1):
            if errs[i] <= 1e-13:
                break
            if errs[i + 1] > errs[i] / 10.0:
                slow += 1          # one pre-asymptotic slow step is tolerated
        assert slow <= 1
        assert errs.min() <= 1e-13

    def test_residual_via_oracle(self, renewal_fit):
        prob = volterra.VolterraProblem(renewal_fit, renewal_fit)
        u = volterra.solve_second_kind(prob, 17)
        pts = np.linspace(0, 2, 200)
        resid = np.abs(evaluate(u, pts) - evaluate(renewal_fit, pts)
                       - oracle.conv_point_oracle(renewal_fit, u, pts))
        assert resid.max() <= 1e-10 * (1 + np.max(np.abs(evaluate(u, pts))))

    def test_interval_invariance(self, renewal_fit):
        # same problem mapped to [0, 1]: kernel 2 f(2x), half-length jacobian
        f2 = fit_chebyshev(lambda x: 2 * renewal_kernel(2 * x), (0, 1))
        s2 = fit_chebyshev(lambda x: renewal_kernel(2 * x), (0, 1))
        u1 = volterra.solve_second_kind(
            volterra.VolterraProblem(renewal_fit, renewal_fit), 17)
        u2 = volterra.solve_second_kind(volterra.VolterraProblem(f2, s2), 17)
        xs = np.linspace(0, 1, 500)
        assert np.max(np.abs(evaluate(u2, xs) - evaluate(u1, 2 * xs))) <= 1e-12

    def test_singular_system(self):
        # kernel = T_0 on [-1,1]: I - R^0 has the single entry 1 - R_00 = 0
        one = PolySeries(bases.chebyshev(), (-1, 1), [1.0])
        with pytest.raises(SingularSystemError):
            volterra.solve_second_kind(volterra.VolterraProblem(one, one), 0)

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_near_singular_system(self, N):
        # kernel T_0 on (0, 2/lam): I - R^N = I - R0^N / lam for the T_0
        # matrix R0^N on [-1, 1], singular up to the rounding of lam
        R0 = volterra.truncate_square(convmat.build(bases.chebyshev(), [1.0], N), N)
        lams = [lam.real for lam in np.linalg.eigvals(R0)
                if lam.imag == 0.0 and lam.real > 0.0]
        assert lams
        for lam in lams:
            one = PolySeries(bases.chebyshev(), (0.0, 2.0 / lam), [1.0])
            with pytest.raises(SingularSystemError):
                volterra.solve_second_kind(volterra.VolterraProblem(one, one), N)

    def test_memory_is_linear_in_N(self, renewal_fit):
        # a dense (N+1)^2 block alone is 122 MiB at N = 4000
        prob = volterra.VolterraProblem(renewal_fit, renewal_fit)
        assert solve_peak_bytes(prob, 4000) <= 32 * 2**20

    def test_memory_is_linear_in_N_when_top_rows_dominate(self, finite_basis):
        # at N = 4000 the Gegenbauer(2) top rows reach 2e4 times the diagonal;
        # a pivot taken from them would spread their fill through the band
        kernel = PolySeries(finite_basis, (0.0, 20.0), prng.random_kernel(10, 7))
        prob = volterra.VolterraProblem(kernel, kernel)
        assert solve_peak_bytes(prob, 4000) <= 32 * 2**20

    def test_problem_validation(self, renewal_fit):
        other = PolySeries(bases.chebyshev(), (0, 3), [1.0])
        with pytest.raises(DomainMismatchError):
            volterra.VolterraProblem(renewal_fit, other)

    def test_problem_json_roundtrip(self, renewal_fit):
        prob = volterra.VolterraProblem(renewal_fit, renewal_fit)
        back = volterra.problem_from_json(volterra.problem_to_json(prob))
        np.testing.assert_array_equal(back.kernel.coeffs, renewal_fit.coeffs)
        assert back.domain == prob.domain


KERNEL_DEGREE = 10


@pytest.mark.filterwarnings("ignore:An ill-conditioned matrix:scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("length", [2.0, 20.0])
@pytest.mark.parametrize("N", [0, 1, KERNEL_DEGREE - 1, KERNEL_DEGREE,
                               KERNEL_DEGREE + 1, 2 * KERNEL_DEGREE + 3, 300])
def test_solve_matches_dense_reference(finite_basis, length, N):
    """Backward and forward error against dense LU on I - R^N.

    A refusal is allowed only for a system singular to working precision:
    the solver refuses when a pivot of its LU of A^T is <= 1e-14 max|A|, and
    partial pivoting keeps |L| <= 1, so kappa_inf(A) = kappa_1(A^T) >=
    1e14 / (N + 1) then.  The Gegenbauer(2) kernel of the N = 300 cases
    reaches |f| = 190, and kappa_inf(A) ~ 1e23.
    """
    def inf(x):
        return np.linalg.norm(x, np.inf)

    eps = np.finfo(float).eps
    kernel = PolySeries(finite_basis, (0.0, length),
                        prng.random_kernel(KERNEL_DEGREE, 7 + N))
    rhs = PolySeries(finite_basis, (0.0, length), prng.random_kernel(N, 11 + N))
    R = convmat.build(finite_basis, kernel.coeffs, N, scale=length / 2.0)
    A = np.eye(N + 1) - volterra.truncate_square(R, N)
    b = volterra.tailor_rhs(rhs.coeffs, N)
    kappa = inf(A) * inf(np.linalg.inv(A))
    try:
        c = volterra.solve_second_kind(volterra.VolterraProblem(kernel, rhs), N).coeffs
    except SingularSystemError:
        assert kappa >= 1e14 / (N + 1)
        return
    c_ref = scipy.linalg.solve(A, b)
    assert inf(A @ c - b) <= 64 * eps * (inf(A) * inf(c) + inf(b))
    assert inf(c - c_ref) <= 64 * eps * kappa * inf(c_ref)
