"""Seed-swept invariants of the stable construction.

These mirror the verification suite: boundary behaviour at the left
endpoint, rescaling symmetry of the inner submatrix, commutativity and
kernel-linearity of the induced convolution, and agreement with the
quadrature oracle for every basis.  One drawn property pins the oracle's
ring recurrence step to the three-pass step that poly_vandermonde runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltconv import bases, convmat, oracle
from voltconv.bases import values_at_minus_one
from voltconv.prng import random_kernel
from voltconv.series import PolySeries

SEEDS = list(range(1, 11))

ALL_BASES = [bases.chebyshev(), bases.legendre(), bases.gegenbauer(2.0),
             bases.jacobi(2.0, 1.5)]

# Boundary-check sizes per basis: the check sums w_j R_{j,n} with weights
# |p_j(-1)| ~ j^(2 lam - 1), so its conditioning grows with N for the
# Gegenbauer/Jacobi parameters; sizes are chosen so the 1e-12 budget stays
# above the double-representation floor of the exact entries (at lam = 2
# that floor alone passes 1e-12 around (8, 30)).
BOUNDARY_SIZES = {
    bases.CHEBYSHEV: (10, 120),
    bases.LEGENDRE: (10, 120),
    bases.GEGENBAUER: (5, 12),
    bases.JACOBI: (8, 60),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.kind)
def test_boundary_condition(basis, seed):
    M, N = BOUNDARY_SIZES[basis.kind]
    a = random_kernel(M, seed)
    D = convmat.to_dense(convmat.build(basis, a, N))
    pv = values_at_minus_one(basis, D.shape[0] - 1)
    worst = max(abs(math.fsum(pv * D[:, n])) for n in range(N + 1))
    assert worst <= 1e-12


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.kind)
def test_symmetry_inner_submatrix(basis):
    M, N = 20, 200
    for seed in SEEDS:
        a = random_kernel(M, seed)
        D = convmat.to_dense(convmat.build(basis, a, N))
        kk = np.arange(M + 1, N + 1)
        for off in range(1, M + 2):
            k = kk[kk + off <= N]
            if len(k) == 0:
                continue
            rho = np.array([convmat.symmetry_ratio(basis, int(x), int(x + off))
                            for x in k])
            lhs = D[k, k + off]          # R_{n,k} with n = k, k = k+off roles
            rhs = rho * D[k + off, k]
            denom = np.maximum(1.0, np.abs(D[k + off, k]))
            assert np.max(np.abs(lhs - rhs) / denom) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_commutativity(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(0, 31))
    N = int(rng.integers(0, 31))
    a = rng.uniform(-1, 1, M + 1)
    b = rng.uniform(-1, 1, N + 1)
    for basis in ALL_BASES:
        c1 = convmat.apply(convmat.build(basis, a, N), b)
        c2 = convmat.apply(convmat.build(basis, b, M), a)
        assert np.max(np.abs(c1 - c2)) <= 1e-13


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_kernel_linearity(seed, finite_basis):
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(-1, 1, 9)
    a2 = rng.uniform(-1, 1, 9)
    b = rng.uniform(-1, 1, 21)
    lhs = convmat.apply(convmat.build(finite_basis, a1 + a2, 20), b)
    rhs = (convmat.apply(convmat.build(finite_basis, a1, 20), b)
           + convmat.apply(convmat.build(finite_basis, a2, 20), b))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: b.kind)
def test_oracle_equivalence(basis, seed):
    # extended-tier oracle: the plain tier's own quadrature noise sits near
    # 1e-12 for the endpoint-growing bases and would mask the comparison
    rng = np.random.default_rng(seed)
    M = int(rng.integers(0, 13))
    N = int(rng.integers(M + 3, 61))
    a = rng.uniform(-1, 1, M + 1)
    R = convmat.build(basis, a, N)
    cols = oracle.conv_coeff_block(PolySeries(basis, (-1, 1), a), N, extended=True)
    assert oracle.compare_entrywise(R, cols).max_abs <= 1e-13


def test_instability_witness_all_seeds():
    for seed in SEEDS:
        a = random_kernel(10, seed)
        naive = convmat.build_chebyshev_naive(a, 50)
        stable = convmat.to_dense(convmat.build_chebyshev(a, 50))
        above = np.triu(np.abs(naive - stable), k=1)
        assert above.max() >= 1e3


LD = np.longdouble
RING_BASES = ALL_BASES + [bases.gegenbauer(0.5), bases.jacobi(-0.5, 0.3),
                          bases.jacobi(0.3, -0.3), bases.weighted_laguerre()]
RING_DEGREE = 40


@st.composite
def ring_grids(draw):
    """(basis, dtype, x): a drawn basis, Jacobi with alpha != beta and
    drawn parameters among them, and a grid in float64 or longdouble with
    +-0, +-1, subnormals and the points where x2 + b_k = 0."""
    basis = draw(st.one_of(
        st.sampled_from(RING_BASES),
        st.tuples(st.floats(-0.95, 6.0), st.floats(-0.95, 6.0))
        .filter(lambda ab: abs(ab[0] + ab[1] + 1) > 1e-3)
        .map(lambda ab: bases.jacobi(*ab))))
    dtype = draw(st.sampled_from([np.float64, LD]))
    tiny = np.finfo(dtype).smallest_subnormal
    special = [0.0, -0.0, 1.0, -1.0, tiny, -tiny, 3 * tiny, np.finfo(dtype).tiny / 2]
    x = draw(st.lists(st.one_of(st.sampled_from(special),
                                st.floats(-1.0, 1.0, allow_subnormal=True)),
                      min_size=1, max_size=24))
    x = np.array(x, dtype=dtype)
    b = bases._step_tables(basis, RING_DEGREE, dtype)[2]
    if b is not None:     # x2 + b_k = 0 exactly: (-b_k / 2) doubled is -b_k
        ks = draw(st.lists(st.integers(0, RING_DEGREE - 1), max_size=6))
        x = np.concatenate([x, -b[ks] / 2])
    return basis, dtype, x


@given(ring_grids())
@settings(max_examples=150, deadline=None)
def test_ring_step_matches_the_three_pass_step(grid):
    # the ring step gives _recurrence_step's value at every point and
    # degree, and its bits wherever the value is nonzero; only where the
    # dtype is wider than double may an exact zero lose its sign
    basis, dtype, x = grid
    tables = bases._step_tables(basis, RING_DEGREE, dtype)
    x2, X, Q = bases._ring(tables, x.copy())
    wide = bases._wide(dtype)
    for k, want in enumerate(bases._scaled_values(tables, x + x, RING_DEGREE)):
        got = Q[1] if k == 0 else bases._ring_step(tables, k - 1, x2, X, Q)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), k
        differ = np.signbit(got) != np.signbit(want)
        assert not differ.any() if not wide else np.all(want[differ] == 0), k
