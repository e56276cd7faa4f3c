import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltconv import bases, convmat, quadrature, series
from voltconv.errors import (ArgumentError, BasisParameterError, DimensionError, DomainError,
                             NonResolutionError)
from voltconv.series import (ChopRule, PolySeries, chebyshev_points, clenshaw, evaluate,
                             fit_chebyshev, indefinite_integral_cheb,
                             series_from_csv, series_from_json, series_to_csv,
                             series_to_json, vals2coeffs)


class TestEvaluate:
    def test_chebyshev_t1(self):
        s = PolySeries(bases.chebyshev(), (-1, 1), [0, 1])
        assert evaluate(s, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_legendre_at_one(self):
        s = PolySeries(bases.legendre(), (-1, 1), [0, 0, 1])
        assert evaluate(s, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_jacobi_closed_form_at_minus_one(self):
        # P_3^(2, 3/2)(-1) = -(beta+1)_3/3! = -6.5625
        s = PolySeries(bases.jacobi(2.0, 1.5), (-1, 1), [0, 0, 0, 1])
        assert evaluate(s, -1.0) == pytest.approx(-6.5625, abs=1e-12)

    def test_affine_domain_mapping(self):
        s = PolySeries(bases.chebyshev(), (0, 2), [0, 1])  # T_1 of mapped var
        assert evaluate(s, 1.5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("basis, point", [
        (bases.chebyshev(), 1.5), (bases.chebyshev(), math.nan),
        (bases.weighted_laguerre(), math.nan)], ids=["beyond", "nan", "laguerre-nan"])
    def test_outside_domain_raises(self, basis, point):
        # NaN lies in no domain
        domain = (-1, 1) if basis.finite_interval else (0, math.inf)
        with pytest.raises(DomainError):
            evaluate(PolySeries(basis, domain, [1.0]), point)

    def test_constructor_validation(self):
        with pytest.raises(ArgumentError):
            PolySeries(bases.chebyshev(), (-1, 1), [])
        with pytest.raises(DimensionError, match="1-D"):
            PolySeries(bases.chebyshev(), (-1, 1), [[1.0, 0.5]])
        with pytest.raises(DomainError):
            PolySeries(bases.chebyshev(), (1, -1), [1.0])
        with pytest.raises(DomainError):
            PolySeries(bases.weighted_laguerre(), (0, 1), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coeffs_rejected(self, bad):
        with pytest.raises(ArgumentError):
            PolySeries(bases.chebyshev(), (-1, 1), [bad, 1.0])

    def test_laguerre_negative_point_raises(self):
        s = PolySeries(bases.weighted_laguerre(), (0, math.inf), [1.0])
        with pytest.raises(DomainError):
            evaluate(s, -0.5)

    def test_evaluate_matches_recurrence(self, finite_basis):
        rng = np.random.default_rng(0)
        c = rng.uniform(-1, 1, 20)
        s = PolySeries(finite_basis, (-1, 1), c)
        x = rng.uniform(-1, 1, 30)
        V = bases.poly_vandermonde(finite_basis, x, 19)
        np.testing.assert_allclose(evaluate(s, x), V @ c, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 51)
        u = rng.uniform(-1, 1, d + 1)
        v = rng.uniform(-1, 1, d + 1)
        x = rng.uniform(-1, 1, 7)
        basis = bases.chebyshev()
        su = PolySeries(basis, (-1, 1), u)
        sv = PolySeries(basis, (-1, 1), v)
        sw = PolySeries(basis, (-1, 1), u + v)
        np.testing.assert_allclose(evaluate(sw, x),
                                   evaluate(su, x) + evaluate(sv, x), atol=1e-14)


def _allocating_clenshaw(basis, coeffs, y):
    """The scaled Clenshaw sum written with allocating arithmetic: the reference."""
    y = np.asarray(y)
    y = y.astype(np.result_type(y, float), copy=False)
    c = np.asarray(coeffs).astype(y.dtype)
    K = len(c) - 1
    s, a, b, _ = bases._step_tables(basis, K + 2, y.dtype.type)
    C = bases.recurrence_abc(basis, np.arange(K + 2), y.dtype.type)[2]
    y2 = y + y
    bk1 = np.zeros_like(y)
    bk2 = np.zeros_like(y)
    for k in range(K, -1, -1):
        yk = y2 if a is None else y2 * a[k]
        yk = yk if b is None else yk + b[k]
        bk1, bk2 = yk * bk1 + c[k] * s[k] + C[k + 1] * s[k] / s[k + 2] * bk2, bk1
    return bk1


def _unscaled_clenshaw(basis, coeffs, y):
    """The Clenshaw sum on the unscaled recurrence_abc tables, allocating."""
    y = np.asarray(y)
    y = y.astype(np.result_type(y, float), copy=False)
    c = np.asarray(coeffs).astype(y.dtype)
    K = len(c) - 1
    A, B, C = bases.recurrence_abc(basis, np.arange(K + 2), y.dtype.type)
    bk1 = np.zeros_like(y)
    bk2 = np.zeros_like(y)
    for k in range(K, -1, -1):
        bk1, bk2 = c[k] + (A[k] * y + B[k]) * bk1 + C[k + 1] * bk2, bk1
    return bk1


CLENSHAW_BASES = [bases.chebyshev(), bases.legendre(), bases.gegenbauer(2.0),
                  bases.jacobi(2.0, 1.5), bases.jacobi(-0.5, 0.3),
                  bases.weighted_laguerre()]


def _clenshaw_points(layout, large, dtype):
    """Points in [-1, 1] of one layout; ``large`` puts three ranges' worth
    of bytes (bases._MIN_RANGE_BYTES each) in them, ``not large`` one
    range's worth at most."""
    rng = np.random.default_rng(11)
    rows = 3 * bases._MIN_RANGE_BYTES // np.dtype(dtype).itemsize // 64 + 1 if large else 3
    full = rng.uniform(-1, 1, (2 * rows, 2 * 64)).astype(dtype)
    return {"0-d": full[0, 0, ...],
            "1-d": full[:rows].reshape(-1),
            "2-d": full[:rows, :64].copy(),
            "view": full[::2, ::2],
            "fortran": np.asfortranarray(full[:rows, :64])}[layout]


class TestThreadedClenshaw:
    """series.clenshaw runs in place on ranges of the points, on up to one
    thread per CPU; its bits are those of the allocating form."""

    @pytest.mark.parametrize("basis", CLENSHAW_BASES, ids=lambda b: b.label())
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("layout, large", [
        (layout, large) for layout in ("0-d", "1-d", "2-d", "view", "fortran")
        for large in ("below", "above") if (layout, large) != ("0-d", "above")])
    def test_bits_match_the_allocating_form(self, basis, dtype, layout, large,
                                            monkeypatch):
        y = _clenshaw_points(layout, large == "above", dtype)
        assert (y.nbytes >= 3 * bases._MIN_RANGE_BYTES) == (large == "above")
        c = np.random.default_rng(12).uniform(-1, 1, 8 if large == "above" else 40)
        want = _allocating_clenshaw(basis, c, y)
        if basis.kind in (bases.CHEBYSHEV, bases.WEIGHTED_LAGUERRE):
            # their scales are powers of two or ones: the unscaled bits
            old = _unscaled_clenshaw(basis, c, y)
            assert np.array_equal(old, want)
            assert np.array_equal(np.signbit(old), np.signbit(want))
        for cpus in (1, 3):
            monkeypatch.setattr(bases, "_cpu_count", lambda cpus=cpus: cpus)
            got = clenshaw(basis, c, y)
            assert got.dtype == want.dtype and got.shape == np.shape(want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("basis", [bases.chebyshev(), bases.weighted_laguerre()],
                             ids=lambda b: b.label())
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_unscaled_bits_at_degree_400(self, basis, dtype):
        y = _clenshaw_points("1-d", False, dtype)
        if not basis.finite_interval:
            y = 5 * (y + 1)
        c = np.random.default_rng(13).uniform(-1, 1, 401)
        want = _unscaled_clenshaw(basis, c, y)
        got = clenshaw(basis, c, y)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_kernel_runs_on_the_workers_above_the_floor(self, monkeypatch):
        threads = []
        rows = series._clenshaw_rows

        def on_worker(*args):
            threads.append(threading.get_ident())
            return rows(*args)

        monkeypatch.setattr(series, "_clenshaw_rows", on_worker)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        y = _clenshaw_points("2-d", True, np.float64)
        clenshaw(bases.legendre(), np.ones(200), y)   # starts the pool's threads
        before = threading.active_count()
        for _ in range(2):
            del threads[:]
            clenshaw(bases.legendre(), np.ones(200), y)
            assert threading.active_count() == before
            # the caller sums the last range, the pool's threads the others
            assert len(threads) == 3 and len(set(threads)) >= 2
            assert threads.count(threading.get_ident()) == 1

    def test_no_pool_below_the_floor(self, monkeypatch):
        def no_pool():
            raise AssertionError("the worker pool was used below the floor")

        monkeypatch.setattr(bases, "_pool", no_pool)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        y = _clenshaw_points("2-d", False, np.longdouble)
        assert y.nbytes < bases._MIN_RANGE_BYTES
        clenshaw(bases.jacobi(2.0, 1.5), np.ones(200), y)
        s = fit_chebyshev(np.cos, (0.0, 3.0))
        evaluate(s, np.linspace(0.0, 3.0, 200))

    def test_wide_ranges_may_be_a_quarter_of_the_floor(self, monkeypatch):
        # a longdouble term stores four or five 80-bit arrays per point, so
        # its sum splits from 64 KiB a range, where float64 needs 256 KiB
        parts = []
        run_split = bases._run_split

        def record(work, split):
            parts.append(len(split))
            run_split(work, split)

        monkeypatch.setattr(bases, "_run_split", record)
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        wide = bases._wide(np.longdouble)
        n = 3 * series._MIN_WIDE_RANGE_BYTES // np.dtype(np.longdouble).itemsize
        for dtype, points, want in ((np.longdouble, n, 3 if wide else 1),
                                    (np.longdouble, n - 1, 2 if wide else 1),
                                    (np.float64, n, 1)):
            del parts[:]
            y = np.linspace(-1, 1, points).astype(dtype)
            got = clenshaw(bases.legendre(), np.ones(20), y)
            assert parts == [want]
            assert np.array_equal(got, _allocating_clenshaw(bases.legendre(), np.ones(20), y))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_kernel_error_reaches_the_caller(self, cpus, monkeypatch):
        caller = threading.get_ident()

        def fail(*args):
            if cpus == 1 or threading.get_ident() != caller:   # a worker's range
                raise FloatingPointError("kernel failed")

        monkeypatch.setattr(series, "_clenshaw_rows", fail)
        monkeypatch.setattr(bases, "_cpu_count", lambda: cpus)
        y = _clenshaw_points("1-d", True, np.float64)
        for run in range(3):
            with pytest.raises(FloatingPointError, match="kernel failed"):
                clenshaw(bases.legendre(), [1.0, 0.5], y)
            if run == 0:      # the first run starts the shared pool's threads
                before = threading.active_count()
            assert threading.active_count() == before

    def test_workers_see_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(bases, "_cpu_count", lambda: 3)
        y = np.full_like(_clenshaw_points("1-d", True, np.float64), np.inf)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                clenshaw(bases.legendre(), [1.0, 0.5], y)    # inf * 0 at k = 1


class TestValueAtMinusOne:
    def test_chebyshev(self):
        assert bases.values_at_minus_one(bases.chebyshev(), 7)[7] == -1.0

    def test_gegenbauer_poch(self):
        # (2 lam)_2 / 2! = 4*5/2 = 10 at lam = 2
        got = bases.values_at_minus_one(bases.gegenbauer(2.0), 2)[2]
        assert got == pytest.approx(10.0, rel=1e-14)

    def test_jacobi(self):
        got = bases.values_at_minus_one(bases.jacobi(2.0, 1.5), 1)[1]
        assert got == pytest.approx(-2.5, rel=1e-14)

    def test_gegenbauer_half_matches_legendre(self):
        # Legendre runs Gegenbauer's formulas at lambda = 1/2; they give the
        # bits of Legendre's own closed forms, sign bits included
        def same_bits(x, y):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(np.signbit(x), np.signbit(y))

        half, leg = bases.gegenbauer(0.5), bases.legendre()
        signs = np.where(np.arange(51) % 2, -1.0, 1.0)
        for basis in (half, leg):
            same_bits(bases.values_at_minus_one(basis, 50), signs)
            assert [math.copysign(1, w) for w in bases.weight_parameters(basis)] == [1, 1]
            assert bases.weight_parameters(basis) == (0.0, 0.0)
            for dtype in (np.float64, np.longdouble):
                n = np.arange(300, dtype=dtype)
                for got, want in zip(bases.recurrence_abc(basis, n, dtype),
                                     ((2 * n + 1) / (n + 1), np.zeros_like(n), -n / (n + 1))):
                    same_bits(got, want)
        (p_half, q_half), (p_leg, q_leg) = (convmat._ratio_tables(b, 300, 40)
                                            for b in (half, leg))
        assert q_half is None and q_leg is None
        same_bits(p_half, p_leg)      # p[o, k] = (-1)^(k+o) (k + o + 1/2)
        k = np.arange(301.0)
        same_bits(p_leg[0], (np.where(k % 2, -1.0, 1.0) * (k + 0.5))[:261])
        tables_half, tables_leg = convmat._tables(half, 300), convmat._tables(leg, 300)
        for name in ("A", "B", "C", "shat", "Ainv", "Cinv"):
            same_bits(getattr(tables_half, name), getattr(tables_leg, name))
        assert not np.any(tables_leg.shat[1:])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_degree_rejected(self):
        with pytest.raises(ArgumentError):
            bases.values_at_minus_one(bases.chebyshev(), -1)

    def test_laguerre_unsupported(self):
        from voltconv.errors import UnsupportedBasisError
        with pytest.raises(UnsupportedBasisError):
            bases.values_at_minus_one(bases.weighted_laguerre(), 3)

    def test_matches_recurrence_evaluation(self, finite_basis):
        V = bases.poly_vandermonde(finite_basis, np.array([-1.0]), 30)[0]
        for n in (0, 1, 5, 17, 30):
            got = bases.values_at_minus_one(finite_basis, n)[n]
            assert got == pytest.approx(V[n], rel=1e-11, abs=1e-13)


class TestIndefiniteIntegral:
    def test_constant(self):
        np.testing.assert_allclose(indefinite_integral_cheb([1.0]), [1, 1], atol=0)

    def test_t1(self):
        np.testing.assert_allclose(indefinite_integral_cheb([0, 1.0]),
                                   [-0.25, 0, 0.25], atol=0)

    def test_empty_raises(self):
        for coeffs in ([], [1.0, math.nan], [math.inf, 1.0, 1.0]):   # non-finite too
            with pytest.raises(ArgumentError):
                indefinite_integral_cheb(coeffs)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(-1, 1, 6)
        ic = indefinite_integral_cheb(c)
        s = PolySeries(bases.chebyshev(), (-1, 1), c)
        si = PolySeries(bases.chebyshev(), (-1, 1), ic)
        gl = quadrature.gauss_legendre(8)
        for y in np.linspace(-1, 1, 9):
            half = (y + 1) / 2
            t = -1 + half * (gl.x + 1)
            ref = half * np.dot(gl.w, evaluate(s, t))
            assert evaluate(si, y) == pytest.approx(ref, abs=1e-15)

    def test_vanishes_at_minus_one_and_derivative(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(-1, 1, 9)
        ic = indefinite_integral_cheb(c)
        s = PolySeries(bases.chebyshev(), (-1, 1), c)
        si = PolySeries(bases.chebyshev(), (-1, 1), ic)
        assert abs(evaluate(si, -1.0)) <= 1e-15
        x = np.random.default_rng(3).uniform(-0.9, 0.9, 20)
        h = 1e-6
        dnum = (evaluate(si, x + h) - evaluate(si, x - h)) / (2 * h)
        np.testing.assert_allclose(dnum, evaluate(s, x), atol=1e-6)


class TestFitting:
    def test_identity(self):
        s = fit_chebyshev(lambda x: x, (-1, 1))
        np.testing.assert_allclose(s.coeffs, [0, 1], atol=5e-16)

    def test_renewal_kernel_degree(self):
        s = fit_chebyshev(lambda x: 0.5 * x**2 * np.exp(-x), (0, 2))
        assert s.degree <= 16
        xs = np.linspace(0, 2, 300)
        np.testing.assert_allclose(evaluate(s, xs), 0.5 * xs**2 * np.exp(-xs),
                                   atol=5e-16)

    def test_exp_projection_coefficient(self):
        # c_0 of e^x on [-1,1] via the Gauss-Chebyshev projection integral
        s = fit_chebyshev(np.exp, (-1, 1))
        r = quadrature.gauss_jacobi(-0.5, -0.5, 40)
        c0 = np.dot(r.w, np.exp(r.x)) / np.pi
        assert abs(c0 - 1.2660658777520084) < 1e-14  # oracle self-check
        assert s.coeffs[0] == pytest.approx(c0, abs=1e-14)

    @pytest.mark.parametrize("d", [3, 17, 64, 100])
    def test_polynomial_roundtrip(self, d):
        rng = np.random.default_rng(d)
        c = rng.uniform(-1, 1, d + 1)
        c[-1] = 0.5 + abs(c[-1])  # keep the top coefficient solid
        src = PolySeries(bases.chebyshev(), (-1, 1), c)
        fit = fit_chebyshev(lambda x: evaluate(src, x), (-1, 1))
        assert fit.degree >= d
        got = np.zeros(max(fit.degree, d) + 1)
        got[:fit.degree + 1] = fit.coeffs
        ref = np.zeros_like(got)
        ref[:d + 1] = c
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_nonresolution_carries_series(self):
        rule = ChopRule(rel_tol=1e-15, max_degree=64)
        with pytest.raises(NonResolutionError) as exc:
            fit_chebyshev(lambda x: np.abs(x - 0.1234), (-1, 1), rule)
        assert exc.value.series is not None
        assert exc.value.series.degree <= 64

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ArgumentError, match="non-finite"):
            fit_chebyshev(lambda x: np.where(x > 0.5, np.nan, x), (-1, 1))
        with pytest.raises(ArgumentError, match="non-finite"):
            series.fit_fixed_chebyshev(lambda x: np.where(x > 0.5, np.inf, x), (-1, 1), 8)

    def test_constant_fit(self):
        # f returns one number for the whole grid
        for s in (fit_chebyshev(lambda x: 2.5, (0, 3)),
                  series.fit_fixed_chebyshev(lambda x: 2.5, (0, 3), 4)):
            np.testing.assert_allclose(evaluate(s, np.linspace(0, 3, 7)), 2.5, rtol=1e-15)

    def test_fixed_degree_interpolation(self):
        from voltconv.series import fit_fixed_chebyshev
        s = fit_fixed_chebyshev(np.exp, (-1, 1), 20)
        assert s.degree == 20
        xs = np.linspace(-1, 1, 33)
        np.testing.assert_allclose(evaluate(s, xs), np.exp(xs), atol=1e-14)

    def test_vals2coeffs_t5(self):
        v = np.cos(5 * np.arccos(chebyshev_points(8)))
        c = vals2coeffs(v)
        expect = np.zeros(9)
        expect[5] = 1.0
        np.testing.assert_allclose(c, expect, atol=1e-14)

    def test_chop_rule_validation(self):
        with pytest.raises(ArgumentError):
            ChopRule(rel_tol=0.0)
        for max_degree in (0, 2.5):
            with pytest.raises(ArgumentError):
                ChopRule(max_degree=max_degree)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("domain, degree, error", [
        ((0.0, 1.0), 2.5, ArgumentError), ((math.nan, 1.0), 4, DomainError)],
        ids=["degree-fraction", "domain-nan"])
    def test_fixed_fit_input_rejected(self, domain, degree, error):
        with pytest.raises(error):
            series.fit_fixed_chebyshev(np.cos, domain, degree)


class TestSerialization:
    def test_json_roundtrip(self, finite_basis):
        s = PolySeries(finite_basis, (0, 2), [1.0, -0.5, 0.25])
        t = series_from_json(series_to_json(s))
        assert t.basis == s.basis and t.domain == s.domain
        np.testing.assert_array_equal(t.coeffs, s.coeffs)

    def test_csv_roundtrip(self, finite_basis):
        s = PolySeries(finite_basis, (-1, 1), [0.1, 0.2, -0.3])
        t = series_from_csv(series_to_csv(s))
        assert t.basis == s.basis and t.domain == s.domain
        np.testing.assert_array_equal(t.coeffs, s.coeffs)

    def test_laguerre_domain_null(self):
        s = PolySeries(bases.weighted_laguerre(), (0, math.inf), [1.0, 2.0])
        text = series_to_json(s)
        assert '"domain": [0.0, null]' in text
        t = series_from_json(text)
        assert t.domain == (0.0, math.inf)
        t2 = series_from_csv(series_to_csv(s))
        assert t2.domain == (0.0, math.inf)

    def test_fit_json_roundtrip_evaluation(self):
        s = fit_chebyshev(np.exp, (-1, 1))
        t = series_from_json(series_to_json(s))
        x = np.linspace(-1, 1, 41)
        np.testing.assert_allclose(evaluate(t, x), evaluate(s, x), atol=1e-15)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_json_nonfinite_token_rejected(self, token):
        text = ('{"basis": {"kind": "Chebyshev"}, "domain": [-1, 1], '
                f'"coeffs": [1.0, {token}]}}')
        with pytest.raises(ArgumentError):
            series_from_json(text)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_csv_nonfinite_coeff_rejected(self, token):
        text = f"# basis: Chebyshev\n# domain: -1 1\n1.0\n{token}\n"
        with pytest.raises(ArgumentError):
            series_from_csv(text)

    @pytest.mark.parametrize("kind, params, match", [
        ("Gegenbauer", {"lambda": math.inf}, "lambda > -1/2"),
        ("Jacobi", {"alpha": 0.5, "beta": math.inf}, "alpha, beta > -1"),
        ("Chebyshev", {"lambda": 0.5}, "only valid for Gegenbauer"),
        ("Gegenbauer", {"lambda": 2.0, "beta": 1.0}, "only valid for Jacobi"),
    ], ids=["lambda-inf", "beta-inf", "lambda-on-chebyshev", "beta-on-gegenbauer"])
    def test_bad_basis_parameter_rejected(self, kind, params, match):
        # a parameter must be finite and belong to its kind, in JSON and CSV
        text = json.dumps({"basis": {"kind": kind, **params}, "domain": [-1, 1],
                           "coeffs": [1.0]})
        with pytest.raises(BasisParameterError, match=match):
            series_from_json(text)
        lines = [f"# basis: {kind}"] + [f"# {k}: {v}" for k, v in params.items()]
        with pytest.raises(BasisParameterError, match=match):
            series_from_csv("\n".join(lines + ["# domain: -1 1", "1.0"]) + "\n")
