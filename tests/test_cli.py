import json

import numpy as np
import pytest

from voltconv import bases, convmat, laguerre, quadrature
from voltconv.cli import run
from voltconv.errors import ArgumentError
from voltconv.prng import SplitMix64, random_kernel
from voltconv.series import PolySeries, evaluate, series_from_json, series_to_csv


@pytest.fixture()
def one_json(tmp_path):
    p = tmp_path / "one.json"
    p.write_text('{"basis": {"kind": "Chebyshev"}, "domain": [-1, 1], "coeffs": [1.0]}')
    return str(p)


class TestRandomKernel:
    def test_deterministic(self):
        a = random_kernel(10, 1)
        b = random_kernel(10, 1)
        np.testing.assert_array_equal(a, b)

    def test_range(self):
        a = random_kernel(5000, 3)
        assert np.all(np.abs(a) <= 1.0)

    def test_seeds_differ(self):
        assert not np.array_equal(random_kernel(10, 1), random_kernel(10, 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: random_kernel(2.5, 3), id="M-fraction"),
        pytest.param(lambda: SplitMix64(-1), id="seed-negative"),
        pytest.param(lambda: SplitMix64(2.5), id="seed-fraction"),
        pytest.param(lambda: SplitMix64(1).uniform(-1), id="uniform-negative"),
        pytest.param(lambda: SplitMix64(1).integers(2.5, 4), id="integers-fraction")])
    def test_bad_size_rejected(self, make):
        with pytest.raises(ArgumentError):
            make()

    def test_splitmix_reference_values(self):
        # first outputs of splitmix64 for seed 0 (published reference stream)
        s = SplitMix64(0)
        assert s.next_uint64() == 0xE220A8397B1DCDAF
        assert s.next_uint64() == 0x6E789E6AA1B965F4


class TestSubcommands:
    def test_fit_roundtrip(self, tmp_path):
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"expr": "0.5*x**2*exp(-x)", "domain": [0, 2]}))
        out = tmp_path / "f.json"
        assert run(["fit", "--in", str(req), "--out", str(out)]) == 0
        s = series_from_json(out.read_text())
        xs = np.linspace(0, 2, 50)
        np.testing.assert_allclose(evaluate(s, xs), 0.5 * xs**2 * np.exp(-xs),
                                   atol=1e-15)

    @pytest.mark.parametrize("expr", [
        "().__class__.__base__.__subclasses__()",
        "x + 0*().__class__.__base__.__subclasses__().__len__()",
        "np.linalg.norm(x)", "__import__('os')", "sin(x, x)", "x +"])
    def test_fit_rejects_non_whitelisted(self, tmp_path, capsys, expr):
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"expr": expr, "domain": [0, 2]}))
        out = tmp_path / "f.json"
        assert run(["fit", "--in", str(req), "--out", str(out)]) == 2
        assert "invalid arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_constant(self, tmp_path):
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"expr": "1", "domain": [0, 2]}))
        out = tmp_path / "f.json"
        assert run(["fit", "--in", str(req), "--out", str(out)]) == 0
        np.testing.assert_array_equal(series_from_json(out.read_text()).coeffs, [1.0])

    def test_fit_numpy_ufunc_attribute(self, tmp_path):
        outs = []
        for expr in ("0.5*x**2*exp(-x)", "0.5*x**2*np.exp(-x)"):
            req = tmp_path / "req.json"
            req.write_text(json.dumps({"expr": expr, "domain": [0, 2]}))
            out = tmp_path / "f.json"
            assert run(["fit", "--in", str(req), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_build_unit_matrix(self, tmp_path, one_json):
        out = tmp_path / "R.csv"
        assert run(["build", "--basis", "chebyshev", "--in", one_json,
                    "-N", "2", "--out", str(out)]) == 0
        rows = [list(map(float, line.split(",")))
                for line in out.read_text().strip().splitlines()]
        np.testing.assert_allclose(rows, [[1, -0.25, -1 / 3], [1, 0, -0.5],
                                          [0, 0.25, 0], [0, 0, 1 / 6]], atol=1e-15)

    @pytest.mark.parametrize("name", ["legendre.csv", "laguerre.json"])
    def test_build_matches_the_library(self, tmp_path, name):
        # a Legendre series on [0, 2] (scale 1) read from CSV, and a
        # weighted-Laguerre series on the half line
        a = random_kernel(4, 2)
        if name == "legendre.csv":
            text = series_to_csv(PolySeries(bases.legendre(), (0.0, 2.0), a))
            want = convmat.to_dense(convmat.build(bases.legendre(), a, 6))
        else:
            text = json.dumps({"basis": {"kind": "WeightedLaguerre"},
                               "domain": [0, None], "coeffs": list(a)})
            want = laguerre.to_dense_laguerre(laguerre.build_laguerre(a, 6))
        infile = tmp_path / name
        infile.write_text(text)
        out = tmp_path / "R.csv"
        assert run(["build", "--in", str(infile), "-N", "6", "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", ndmin=2)
        np.testing.assert_array_equal(got, want)

    def test_verify_sampled_report(self, tmp_path, capsys):
        # M + N > oracle.COEFF_ORACLE_CAP: the pointwise (sampled) report
        out = tmp_path / "rep.csv"
        assert run(["verify", "--basis", "chebyshev", "-M", "1", "-N", "600",
                    "--seed", "1", "--out", str(out)]) == 0
        max_abs = float(capsys.readouterr().err.split()[1])
        assert max_abs <= 1e-13
        lines = out.read_text().strip().splitlines()
        rows = lines[lines.index("sample,column,abs_error") + 1:-1]
        assert len(rows) == 500
        assert all(0 <= int(row.split(",")[1]) <= 600 for row in rows)
        assert lines[-1] == f"max_abs,{max_abs:.17g}"

    def test_verify_report(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        assert run(["verify", "--basis", "chebyshev", "-M", "10", "-N", "50",
                    "--seed", "1", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("max_abs ")
        assert float(err.split()[1]) <= 1e-14
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("max_abs,")

    def test_solve_and_convolve(self, tmp_path, capsys):
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"expr": "0.5*x**2*exp(-x)", "domain": [0, 2]}))
        fpath = tmp_path / "f.json"
        upath = tmp_path / "u.json"
        hpath = tmp_path / "h.json"
        assert run(["fit", "--in", str(req), "--out", str(fpath)]) == 0
        assert run(["solve", "--kernel", str(fpath), "--rhs", str(fpath),
                    "-N", "17", "--out", str(upath)]) == 0
        resid = capsys.readouterr().err.splitlines()[-1]
        assert float(resid.split()[-1]) <= 1e-13
        u = series_from_json(upath.read_text())
        xs = np.linspace(0, 2, 300)
        exact = (1 / 3 - (np.cos(np.sqrt(3) / 2 * xs)
                          + np.sqrt(3) * np.sin(np.sqrt(3) / 2 * xs))
                 * np.exp(-1.5 * xs) / 3)
        assert np.max(np.abs(evaluate(u, xs) - exact)) <= 1e-13
        assert run(["convolve", "--f", str(fpath), "--g", str(upath),
                    "--out", str(hpath)]) == 0
        h = series_from_json(hpath.read_text())
        assert h.degree == 15 + 17 + 1

    def test_instability_reports(self, tmp_path, capsys):
        prefix = str(tmp_path / "inst")
        assert run(["instability", "-M", "10", "-N", "50", "--seed", "1",
                    "--out", prefix]) == 0
        err = capsys.readouterr().err
        naive = float(err.splitlines()[0].split()[-1])
        stable = float(err.splitlines()[1].split()[-1])
        assert naive >= 1e3 and stable <= 1e-13
        assert (tmp_path / "inst.naive.csv").exists()
        assert (tmp_path / "inst.stable.csv").exists()

    def test_exit_codes(self, tmp_path, one_json, capsys):
        assert run(["build", "--basis", "nosuch", "--in", one_json,
                    "-N", "2", "--out", str(tmp_path / "x.csv")]) == 2
        assert run(["verify", "--basis", "gegenbauer", "-M", "1", "-N", "2"]) == 2
        assert "--basis gegenbauer needs --lambda" in capsys.readouterr().err
        assert run(["solve", "--kernel", str(tmp_path / "missing.json"),
                    "--rhs", one_json, "-N", "2",
                    "--out", str(tmp_path / "u.json")]) == 3
        # kernel T_0 at N=0 makes I - R^0 exactly singular
        assert run(["solve", "--kernel", one_json, "--rhs", one_json,
                    "-N", "0", "--out", str(tmp_path / "u.json")]) == 4
        capsys.readouterr()

    def test_laguerre_fit_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"expr": "x*exp(-x)", "basis": "WeightedLaguerre",
                                   "degree": 244}))
        out = tmp_path / "f.json"
        assert run(["fit", "--in", str(req), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("voltconv: numerical failure: ") and "degree 244" in err
        assert not out.exists()

    def test_narrow_longdouble_is_a_platform_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(quadrature, "EXTENDED_AVAILABLE", False)
        assert run(["verify", "--basis", "legendre", "-M", "3", "-N", "10",
                    "--seed", "1"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("voltconv: platform limit: ")
        assert "longdouble" in err and "invalid arguments" not in err

    def test_determinism(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{tag}.csv"
            assert run(["verify", "--basis", "legendre", "-M", "5", "-N", "20",
                        "--seed", "9", "--out", str(out)]) == 0
            outs.append(out.read_text())
        capsys.readouterr()
        assert outs[0] == outs[1]
