"""Command-line front end: fit, build, convolve, solve, verify, instability.

All subcommands are deterministic given their flags; seeded runs use the
package's own splitmix64 stream so results reproduce across platforms.
Exit codes: 0 success, 2 bad arguments, 3 I/O failure, 4 numerical failure
(including a platform whose np.longdouble is too narrow for `verify` and
`instability`).
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import sys

import numpy as np

from . import bases, convmat, laguerre, oracle, series, volterra
from .errors import (ArgumentError, VoltconvError, SingularSystemError, ConvergenceError,
                     NarrowLongdoubleError, NonResolutionError, RangeOverflowError)
from .prng import random_kernel

_EXIT_BAD_ARGS = 2
_EXIT_IO = 3
_EXIT_NUMERICAL = 4


def _basis_from_flags(args) -> bases.BasisSpec:
    kind = args.basis.lower()
    if kind == "chebyshev":
        return bases.chebyshev()
    if kind == "legendre":
        return bases.legendre()
    if kind == "gegenbauer":
        if args.lam is None:
            raise argparse.ArgumentTypeError("--basis gegenbauer needs --lambda")
        return bases.gegenbauer(args.lam)
    if kind == "jacobi":
        if args.alpha is None or args.beta is None:
            raise argparse.ArgumentTypeError("--basis jacobi needs --alpha and --beta")
        return bases.jacobi(args.alpha, args.beta)
    if kind in ("weightedlaguerre", "weighted_laguerre", "laguerre"):
        return bases.weighted_laguerre()
    raise argparse.ArgumentTypeError(f"unknown basis {args.basis!r}")


def _load_series(path: str) -> series.PolySeries:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return series.series_from_csv(text)
    return series.series_from_json(text)


def _dump_series(s: series.PolySeries, path: str, fmt: str):
    text = series.series_to_csv(s) if fmt == "csv" else series.series_to_json(s)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _matrix_csv(dense: np.ndarray) -> str:
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in dense) + "\n"


_FIT_NAMESPACE = {
    "np": np, "pi": np.pi, "e": np.e,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "sinh": np.sinh,
    "cosh": np.cosh, "tanh": np.tanh, "arctan": np.arctan,
}
_FIT_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.Pow: operator.pow}
_FIT_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _fit_eval(node, x):
    """Value at x of a parsed fit expression, over the whitelist only.

    Numeric literals, x, the constants and functions of _FIT_NAMESPACE,
    arithmetic and unary operators, and calls of those functions or of
    public numpy ufuncs (np.<name>); anything else is rejected.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "x":
        return x
    if isinstance(node, ast.Name) and isinstance(_FIT_NAMESPACE.get(node.id), float):
        return _FIT_NAMESPACE[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _FIT_BINOPS:
        return _FIT_BINOPS[type(node.op)](_fit_eval(node.left, x), _fit_eval(node.right, x))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _FIT_UNARYOPS:
        return _FIT_UNARYOPS[type(node.op)](_fit_eval(node.operand, x))
    if isinstance(node, ast.Call) and not node.keywords:
        fn = node.func
        if isinstance(fn, ast.Name):
            func = _FIT_NAMESPACE.get(fn.id)
        elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
              and fn.value.id == "np" and not fn.attr.startswith("_")):
            func = getattr(np, fn.attr, None)
        else:
            func = None
        if isinstance(func, np.ufunc) and len(node.args) == func.nin:
            return func(*[_fit_eval(arg, x) for arg in node.args])
    raise ArgumentError(f"fit expression may not contain {ast.unparse(node)!r}")


def _cmd_fit(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        expr = ast.parse(spec["expr"], mode="eval").body
    except SyntaxError as exc:
        raise ArgumentError(f"fit expression does not parse: {exc}") from None

    def f(x):
        return _fit_eval(expr, x)

    if spec.get("basis", "Chebyshev") == bases.WEIGHTED_LAGUERRE:
        s = laguerre.fit_laguerre(f, int(spec["degree"]))
    else:
        a, b = spec["domain"]
        rule = series.ChopRule(rel_tol=float(spec.get("rel_tol", 1e-15)),
                               max_degree=int(spec.get("max_degree", 65536)))
        s = series.fit_chebyshev(f, (float(a), float(b)), rule)
    _dump_series(s, args.out, args.format)
    print(f"degree {s.degree}", file=sys.stderr)
    return 0


def _cmd_build(args) -> int:
    f = _load_series(args.infile)
    basis = _basis_from_flags(args) if args.basis else f.basis
    if basis != f.basis:
        raise VoltconvError("--basis flags disagree with the input series basis")
    if not basis.finite_interval:
        R = laguerre.build_laguerre(f.coeffs, args.N)
        dense = laguerre.to_dense_laguerre(R)
    else:
        a, b = f.domain
        R = convmat.build(basis, f.coeffs, args.N, scale=(b - a) / 2.0)
        dense = convmat.to_dense(R)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_matrix_csv(dense))
    return 0


def _cmd_convolve(args) -> int:
    f = _load_series(args.f)
    g = _load_series(args.g)
    h = volterra.convolve(f, g)
    _dump_series(h, args.out, args.format)
    return 0


def _cmd_solve(args) -> int:
    kernel = _load_series(args.kernel)
    rhs = _load_series(args.rhs)
    problem = volterra.VolterraProblem(kernel, rhs)
    u = volterra.solve_second_kind(problem, args.N)
    _dump_series(u, args.out, args.format)
    a, b = problem.domain
    pts = np.linspace(a, b, 200)
    resid = np.abs(series.evaluate(u, pts) - series.evaluate(rhs, pts)
                   - oracle.conv_point_oracle(kernel, u, pts))
    print(f"residual max {resid.max():.3e}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    basis = _basis_from_flags(args)
    if not basis.finite_interval:
        raise VoltconvError("verify covers the finite-interval builders")
    a = random_kernel(args.M, args.seed)
    R = convmat.build(basis, a, args.N)
    f = series.PolySeries(basis, (-1.0, 1.0), a)
    if args.M + args.N <= oracle.COEFF_ORACLE_CAP:
        cols = oracle.conv_coeff_block(f, args.N, extended=True)
        rep = oracle.compare_entrywise(R, cols, meta={"seed": args.seed})
    else:
        rep = oracle.sampled_value_errors(R, f, 500, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(oracle.report_to_csv(rep))
    print(f"max_abs {rep.max_abs:.17g}", file=sys.stderr)
    return 0


def _cmd_instability(args) -> int:
    a = random_kernel(args.M, args.seed)
    f = series.PolySeries(bases.chebyshev(), (-1.0, 1.0), a)
    cols = oracle.conv_coeff_block(f, args.N, extended=True)
    naive = convmat.build_chebyshev_naive(a, args.N)
    stable = convmat.build_chebyshev(a, args.N)
    rep_naive = oracle.compare_entrywise(naive, cols, meta={
        "basis": "Chebyshev", "M": args.M, "N": args.N, "seed": args.seed,
        "builder": "naive"})
    rep_stable = oracle.compare_entrywise(stable, cols, meta={"seed": args.seed,
                                                              "builder": "stable"})
    base = args.out or "instability"
    for tag, rep in (("naive", rep_naive), ("stable", rep_stable)):
        with open(f"{base}.{tag}.csv", "w", encoding="utf-8") as fh:
            fh.write(oracle.report_to_csv(rep))
    print(f"naive max_abs {rep_naive.max_abs:.17g}", file=sys.stderr)
    print(f"stable max_abs {rep_stable.max_abs:.17g}", file=sys.stderr)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voltconv",
        description="Volterra convolution matrices in orthogonal polynomial bases")
    sub = p.add_subparsers(dest="command", required=True)

    def add_basis_flags(sp):
        sp.add_argument("--basis", default=None,
                        help="chebyshev | legendre | gegenbauer | jacobi | weightedlaguerre")
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)

    sp = sub.add_parser("fit", help="fit an expression adaptively")
    sp.add_argument("--in", dest="infile", required=True,
                    help='JSON: {"expr": "...", "domain": [a, b]} or '
                         '{"expr": "...", "basis": "WeightedLaguerre", "degree": d}')
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("build", help="build a convolution matrix, write dense CSV")
    add_basis_flags(sp)
    sp.add_argument("--in", dest="infile", required=True, help="kernel series file")
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_build)

    sp = sub.add_parser("convolve", help="convolve two fitted series")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_convolve)

    sp = sub.add_parser("solve", help="solve u = rhs + kernel * u")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="compare a seeded build against the oracle")
    add_basis_flags(sp)
    sp.add_argument("-M", type=int, required=True)
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", default=None, help="error-report CSV path")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("instability", help="naive vs stable error reports")
    sp.add_argument("-M", type=int, default=10)
    sp.add_argument("-N", type=int, default=50)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--out", default=None, help="report path prefix")
    sp.set_defaults(func=_cmd_instability)
    return p


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"voltconv: i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (SingularSystemError, ConvergenceError, NonResolutionError,
            RangeOverflowError) as exc:
        print(f"voltconv: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except NarrowLongdoubleError as exc:
        print(f"voltconv: platform limit: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (VoltconvError, argparse.ArgumentTypeError, ValueError, KeyError) as exc:
        print(f"voltconv: invalid arguments: {exc}", file=sys.stderr)
        return _EXIT_BAD_ARGS


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
