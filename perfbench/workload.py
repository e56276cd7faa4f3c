"""One benchmark workload in one process: set-up, timed calls, checks.

run.py starts this file with its own options (``parser``), PYTHONPATH
pointing at the checkout's ``src`` and the BLAS/OpenMP thread count set; it
is not meant to be run by hand.
The last line of standard output is a JSON object with the measurements.

A workload is a list of segments.  A segment's calls are repeated in order,
at least MIN_REPS times and while the segment's share of ``--seconds``
lasts.  Every call is timed alone
from outside with ``time.perf_counter`` and its output checked outside the
timed region.  A metric sums, over the segment's calls, the median of each
call's repetitions, so one disturbed repetition does not move it.  The
``*_ref_s`` metrics sum the same medians after scaling every sample to a
reference machine speed (see Runner).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("build-sweep", "apply-stream", "solve-verify")
MIN_REPS = 3
PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.008
CLASSES = ("build", "apply", "laguerre", "solve", "verify", "cli")
# Top-level spans must cover the untraced wall_s within this share, or the
# traced run is not correct.
COVERAGE_BOUND = 0.15
FINITE_BASES = (("chebyshev", ()), ("legendre", ()), ("gegenbauer", (2.0,)),
                ("jacobi", (2.0, 1.5)))


class Call:
    """One public call: ``fn()`` is timed, ``check(output)`` is not."""

    __slots__ = ("label", "cls", "fn", "check")

    def __init__(self, label, cls, fn, check):
        self.label, self.cls, self.fn, self.check = label, cls, fn, check


class Segment:
    """Calls repeated together; ``weight`` is the segment's share of time."""

    def __init__(self, calls, weight=1.0, teardown=None):
        self.calls, self.weight, self.teardown = calls, weight, teardown


def sub_seed(seed: int, *tags: int) -> int:
    """Deterministic non-negative 63-bit seed derived from seed and tags."""
    h = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


def finite_bases():
    from voltconv import bases
    return [(name, getattr(bases, name)(*params)) for name, params in FINITE_BASES]


def _kernel(M, seed, tag):
    from voltconv import prng
    return prng.random_kernel(M, sub_seed(seed, tag, M))


def _vectors(n, length, seed, tag):
    rng = np.random.default_rng([seed, tag, length])
    return [rng.uniform(-1.0, 1.0, length) for _ in range(n)]


# ---------------------------------------------------------------------------
# workloads

def build_sweep(seed: int, tiny: bool):
    """Every finite basis at three (M, N): one build, then one apply."""
    from voltconv import convmat
    sizes = [(10, 40), (2, 30), (5, 25)] if tiny else \
        [(10, 20000), (100, 4000), (1000, 5000)]
    rng = np.random.default_rng([seed, 1])
    st = {}
    calls = []
    for M, N in sizes:
        a = _kernel(M, seed, 1)
        b = _vectors(1, N + 1, seed, 1)[0]
        for name, basis in finite_bases():
            key = f"{name}/M{M}N{N}"
            w = checks.minus_one_values(basis, M + N + 2)
            cols = [N, int(rng.integers(1, N + 1))]
            row = int(rng.integers(M + 1, M + N + 2))

            def do_build(basis=basis, a=a, N=N, key=key):
                st[key] = convmat.build(basis, a, N)
                return st[key]

            def do_apply(key=key, b=b):
                return convmat.apply(st[key], b)

            def check_apply(c, key=key, b=b, w=w, row=row):
                return checks.apply(st.pop(key), b, c, w, row)

            calls.append(Call(f"build/{key}", "build", do_build,
                              lambda R, M=M, N=N, w=w, cols=cols:
                              checks.build(R, M, N, w, cols)))
            calls.append(Call(f"apply/{key}", "apply", do_apply, check_apply))
    return [Segment(calls)]


def apply_stream(seed: int, tiny: bool):
    """Per matrix, one build then many applies; Laguerre on both paths."""
    from voltconv import convmat, laguerre
    matrices = [(6, 50, 3), (10, 80, 5)] if tiny else \
        [(1000, 5000, 12), (10, 20000, 700)]
    lag = [(3, 20, 5), (300, 300, 3)] if tiny else \
        [(60, 1000, 2000), (1000, 100000, 20)]
    pool = 4 if tiny else 8
    rng = np.random.default_rng([seed, 2])
    st = {}
    segments = []
    for M, N, n_in in matrices:
        a = _kernel(M, seed, 2)
        inputs = _vectors(pool, N + 1, seed, 2)
        for name, basis in finite_bases():
            key = f"{name}/M{M}N{N}"
            w = checks.minus_one_values(basis, M + N + 2)
            cols = [N, int(rng.integers(1, N + 1))]

            def do_build(basis=basis, a=a, N=N):
                st["R"] = convmat.build(basis, a, N)
                return st["R"]

            calls = [Call(f"build/{key}", "build", do_build,
                          lambda R, M=M, N=N, w=w, cols=cols:
                          checks.build(R, M, N, w, cols))]
            for i in range(n_in):
                b = inputs[i % pool]
                row = int(rng.integers(M + 1, M + N + 2))
                calls.append(Call(
                    f"apply/{key}/{i}", "apply",
                    lambda b=b: convmat.apply(st["R"], b),
                    lambda c, b=b, w=w, row=row: checks.apply(st["R"], b, c, w, row)))
            segments.append(Segment(calls, teardown=st.clear))
    for M, N, n_in in lag:
        a = _kernel(M, seed, 3)
        R = laguerre.build_laguerre(a, N)
        inputs = _vectors(pool, N + 1, seed, 3)
        calls = []
        for i in range(n_in):
            b = inputs[i % pool]
            k = int(rng.integers(0, M + N + 2))
            calls.append(Call(
                f"laguerre/M{M}N{N}/{i}", "laguerre",
                lambda R=R, b=b: laguerre.apply_laguerre(R, b),
                lambda c, a=a, b=b, k=k: checks.apply_laguerre(a, b, c, k)))
        segments.append(Segment(calls, weight=0.2))
    return segments


def solve_verify(seed: int, tiny: bool, workdir: Path):
    """Renewal solves, oracle comparisons on all finite bases, and the CLI."""
    from voltconv import cli, convmat, oracle, series, volterra
    solve_n = [17, 30] if tiny else [17, 500, 1000, 2000, 4000]
    entry_size = (10, 12) if tiny else (10, 300)
    sample_size, n_samples = ((4, 20), 10) if tiny else ((100, 1000), 100)
    cli_n = 30 if tiny else 1000

    f = series.fit_chebyshev(lambda x: 0.5 * x**2 * np.exp(-x), (0.0, 2.0))
    problem = volterra.VolterraProblem(f, f)
    kernel_path = workdir / "kernel.json"
    kernel_path.write_text(series.series_to_json(f), encoding="utf-8")
    st = {}
    calls = []
    for N in solve_n:
        calls.append(Call(f"solve/N{N}", "solve",
                          lambda N=N: volterra.solve_second_kind(problem, N),
                          lambda u, N=N: checks.renewal(u.coeffs, u.domain, N)))
    M, N = entry_size
    a = _kernel(M, seed, 4)
    for name, basis in finite_bases():
        fs = series.PolySeries(basis, (-1.0, 1.0), a)
        w = checks.minus_one_values(basis, M + N + 2)
        tol = checks.ENTRYWISE_TOL[basis.kind]

        def do_build(basis=basis, key=name):
            st[key] = convmat.build(basis, a, N)
            return st[key]

        def do_block(fs=fs, key=name):
            st[key + "/cols"] = oracle.conv_coeff_block(fs, N, extended=True)
            return st[key + "/cols"]

        calls += [
            Call(f"build/{name}/M{M}N{N}", "build", do_build,
                 lambda R, w=w: checks.build(R, M, N, w, [N])),
            Call(f"block/{name}", "verify", do_block,
                 lambda cols: checks.oracle_block(cols, M, N)),
            Call(f"entrywise/{name}", "verify",
                 lambda key=name: oracle.compare_entrywise(st[key], st[key + "/cols"]),
                 lambda rep, tol=tol: checks.report(rep, tol))]
    Ms, Ns = sample_size
    a_s = _kernel(Ms, seed, 5)
    for name, basis in finite_bases():
        fs = series.PolySeries(basis, (-1.0, 1.0), a_s)
        w = checks.minus_one_values(basis, Ms + Ns + 2)
        tol = checks.SAMPLED_TOL[basis.kind]
        key = name + "/sampled"
        sample_seed = sub_seed(seed, 5, len(calls))

        def do_build(basis=basis, key=key):
            st[key] = convmat.build(basis, a_s, Ns)
            return st[key]

        calls += [
            Call(f"build/{name}/M{Ms}N{Ns}", "build", do_build,
                 lambda R, w=w: checks.build(R, Ms, Ns, w, [Ns])),
            Call(f"sampled/{name}", "verify",
                 lambda fs=fs, key=key, s=sample_seed:
                 oracle.sampled_value_errors(st[key], fs, n_samples, s),
                 lambda rep, key=key, w=w, tol=tol:
                 checks.sampled(rep, st[key], w, n_samples, tol))]

    u_path = workdir / "u.json"
    cli_seed = sub_seed(seed, 6) % (1 << 31)
    jacobi = ["--basis", "jacobi", "--alpha", "2", "--beta", "1.5"]
    solve_argv = ["solve", "--kernel", str(kernel_path), "--rhs", str(kernel_path),
                  "-N", str(cli_n), "--out", str(u_path)]
    verify_argv = ["verify", *jacobi, "-M", str(M), "-N", str(N),
                   "--seed", str(cli_seed)]

    def run_cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        return rc, err.getvalue()

    def check_cli_solve(out):
        rc, err = out
        text = u_path.read_text(encoding="utf-8") if rc == 0 else ""
        st["cli_bytes.solve"] = len(text) + len(err)
        return checks.cli_solve(rc, text, err, cli_n)

    def check_cli_verify(out):
        rc, err = out
        st["cli_bytes.verify"] = len(err)
        return checks.cli_verify(rc, err, checks.ENTRYWISE_TOL["Jacobi"])

    calls += [Call("cli/solve", "cli", lambda: run_cli(solve_argv), check_cli_solve),
              Call("cli/verify", "cli", lambda: run_cli(verify_argv), check_cli_verify)]
    return [Segment(calls)], st


def make(name: str, seed: int, tiny: bool, workdir: Path):
    """Segments of the named workload, and its state dictionary if any."""
    if name == "build-sweep":
        return build_sweep(seed, tiny), {}
    if name == "apply-stream":
        return apply_stream(seed, tiny), {}
    if name == "solve-verify":
        return solve_verify(seed, tiny, workdir)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# timing

_PROBE_LD = np.linspace(-1.0, 1.0, 1 << 17).astype(np.longdouble)


def probe() -> float:
    """Seconds for a fixed reference task, the best of three.

    The task mixes what voltconv's calls spend their time on: a Python loop
    of small array operations (the builds' column loop), extended-precision
    array arithmetic (the oracle) and a streaming pass over 8 MB (apply).
    """
    best = math.inf
    for _ in range(3):
        x = np.zeros(16)
        t0 = time.perf_counter()
        for _ in range(750):
            x = x * 0.5 + 1.0
        z = (_PROBE_LD * _PROBE_LD + _PROBE_LD) * _PROBE_LD - 1.0
        z.sum()
        y = np.ones(1 << 20)
        y *= 1.5
        y.sum()
        best = min(best, time.perf_counter() - t0)
    return best


class Runner:
    """Times calls, runs their checks, and keeps per-call samples.

    Each sample is also kept scaled to the reference machine speed: times
    PROBE_REF_S over the probe time measured at most PROBE_EVERY_S before
    the call.  On a shared VM the speed of the CPU drifts by tens of
    percent over tens of seconds; the scaled samples cancel that drift.
    """

    def __init__(self):
        self.samples = {}
        self.scaled = {}
        self.probes = []
        self.cls = {}
        self.attempted = 0
        self.failures = []
        self.rep_seconds = []
        self._probed_at = -math.inf

    def call(self, c: Call):
        self.attempted += 1
        if time.monotonic() - self._probed_at >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._probed_at = time.monotonic()
        t0 = time.perf_counter()
        try:
            out = c.fn()
        except Exception as exc:  # a raising call is a failed call, not a crash
            self.failures.append(f"{c.label}: raised {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        self.samples.setdefault(c.label, []).append(dt)
        self.scaled.setdefault(c.label, []).append(dt * PROBE_REF_S / self.probes[-1])
        self.cls[c.label] = c.cls
        try:
            msg = c.check(out)
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            self.failures.append(f"{c.label}: {msg}")

    def segment(self, seg: Segment, budget: float, reps=None):
        """Repeat the segment's calls.

        With ``reps`` given, exactly that many times; otherwise at least
        MIN_REPS times and while another repetition fits in ``budget``.
        """
        t0 = time.monotonic()
        rep_times = []
        while True:
            done = len(rep_times)
            if reps is not None and done >= reps:
                break
            if reps is None and done >= MIN_REPS and (
                    time.monotonic() - t0 + statistics.median(rep_times) > budget):
                break
            r0 = time.monotonic()
            for c in seg.calls:
                self.call(c)
            rep_times.append(time.monotonic() - r0)
        self.rep_seconds.append(rep_times)
        if seg.teardown:
            seg.teardown()

    def run(self, segments, seconds: float, reps=None):
        total = sum(s.weight for s in segments)
        for seg in segments:
            self.segment(seg, seconds * seg.weight / total, reps)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def class_seconds(self, scaled=False) -> dict:
        """Per class, the sum over calls of the median of their samples."""
        out = dict.fromkeys(CLASSES, 0.0)
        for label, ts in (self.scaled if scaled else self.samples).items():
            out[self.cls[label]] += statistics.median(ts)
        return out


# ---------------------------------------------------------------------------
# fingerprint

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return ""


def _caches() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(d / "level"), _read(d / "type")
        if kind != "Instruction" and level in ("2", "3"):
            out[f"L{level}"] = _read(d / "size")
    return out


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or None
    return head or None


def fingerprint(seed: int) -> dict:
    import scipy
    import voltconv
    cpuinfo = _read(Path("/proc/cpuinfo"))
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), "unknown")
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "voltconv").glob("*.py")):
        src.update(p.name.encode() + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "voltconv_file": voltconv.__file__,
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------

def _units(calls):
    """Calls split before every build: a build and the calls that read its
    matrix stay together, since some of them consume what it made."""
    units = []
    for c in calls:
        if c.cls == "build" or not units:
            units.append([])
        units[-1].append(c)
    return units


def trace_pass(segments, state, runner: Runner, budget: float):
    """Run the calls untraced on ``runner`` and traced, in turn, unit by
    unit (see _units), so that both see the same machine speed: at least
    MIN_REPS repetitions and while another fits in ``budget`` seconds.
    Traced, every public voltconv function records spans.

    Returns the tracer, holding the spans of the traced calls only, the
    traced runner and the per-layer metrics.
    """
    tracer = tracing.Tracer()
    traced = Runner()
    caches = tracing.cache_info()
    t0 = time.monotonic()
    reps = 0
    while reps < MIN_REPS or (time.monotonic() - t0) * (reps + 1) / reps <= budget:
        for seg in segments:
            for unit in _units(seg.calls):
                for c in unit:
                    runner.call(c)
                tracer.install()
                try:
                    for c in unit:
                        traced.call(c)
                finally:
                    tracer.uninstall()
            if seg.teardown:
                seg.teardown()
        reps += 1
    layers = tracing.layer_metrics(
        tracer, reps, caches,
        cli_bytes=sum(v for k, v in state.items() if k.startswith("cli_bytes.")),
        untraced_s=sum(runner.class_seconds().values()),
        traced_s=sum(traced.class_seconds().values()),
        traced_wall=sum(sum(ts) for ts in traced.samples.values()))
    return tracer, traced, layers


def measure(args) -> dict:
    """Set up, then time the workload; with ``--trace 1`` also trace it.

    With tracing, set-up's input generation is traced on its own tracer (the
    ``setup.*`` metrics), the warm-up is not traced, and trace_pass makes
    both the untraced and the traced measurement.
    """
    import voltconv
    if not Path(voltconv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"voltconv imported from {voltconv.__file__}, not {ROOT / 'src'}")
    setup_tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        if setup_tracer:
            setup_tracer.install()
        segments, state = make(args.workload, args.seed, args.tiny, workdir)
        warm, _ = make(args.workload, args.seed, True, workdir)
        if setup_tracer:
            setup_tracer.uninstall()
        warm_runner = Runner()
        warm_runner.run(warm, 0.0, reps=1)
        state.clear()
        setup_s = time.monotonic() - args.t0
        setup = {"setup_raw_s": setup_s, "setup_s": setup_s * PROBE_REF_S / probe()}
        if args.setup_only:
            return setup

        runner = Runner()
        if args.trace:
            tracer, traced, layers = trace_pass(segments, state, runner, args.seconds)
        else:
            runner.run(segments, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        classes = runner.class_seconds()
        scaled = runner.class_seconds(scaled=True)
        wall_s = sum(classes.values())
        result = {
            **setup,
            "wall_s": wall_s,
            **{f"{k}_s": v for k, v in classes.items()},
            "wall_ref_s": sum(scaled.values()),
            "build_ref_s": scaled["build"],
            "probe_ms": 1e3 * statistics.median(runner.probes),
            "peak_rss_mb": peak_rss_mb,
            "attempted": runner.attempted + warm_runner.attempted,
            "failures": warm_runner.failures + runner.failures,
            "rep_seconds": runner.rep_seconds,
        }
        if args.trace:
            layers.update(tracing.setup_metrics(setup_tracer))
            result["attempted"] += traced.attempted
            result["failures"] += traced.failures
            result["layers"] = layers
            result["coverage_ok"] = \
                layers["trace.coverage_error"]["value"] <= COVERAGE_BOUND
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"setup": setup_tracer.spans,
                                              "pass": tracer.spans}), encoding="utf-8")
        result["fingerprint"] = fingerprint(args.seed)
        return result
    finally:
        if setup_tracer:
            setup_tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def parser() -> argparse.ArgumentParser:
    """The benchmark's options; run.py passes them through to this file."""
    p = argparse.ArgumentParser(description="voltconv benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p


def main(argv=None):
    p = parser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    print(json.dumps(measure(p.parse_args(argv))))


if __name__ == "__main__":
    main()
