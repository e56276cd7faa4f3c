"""voltconv benchmark: one workload, end to end or traced, checked.

    python3 perfbench/run.py --workload build-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src`` next to this
directory.  Each workload runs in its own process (workload.py), closed
loop, one caller: each call starts after the previous one returned.

  build-sweep   every finite basis at (M, N) = (10, 20000), (100, 4000) and
                (1000, 5000): one build, then one apply of a seeded input.
  apply-stream  one build per finite basis at (1000, 5000) and (10, 20000),
                each applied to a stream of seeded inputs; weighted-Laguerre
                applies on the direct (60, 1000) and FFT (1000, 100000) paths.
  solve-verify  renewal solves at N = 17 .. 4000, the oracle (entrywise at
                (10, 300), 100 sampled values at (100, 1000)) on every finite
                basis, and in-process ``voltconv solve`` and ``verify``.

With ``--trace 0`` the end-to-end metrics are timed from outside with
tracing off.  ``wall_ref_s`` and ``build_ref_s`` are wall_s and build_s with
every call's time scaled by a reference probe timed just before it, which
cancels most of the drift of CPU speed on a shared machine; ``wall_ref_s``
is the gated timing.  ``--trace 1`` runs the call list untraced and with
every public voltconv function wrapped (tracing.py), in turn, for
``--seconds`` and at least MIN_REPS times each, and reports per-layer
metrics, the tracing overhead and how much of the untraced wall time the
top-level spans cover; a coverage farther than COVERAGE_BOUND from 1 makes
the run not correct.

Set-up time is measured in fresh processes from just before the process
starts until the timed phase can begin: SETUP_RUNS set-up-only processes,
half before and half after the measured workload, and the workload's own.
``setup_s`` is the median of those times scaled, like ``wall_ref_s``, by
a reference probe timed right after each set-up; ``setup_raw_s`` is the
median of the unscaled times.  The BLAS/OpenMP thread count of the
workload is BLAS_THREADS.

Standard output ends with one JSON line: correct, attempted, failed and the
metrics that BENCHMARK.json names for the mode.  The full result, with the
machine fingerprint, is written to perfbench/out/.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from workload import COVERAGE_BOUND, HERE, OUT, ROOT, parser

SETUP_RUNS = 4
BLAS_THREADS = 1
TIMEOUT_S = 170.0
# Every end-to-end metric, printed where the workload makes the
# call; BENCHMARK.json gates the ones every workload has.
REPORTED = (("setup_s", "s"), ("setup_raw_s", "s"), ("wall_s", "s"), ("build_s", "s"),
            ("apply_s", "s"), ("laguerre_s", "s"), ("solve_s", "s"), ("verify_s", "s"),
            ("cli_s", "s"), ("peak_rss_mb", "MiB"), ("fail_frac", "1"),
            ("wall_ref_s", "s"), ("build_ref_s", "s"), ("probe_ms", "ms"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, extra, deadline) -> dict:
    """Run workload.py with run.py's own options to completion; its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), *argv, *extra,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    p = parser()
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "voltconv" / "__init__.py").is_file():
        print(f"no voltconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + TIMEOUT_S

    def setup_only():
        return run_child(argv, ["--setup-only"], deadline)

    setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
    res = run_child(argv, [], deadline)
    setups += [res] + [setup_only() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    failures = res["failures"]
    values = dict(res, setup_s=statistics.median(r["setup_s"] for r in setups),
                  setup_raw_s=statistics.median(r["setup_raw_s"] for r in setups),
                  fail_frac=len(failures) / res["attempted"])

    for name, unit in REPORTED:
        if values[name] or name in ("fail_frac", "peak_rss_mb"):
            print(f"{name:<14} {values[name]:>14.6g} {unit}")
    layers = res.get("layers", {})
    for name in sorted(layers):
        print(f"{name:<48} {layers[name]['value']:>14.6g} {layers[name]['unit']}")
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    coverage_ok = res.get("coverage_ok", True)
    if not coverage_ok:
        print(f"FAILED trace: top-level spans cover {layers['trace.coverage']['value']:.3f}"
              f" of the untraced wall time, outside 1 +- {COVERAGE_BOUND}", file=sys.stderr)

    if args.trace:
        wanted, source = spec["per_layer"], layers
    else:
        wanted = spec["end_to_end"]
        source = {n: {"value": values[n]} for n, _ in REPORTED}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}

    OUT.mkdir(exist_ok=True)
    record = dict(values, setup_raw_runs=[r["setup_raw_s"] for r in setups],
                  workload=args.workload, seconds=args.seconds, trace=args.trace)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"fingerprint {json.dumps(res['fingerprint'])}")
    print(json.dumps({"correct": not failures and coverage_ok, "attempted": res["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
