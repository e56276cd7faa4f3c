"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "1":
        _check_traced_pass(name, result, tmp_path)


def _check_traced_pass(name, result, tmp_path):
    """The per-layer figures come from the traced pass's spans alone."""
    record = json.loads((workload.OUT / f"result-{name}-seed3-trace1.json").read_text())
    layers = record["layers"]
    assert layers["trace.coverage_error"]["value"] <= workload.COVERAGE_BOUND
    assert result["metrics"]["trace.coverage_error"]["value"] == \
        layers["trace.coverage_error"]["value"]
    spans = json.loads((workload.OUT / f"spans-{name}-seed3.json").read_text())["pass"]
    builds = [s for s in spans if s[3] == "convmat.build"]
    segments, _ = workload.make(name, 3, True, tmp_path)
    direct = [c for seg in segments for c in seg.calls if c.cls == "build"]
    reps = layers["trace.reps"]["value"]
    assert reps >= workload.MIN_REPS
    assert len([s for s in builds if s[1] is None]) == reps * len(direct)
    assert layers["convmat.build.calls"]["value"] * reps == len(builds)
    sizes = {s[7]["M"] for s in builds}
    assert {k for k in layers if k.startswith("convmat.build.p50_ms.")} == \
        {f"convmat.build.p50_ms.M{M}" for M in sizes}
    for M in sizes:
        p50 = np.median([s[5] - s[4] for s in builds if s[7]["M"] == M]) * 1e3
        assert layers[f"convmat.build.p50_ms.M{M}"]["value"] == pytest.approx(p50)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "build-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _perturbed(c):
    c = c.copy()
    c[c.size // 2] += 1e-3 * np.abs(c).max()
    return c


def _raises(c):
    raise FloatingPointError("injected")


@pytest.mark.parametrize("corrupt", [_perturbed, _raises], ids=["perturbed", "raises"])
def test_corrupted_apply_is_a_failed_call(corrupt, monkeypatch, tmp_path):
    from voltconv import convmat
    real = convmat.apply
    monkeypatch.setattr(convmat, "apply", lambda R, b: corrupt(real(R, b)))
    segments, _ = workload.make("build-sweep", 1, True, tmp_path)
    runner = workload.Runner()
    runner.run(segments, 0.0, reps=1)
    applies = sum(c.cls == "apply" for c in segments[0].calls)
    assert applies > 0 and runner.attempted == len(segments[0].calls)
    assert runner.failed == applies
    assert all(f.startswith("apply/") for f in runner.failures)


def test_tracer_wraps_and_restores(tmp_path):
    import scipy.linalg
    from voltconv import convmat, oracle
    originals = (convmat.build, oracle.to_dense, scipy.linalg.lu_factor)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert convmat.build is not originals[0]
        assert oracle.to_dense is convmat.to_dense   # a from-import is swapped too
        assert scipy.linalg.lu_factor is not originals[2]
        segments, _ = workload.make("solve-verify", 2, True, tmp_path)
        runner = workload.Runner()
        runner.run(segments, 0.0, reps=1)
    finally:
        tracer.uninstall()
    assert (convmat.build, oracle.to_dense, scipy.linalg.lu_factor) == originals
    assert runner.failed == 0
    names = {s[3] for s in tracer.spans}
    assert {"volterra.solve_second_kind", "scipy.linalg.lu_factor",
            "oracle.compare_entrywise", "convmat.to_dense", "cli.run"} <= names
    selfs = tracer.self_times()
    for s in tracer.spans:
        assert 0.0 <= selfs[s[0]] <= s[5] - s[4] + 1e-9
        if s[1] is not None:
            parent = next(p for p in tracer.spans if p[0] == s[1])
            assert parent[4] <= s[4] and s[5] <= parent[5] and s[2] == parent[2]
    assert tracer.counts["bases.recurrence_abc"] > 0
