"""Span tracing of voltconv's public functions, installed from outside.

The tracer swaps module attributes: every public function of every voltconv
module is replaced, in every voltconv module that holds a reference to it
(``from .x import f`` included), by a wrapper that records a span.  The
source under ``src/`` is not touched.  ``scipy.linalg.lu_factor`` and
``lu_solve``, which ``voltconv.volterra`` calls, are wrapped on
``scipy.linalg`` itself while the tracer is installed.

Spans are kept in memory as tuples and written out by the caller at exit.
A span is (span id, parent span id, call id, name, start, end, raised,
annotation).  The call id is the span id of the outermost span it sits
under, so all spans of one public call share it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("bases", "convmat", "laguerre", "oracle", "prng", "quadrature",
           "series", "volterra", "cli")
# Called once per polynomial degree from Python loops: a span per call would
# cost more than the call itself, so these only count.
COUNT_ONLY = frozenset({"bases.recurrence_abc"})


def _bytes(obj) -> int:
    """Bytes held by the ndarray attributes of an object (computed)."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def stored_entries(M: int, N: int) -> int:
    """Positions of the almost-banded structure of an (M+N+2) x (N+1) matrix.

    Rows 0..M are dense; rows k >= M+1 hold |k - n| <= M+1.  Counted from
    the structure, not from any storage layout.
    """
    n = np.arange(N + 1)
    lo = np.maximum(M + 1, n - M - 1)
    hi = np.minimum(M + N + 1, n + M + 1)
    return int((M + 1) * (N + 1) + np.maximum(hi - lo + 1, 0).sum())


def _annotate_build(arg, out):
    M = len(np.asarray(arg["a"])) - 1
    N = int(arg["N"])
    return {"M": M, "N": N, "bytes": _bytes(out), "entries": stored_entries(M, N)}


def _annotate_apply(arg, out):
    R, b = arg["R"], np.asarray(arg["b"])
    return {"M": R.M, "bytes": _bytes(R) + b.nbytes + out.nbytes}


def _annotate_laguerre(arg, out):
    from voltconv import laguerre
    direct = arg["R"].a.size * np.asarray(arg["b"]).size <= laguerre.FFT_THRESHOLD
    return {"path": "direct" if direct else "fft"}


def _annotate_nbytes(arg, out):
    return {"bytes": int(out.nbytes)}


def _annotate_cli(arg, out):
    argv = arg["argv"]
    return {"cmd": argv[0] if argv else ""}


ANNOTATORS = {
    "convmat.build": _annotate_build,
    "convmat.apply": _annotate_apply,
    "laguerre.apply_laguerre": _annotate_laguerre,
    "volterra.truncate_square": _annotate_nbytes,
    "cli.run": _annotate_cli,
}


def _targets():
    """(qualified name, function) for every public voltconv function."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"voltconv.{short}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out.append((f"{short}.{attr}", obj))
    return out


class Tracer:
    """Records spans and counts for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.errors = {}
        self._stack = []
        self._next_id = 0
        self._swaps = []
        self._wrappers = {}
        self._call_of = {}

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        """Wrapper recording a span; annotated calls also note their sizes."""
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None
        stack, spans, call_of = self._stack, self.spans, self._call_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            call = call_of[parent] if parent is not None else sid
            call_of[sid] = call
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self.errors[name] = self.errors.get(name, 0) + 1
                spans.append((sid, parent, call, name, start, end, True, None))
                raise
            end = time.perf_counter()
            stack.pop()
            note = annotate(signature.bind(*args, **kwargs).arguments, out) \
                if annotate else None
            spans.append((sid, parent, call, name, start, end, False, note))
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name, fn):
        if name not in self._wrappers:
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            self._wrappers[name] = make(name, fn)
        return self._wrappers[name]

    # -- installation ------------------------------------------------------

    def install(self):
        """Swap every reference to a public function for its wrapper."""
        if self._swaps:
            return
        import scipy.linalg
        originals = {id(fn): self.wrap(name, fn) for name, fn in _targets()}
        for name in ("lu_factor", "lu_solve"):
            fn = getattr(scipy.linalg, name)
            originals[id(fn)] = self.wrap(f"scipy.linalg.{name}", fn)
        mods = [m for k, m in list(sys.modules.items())
                if k == "voltconv" or k.startswith("voltconv.")]
        for mod in mods + [scipy.linalg]:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._swaps.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._swaps):
            setattr(mod, attr, obj)
        self._swaps = []

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span id: duration minus the time covered by direct children."""
        child = {}
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] = child.get(s[1], 0.0) + (s[5] - s[4])
        return {s[0]: (s[5] - s[4]) - child.get(s[0], 0.0) for s in self.spans}


CACHED = ("quadrature.cached_gauss_jacobi", "quadrature.cached_gauss_legendre")


def cache_info() -> dict:
    """(hits, misses) of the quadrature rule caches; call while uninstalled."""
    from voltconv import quadrature
    out = {}
    for name in CACHED:
        info = getattr(quadrature, name.split(".")[1]).cache_info()
        out[name] = (info.hits, info.misses)
    return out


def _median_ms(spans) -> float:
    return float(np.median([s[5] - s[4] for s in spans])) * 1e3


def setup_metrics(tracer: Tracer) -> dict:
    """``setup.<fn>.calls`` and ``.self_s`` of the functions called in set-up."""
    selfs = tracer.self_times()
    m = {}
    for name in tracer._wrappers:
        ss = [s for s in tracer.spans if s[3] == name]
        calls = tracer.counts.get(name, len(ss))
        if calls:
            m[f"setup.{name}.calls"] = {"value": calls, "unit": "count"}
        if ss:
            m[f"setup.{name}.self_s"] = {"value": sum(selfs[s[0]] for s in ss),
                                         "unit": "s"}
    return m


def layer_metrics(tracer: Tracer, reps: int, caches_before: dict, cli_bytes: int,
                  untraced_s: float, traced_s: float, traced_wall: float) -> dict:
    """Per-layer metrics of a traced pass, as {name: {value, unit}}.

    The tracer holds the spans of ``reps`` repetitions of the workload's
    calls and nothing else; ``cli_bytes`` is the CLI's output of one.  Counts, self times and byte counts are per
    repetition and only there for the functions called; p50s are over all
    repetitions; error counts are totals, there for every wrapped function.
    Byte counts are computed from array sizes, not measured, and their
    units say so.

    The tracing overhead and the coverage compare the traced calls with the
    untraced ones run in turn with them: ``untraced_s`` and ``traced_s`` are
    sums over calls of each call's median time, ``traced_wall`` the total
    time of the traced calls.  Coverage is the untraced time that the
    top-level spans account for: their share of the traced calls' time,
    times traced over untraced time.  It is 1 when every call's time is
    inside a span and tracing costs nothing; ``trace.coverage_error`` is
    its distance from 1.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    by_id = {s[0]: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    m = {}

    def add(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in tracer._wrappers:
        ss = by_name.get(name, [])
        add(f"{name}.errors", tracer.errors.get(name, 0), "count")
        calls = tracer.counts.get(name, len(ss))
        if calls:
            add(f"{name}.calls", calls // reps, "count")
        if ss:
            add(f"{name}.self_s", sum(selfs[s[0]] for s in ss) / reps, "s")

    def ok(name):
        return [s for s in by_name.get(name, []) if not s[6]]

    builds = ok("convmat.build")
    for M in sorted({s[7]["M"] for s in builds}):
        add(f"convmat.build.p50_ms.M{M}",
            _median_ms([s for s in builds if s[7]["M"] == M]), "ms")
    if builds:
        add("convmat.build.entries_per_s",
            sum(s[7]["entries"] for s in builds) / sum(s[5] - s[4] for s in builds),
            "1/s")
    add("convmat.build.out_bytes", sum(s[7]["bytes"] for s in builds) // reps,
        "B_computed")

    def under(s, name):
        while s[1] is not None:
            s = by_id[s[1]]
            if s[3] == name:
                return True
        return False

    add("convmat.build.self_s.under_solve",
        sum(selfs[s[0]] for s in builds if under(s, "volterra.solve_second_kind"))
        / reps, "s")

    applies = ok("convmat.apply")
    for M in sorted({s[7]["M"] for s in applies}):
        add(f"convmat.apply.p50_ms.M{M}",
            _median_ms([s for s in applies if s[7]["M"] == M]), "ms")
    if applies:
        add("convmat.apply.GBps_computed",
            sum(s[7]["bytes"] for s in applies)
            / sum(selfs[s[0]] for s in applies) / 1e9, "GB/s_computed")

    lags = ok("laguerre.apply_laguerre")
    for path in sorted({s[7]["path"] for s in lags}):
        add(f"laguerre.apply_laguerre.p50_ms.{path}",
            _median_ms([s for s in lags if s[7]["path"] == path]), "ms")

    add("volterra.truncate_square.out_bytes",
        sum(s[7]["bytes"] for s in ok("volterra.truncate_square")) // reps, "B_computed")

    runs = ok("cli.run")
    for cmd in sorted({s[7]["cmd"] for s in runs}):
        add(f"cli.run.self_s.{cmd}",
            sum(selfs[s[0]] for s in runs if s[7]["cmd"] == cmd) / reps, "s")
    add("cli.out_bytes", cli_bytes, "B")

    after = cache_info()
    for name in CACHED:
        hits = after[name][0] - caches_before[name][0]
        tries = hits + after[name][1] - caches_before[name][1]
        if tries:
            add(f"{name}.hit_ratio", hits / tries, "1")

    covered = sum(s[5] - s[4] for s in spans if s[1] is None)
    coverage = covered / traced_wall * traced_s / untraced_s
    add("trace.overhead_s", traced_s - untraced_s, "s")
    add("trace.coverage", coverage, "1")
    add("trace.coverage_error", abs(coverage - 1.0), "1")
    add("trace.reps", reps, "count")
    add("trace.spans", len(spans) // reps, "count")
    add("trace.errors", sum(tracer.errors.values()), "count")
    return m
