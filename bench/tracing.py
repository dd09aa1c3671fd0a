"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of each slopelab module (layer) from
outside the package: every module attribute bound to the original function
is rebound to a wrapper, so calls through ``from .quadrature import
measure_line`` style imports are seen too.  Catalog functions are traced at
their evaluators, because the engine receives them as plain callables.

A span is ``[layer, name, start, end, parent, op, info]``; spans live in a
list in memory and are written out once, at the end of the run.  A layer's
self time is the time its spans cover minus the time their child spans
cover, so the layer self times plus the time outside every span add up to
the traced wall time exactly.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "analysis",
    "selfsimilar",
    "measure",
    "rotation",
    "montecarlo",
    "quadrature",
    "catalog",
    "cantor",
)

ANALYSIS_CALLS = (
    "sweep",
    "weak_norm",
    "truncated_zero_weight_values",
    "estimate_lipschitz",
    "mollified_indicator_growth",
)

SPAN_FIELDS = ("layer", "name", "start", "end", "parent", "op", "info")


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    if len(shape) == 2:  # an (n, dim) batch of planar points
        return int(shape[0])
    return int(math.prod(shape))


class Tracer:
    """Records spans for wrapped calls while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_calls: set = set()
        self.repeat_calls = 0
        self.slices: list[tuple[int, float]] = []  # (rotation span, |offset|)

    # -- recording -----------------------------------------------------------

    def wrap(self, layer, name, fn, on_result=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [layer, name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
                rec[6] = on_error(exc) if on_error else {"raised": type(exc).__name__}
                raise
            rec[3] = time.perf_counter()
            tracer._stack.pop()
            if on_result is not None:
                rec[6] = on_result(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.bench_traced = True
        return traced

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slopelab" or mod_name.startswith("slopelab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch(self, module, attr, layer, on_result=None, on_error=None, repeat_key=False):
        mod = importlib.import_module(f"slopelab.{module}")
        original = getattr(mod, attr)
        name = f"{module}.{attr}"
        if repeat_key:
            on_result = self._counting_repeats(name, inspect.signature(original), on_result)
        self._rebind(original, self.wrap(layer, name, original, on_result, on_error))

    def _counting_repeats(self, name, signature, on_result):
        def record(args, kwargs, out):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (name, tuple(bound.arguments.items()))
            if key in self._seen_calls:
                self.repeat_calls += 1
            else:
                self._seen_calls.add(key)
            return on_result(args, kwargs, out) if on_result else None

        return record

    def traced_function(self, tf):
        """A copy of a catalog entry whose evaluators record ``catalog.f`` spans."""
        if getattr(tf.eval, "bench_traced", False):
            return tf
        on_points = lambda args, kwargs, out: _points(args[0])  # noqa: E731
        changes = {"eval": self.wrap("catalog", "catalog.f", tf.eval, on_points)}
        if tf.slicer is not None:
            changes["slicer"] = self._traced_slicer(tf.slicer, on_points)
        return dataclasses.replace(tf, **changes)

    def _traced_slicer(self, slicer, on_points):
        tracer = self

        def traced(theta, offset):
            prof = slicer(theta, offset)
            if prof is None or not tracer.enabled:
                return prof
            rotation = next((i for i in reversed(tracer._stack)
                             if tracer.spans[i][1] == "rotation.measure_rotation2d"), -1)
            tracer.slices.append((rotation, abs(float(offset))))
            return dataclasses.replace(
                prof, f=tracer.wrap("catalog", "catalog.f", prof.f, on_points)
            )

        return traced

    def _patch_constructor(self, attr):
        mod = importlib.import_module("slopelab.catalog")
        original = getattr(mod, attr)

        def build(*args, **kwargs):
            return self.traced_function(original(*args, **kwargs))

        self._rebind(original, build)

    def install(self):
        """Wrap the public entry points of every layer the workloads reach."""
        for name in ("measure", "rotation", "montecarlo", "selfsimilar", "analysis",
                     "cantor", "catalog", "quadrature", "acceptance"):
            importlib.import_module(f"slopelab.{name}")
        from slopelab.quadrature import BudgetExceededError, measure_line

        default_budget = inspect.signature(measure_line).parameters["budget"].default

        def engine_result(args, kwargs, out):
            budget = kwargs.get("budget", default_budget)
            evals = int(out.evaluations)
            return {"evals": evals, "inf": math.isinf(out.value), "over": max(0, evals - budget)}

        def engine_error(exc):
            if isinstance(exc, BudgetExceededError):
                return {"evals": int(exc.partial.evaluations), "budget_exceeded": 1}
            return {"raised": type(exc).__name__}

        evaluations = lambda args, kwargs, out: {"evals": int(out.evaluations)}  # noqa: E731
        self.patch("quadrature", "measure_line", "quadrature", engine_result, engine_error)
        self.patch("measure", "nu_measure", "measure")
        self.patch("rotation", "measure_rotation2d", "rotation")
        self.patch("montecarlo", "measure_montecarlo", "montecarlo", evaluations)
        for attr in ("box_measure", "cross_term", "box_measure_ladder"):
            self.patch("selfsimilar", attr, "selfsimilar", repeat_key=True)
        for attr in ANALYSIS_CALLS:
            self.patch("analysis", attr, "analysis")
        self.patch("cantor", "staircase", "cantor",
                   lambda args, kwargs, out: _points(args[1]))
        for attr in ("get", "make_standard", "mollified_indicator"):
            self._patch_constructor(attr)

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds a recorded span adds to one call, timed on an empty function.

        The wall-time difference of a traced and an untraced run is within
        the machine's run-to-run noise; this gives the overhead's size.
        """
        noop = lambda: None  # noqa: E731
        traced = self.wrap("trace", "noop", noop)
        enabled, self.enabled = self.enabled, True
        mark = len(self.spans)
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                traced()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter()
        finally:
            del self.spans[mark:]
            self.enabled = enabled
        return max(0.0, (t1 - t0) - (t2 - t1)) / calls

    def reset(self):
        """Forget recorded spans and calls; the wrappers stay installed."""
        self.spans.clear()
        self.slices.clear()
        self._seen_calls.clear()
        self.repeat_calls = 0

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer: Tracer, traced_wall: float, untraced_wall, ops: int) -> dict:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``untraced_wall`` is the wall time of the same ops with tracing off; the
    overhead entries are left out when it is None.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]

    # the layer each span's op entered first, and the measure_line span above it
    root = [0] * n
    engine = [-1] * n
    for i, s in enumerate(spans):
        p = s[4]
        root[i] = i if p < 0 else root[p]
        if s[1] == "quadrature.measure_line":
            engine[i] = i
        elif p >= 0:
            engine[i] = engine[p]

    calls = defaultdict(int)
    secs = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        layer, name = s[0], s[1]
        calls[name] += 1
        self_s[layer] += dur[i] - child[i]
        # nested calls of the same entry point count once in its time
        p = s[4]
        while p >= 0 and spans[p][1] != name:
            p = spans[p][4]
        if p < 0:
            secs[name] += dur[i]
    top = sum(dur[i] for i, s in enumerate(spans) if s[4] < 0)

    pair_evals = inf_results = budget_exceeded = over_budget = 0
    engine_points = defaultdict(lambda: {"catalog": 0, "cantor": 0})
    f_calls = defaultdict(int)
    f_points = defaultdict(int)
    f_secs = defaultdict(float)
    mc_samples = 0
    queries = defaultdict(int)
    roots = defaultdict(int)
    slice_secs = []
    slices = defaultdict(set)
    for rotation, offset in tracer.slices:
        slices[rotation].add(offset)
    for i, s in enumerate(spans):
        name, info = s[1], s[6]
        if name == "quadrature.measure_line" and isinstance(info, dict):
            pair_evals += info.get("evals", 0)
            inf_results += int(info.get("inf", False))
            over_budget += info.get("over", 0)
            budget_exceeded += info.get("budget_exceeded", 0)
            parent = s[4]
            if parent >= 0 and spans[parent][0] == "rotation":
                slice_secs.append(dur[i])
        elif name in ("catalog.f", "cantor.staircase"):
            kind = "catalog" if name == "catalog.f" else "cantor"
            pts = info if isinstance(info, int) else 0
            f_calls[kind] += 1
            f_points[kind] += pts
            f_secs[kind] += dur[i]
            if engine[i] >= 0:
                engine_points[engine[i]][kind] += pts
        elif name == "montecarlo.measure_montecarlo" and isinstance(info, dict):
            mc_samples += info.get("evals", 0)
        elif name == "measure.nu_measure" and spans[root[i]][0] == "analysis":
            queries[spans[root[i]][1]] += 1
        if s[4] < 0 and s[0] == "analysis":
            roots[name] += 1

    def per_pair(kind):
        pts = sum(v[kind] for v in engine_points.values() if v[kind])
        evals = sum(spans[e][6].get("evals", 0) for e, v in engine_points.items()
                    if v[kind] and isinstance(spans[e][6], dict))
        return _ratio(pts, evals)

    n_slices = len(tracer.slices)
    distinct = sum(len(v) for v in slices.values())
    ml_s = secs["quadrature.measure_line"]
    mc_s = secs["montecarlo.measure_montecarlo"]

    m = {}
    for kind in ("catalog", "cantor"):
        m[f"{kind}.f.calls"] = (f_calls[kind], "count")
        m[f"{kind}.f.points"] = (f_points[kind], "count")
        m[f"{kind}.f.s"] = (f_secs[kind], "s")
        m[f"{kind}.points_per_pair"] = (per_pair(kind), "points/pair")
    m["quadrature.measure_line.calls"] = (calls["quadrature.measure_line"], "count")
    m["quadrature.measure_line.s"] = (ml_s, "s")
    m["quadrature.measure_line.self_s"] = (self_s["quadrature"], "s")
    m["quadrature.pair_evals"] = (pair_evals, "count")
    m["quadrature.pair_evals_per_s"] = (_ratio(pair_evals, ml_s), "1/s")
    m["quadrature.inf_results"] = (inf_results, "count")
    m["quadrature.budget_exceeded"] = (budget_exceeded, "count")
    m["quadrature.over_budget"] = (over_budget, "count")
    m["measure.nu_measure.calls"] = (calls["measure.nu_measure"], "count")
    m["measure.nu_measure.s"] = (secs["measure.nu_measure"], "s")
    for call in ANALYSIS_CALLS:
        name = f"analysis.{call}"
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (secs[name], "s")
        m[f"{name}.queries_per_call"] = (_ratio(queries[name], roots[name]), "queries/call")
    m["analysis.queries_per_call"] = (
        _ratio(sum(queries.values()), sum(roots.values())), "queries/call")
    for attr in ("box_measure", "cross_term", "box_measure_ladder"):
        name = f"selfsimilar.{attr}"
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (secs[name], "s")
    m["selfsimilar.repeat_calls"] = (tracer.repeat_calls, "count")
    m["rotation.measure_rotation2d.calls"] = (calls["rotation.measure_rotation2d"], "count")
    m["rotation.measure_rotation2d.s"] = (secs["rotation.measure_rotation2d"], "s")
    m["rotation.slices"] = (n_slices, "count")
    m["rotation.slice_s_p50"] = (statistics.median(slice_secs) if slice_secs else 0.0, "s")
    m["rotation.redundant_slice_frac"] = (1.0 - _ratio(distinct, n_slices) if n_slices else 0.0,
                                          "ratio")
    m["montecarlo.measure_montecarlo.calls"] = (calls["montecarlo.measure_montecarlo"], "count")
    m["montecarlo.measure_montecarlo.s"] = (mc_s, "s")
    m["montecarlo.samples"] = (mc_samples, "count")
    m["montecarlo.samples_per_s"] = (_ratio(mc_samples, mc_s), "1/s")
    for layer in LAYERS:
        if layer != "quadrature":
            m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["trace.unattributed_s"] = (traced_wall - top, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    if untraced_wall is not None:
        m["trace.untraced_wall_s"] = (untraced_wall, "s")
        m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        m["trace.overhead_frac"] = (_ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    m["trace.overhead_est_s"] = (n * tracer.span_cost(), "s")
    m["trace.spans"] = (n, "count")
    m["trace.ops"] = (ops, "count")
    return m
