"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script in a fresh process with the thread
environment pinned; it is not meant to be started by hand.  The first line
printed is ``ready`` once the set-up (import plus building the workload's
functions and profiles) is done; with ``--setup-only`` the process exits
there.  With ``--pauses K`` the timed loop stops K times, evenly over
``--seconds``, between two ops: it prints ``pause`` and goes on when a line
arrives on standard input, so ``run.py`` can time set-up probes across the
run.  Pauses are not part of the measured time.  The last line is the JSON
result.

With ``--criteria`` the process instead runs ``acceptance.run_one`` once for
every criterion, under the tracer, and writes a per-criterion report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"


def _import_slopelab():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import slopelab

    if Path(slopelab.__file__).resolve().parent != src / "slopelab":
        raise SystemExit(f"slopelab imported from {slopelab.__file__}, not from {src}")
    return slopelab


@dataclass
class Record:
    index: int          # pass
    op: object
    seconds: float
    result: object
    error: Exception | None


def run_pass(workloads, workload, inputs, seed, index, tracer=None, after_op=None):
    records = []
    for op in workloads.pass_ops(workload, inputs, seed, index):
        if tracer is not None:
            tracer.op = f"{index}|{op.key}"
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            result, error = None, exc
        records.append(Record(index, op, time.perf_counter() - t0, result, error))
        if after_op is not None:
            after_op()
    return records


class Pauses:
    """Stops the timed loop ``count`` times, evenly over ``seconds`` of loop time."""

    def __init__(self, count, seconds):
        self.due = [seconds * (k + 1) / (count + 1) for k in range(count)]
        self.restart()

    def restart(self):
        """Start the loop time again; pauses already made are not made again."""
        self.t0 = time.perf_counter()
        self.paused = 0.0

    def elapsed(self):
        """Loop time so far, without the pauses."""
        return time.perf_counter() - self.t0 - self.paused

    def __call__(self):
        if self.due and self.elapsed() >= self.due[0]:
            self.due.pop(0)
            t = time.perf_counter()
            print("pause", flush=True)
            sys.stdin.readline()
            self.paused += time.perf_counter() - t


def _pairs(rec):
    return rec.op.pairs(rec.result) if rec.error is None else []


def check(workloads, workload, inputs, records):
    """``Failure`` per record index, from the generic and the workload checks."""
    Failure = workloads.Failure
    failures = {}
    by_pass = {}
    for i, rec in enumerate(records):
        if rec.error is not None:
            name = type(rec.error).__name__
            failures[i] = Failure("raised", f"raised {name}: {rec.error}", error=name)
            continue
        pairs = _pairs(rec)
        if any(math.isnan(x) for pair in pairs for x in pair if x is not None):
            failures[i] = Failure("nan", "returned NaN")
            continue
        evals = getattr(rec.result, "evaluations", None)
        if rec.op.budget is not None and evals is not None and evals > rec.op.budget:
            failures[i] = Failure("budget", f"{evals} evaluations exceed the budget {rec.op.budget}")
            continue
        by_pass.setdefault(rec.index, {})[rec.op.key] = (i, rec)
    for done in by_pass.values():
        found = workload.check(inputs, {k: (r.op, r.result) for k, (_, r) in done.items()})
        for key, failure in found.items():
            failures[done[key][0]] = failure
    return failures


def known_defect(workloads, op, failure):
    """The known defect an op's failure shows, or None for a new fault."""
    defect = workloads.KNOWN_DEFECTS.get(op.defect)
    return op.defect if defect is not None and defect.matches(failure) else None


def _quantile(values, pct):
    """Harrell-Davis estimate of the ``pct``-th percentile.

    It is a Beta-weighted mean of all order statistics, so it moves smoothly
    when single op times jitter; with a dozen heterogeneous ops a run, the
    plain sample median jumps between neighbouring op types.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(values)
    n = len(xs)
    if n < 2:
        return float(xs[0])
    q = pct / 100.0
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), xs))


def _fingerprint(records):
    """SHA-256 over the results of the deterministic ops of the first measured pass.

    Every run measures that pass, so two commits compare on the same ops.
    """
    first = records[0].index
    lines = sorted(
        f"{rec.op.key}|"
        + ",".join(f"{float(v).hex()}:{float('nan' if e is None else e).hex()}"
                   for v, e in _pairs(rec))
        for rec in records if rec.index == first and rec.op.deterministic and rec.error is None
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy
    import slopelab

    pins = ("SLOPELAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "slopelab": slopelab.__version__,
        "platform": platform.platform(),
        "pinned": {k: os.environ.get(k) for k in pins},
    }


def end_to_end(records, failures, loop_wall, tail_pct, peak_kb):
    times = [r.seconds for r in records]
    rel = [e / abs(v) for rec in records if rec.error is None
           for v, e in _pairs(rec)
           if e is not None and math.isfinite(v) and v != 0.0 and math.isfinite(e)]
    metrics = {
        "ops_per_s": (len(records) / loop_wall, "1/s"),
        "op_p50_s": (_quantile(times, 50), "s"),
        "op_tail_s": (_quantile(times, tail_pct), "s"),
        "ok_frac": ((len(records) - len(failures)) / len(records), "ratio"),
        "rel_error_p50": (statistics.median(rel) if rel else 0.0, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    beyond = sum(t > metrics["op_tail_s"][0] for t in times)
    tail = {"percentile": tail_pct, "samples": len(times), "beyond": beyond}
    return metrics, tail


def run_workload(args):
    _import_slopelab()
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    inputs = workload.build()
    print("ready", flush=True)
    if args.setup_only:
        return None

    records = []
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if tracer is None:
        pauses = Pauses(args.pauses, args.seconds)
        index = 0
        if workload.warmup:
            run_pass(workloads, workload, inputs, args.seed, index, after_op=pauses)
            pauses.restart()
            index += 1
        # whole passes, ending at the pass boundary nearest to --seconds:
        # a pass of lambda_grids or staircase takes about as long as a run
        # measures, and one more pass would double the run
        while True:
            records += run_pass(workloads, workload, inputs, args.seed, index, after_op=pauses)
            index += 1
            elapsed = pauses.elapsed()
            measured = index - records[0].index
            if elapsed + elapsed / measured / 2 >= args.seconds:
                break
        loop_wall = pauses.elapsed()
    else:
        # each pass runs twice, tracing off then on: the difference of the
        # two walls is the tracing overhead.  An untimed first pass warms
        # the process up, so the later of the two does not look cheaper.
        run_pass(workloads, workload, inputs, args.seed, 0)
        untraced_wall = traced_wall = 0.0
        for index in range(1, workload.trace_passes + 1):
            t0 = time.perf_counter()
            run_pass(workloads, workload, inputs, args.seed, index)
            untraced_wall += time.perf_counter() - t0
            tracer.enabled = True
            t0 = time.perf_counter()
            records += run_pass(workloads, workload, inputs, args.seed, index, tracer)
            traced_wall += time.perf_counter() - t0
            tracer.enabled = False
        loop_wall = traced_wall
    # read before the checks, whose references are not part of the workload
    usage = resource.getrusage(resource.RUSAGE_SELF)
    passes = records[-1].index + 1 - records[0].index

    if tracer is not None:
        tracer.uninstall()  # the references below are not part of the traced run
    failures = check(workloads, workload, inputs, records)
    if tracer is None:
        metrics, tail = end_to_end(records, failures, loop_wall, workload.tail_pct,
                                   usage.ru_maxrss)
    else:
        metrics = tracing.summarize(tracer, traced_wall, untraced_wall, len(records))
        tail = None

    failed = [
        {"pass": records[i].index, "op": records[i].op.key, "reason": f.reason,
         "known_defect": known_defect(workloads, records[i].op, f)}
        for i, f in sorted(failures.items())
    ]
    unexpected = [f for f in failed if f["known_defect"] is None]
    defects_seen = sorted({f["known_defect"] for f in failed} - {None})
    detail = {
        "workload": workload.name,
        "trace": bool(args.trace),
        "passes": passes,
        "warmup_passes": records[0].index,
        "ops": len(records),
        "loop_wall_s": loop_wall,
        "op_tail": tail,
        "failures": failed,
        "known_defects": {k: workloads.KNOWN_DEFECTS[k].description for k in defects_seen},
        # page faults from the first op (warm-up included) to the end of the
        # loop: the allocator runs at glibc's defaults, so allocation work
        # shows here and in the times
        "loop_minor_faults": usage.ru_minflt - faults0,
        "fingerprint": _fingerprint(records),
        "environment": environment(args.seed),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(bool(args.trace))}"
    report = dict(detail, op_seconds=[[r.index, r.op.key, r.seconds] for r in records],
                  metrics=metrics)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=repr))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json.gz")
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
    }


def run_criteria(args):
    _import_slopelab()
    import tracing
    from slopelab import acceptance

    tracer = tracing.Tracer()
    tracer.install()
    print("ready", flush=True)
    rows = []
    for cid, _, _ in acceptance.CRITERIA:
        tracer.reset()
        tracer.enabled = True
        tracer.op = cid
        t0 = time.perf_counter()
        try:
            rec = acceptance.run_one(cid)
            passed, error = rec["passed"], None
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, error = False, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        tracer.enabled = False
        layers = tracing.summarize(tracer, wall, None, 1)
        rows.append({"id": cid, "passed": passed, "error": error, "wall_s": wall,
                     "layers": {k: v for k, (v, _) in layers.items()}})
    report = {"criteria": rows, "environment": environment(None)}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "criteria.json").write_text(json.dumps(report, indent=1))
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0)
    ap.add_argument("--criteria", action="store_true")
    args = ap.parse_args(argv)
    out = run_criteria(args) if args.criteria else run_workload(args)
    if out is not None:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
