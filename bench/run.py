"""The slopelab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload line_regimes --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; slopelab is imported from its
``src/``.  Each run starts the workload in a fresh process with every
thread count pinned to 1, so results do not depend on the machine's cores.

* ``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
  ``setup_s`` is the median, over several fresh processes spread over the
  run, of the time from process start to the first op (import plus
  building functions and profiles).
* ``--trace 1`` runs a fixed number of passes twice, tracing off and then
  on, and prints the per-layer metrics; spans go to ``.bench_out/``.
* ``--criteria`` runs every acceptance criterion once under the tracer and
  writes ``.bench_out/criteria.json``.

The line before the result is a JSON detail record: failures with their
reasons, the known defects hit, the op_tail_s percentile and sample count,
the bit-identity fingerprint of the deterministic ops, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED = {
    "SLOPELAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Fresh processes timed to their first op, besides the run itself: one
# before the run, the rest while the run pauses between ops, evenly over its
# measured time (what the run ends too early to take, after it).  The
# machine's speed moves between levels every few seconds; probes spread
# over the run sample more of them than probes taken back to back.
SETUP_PROBES = 6
RUN_TIMEOUT_S = 170.0   # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(worker_args, stdin=subprocess.DEVNULL):
    env = dict(os.environ, **PINNED)
    return subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *worker_args],
        cwd=ROOT, env=env, stdin=stdin, stdout=subprocess.PIPE, text=True,
    )


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _until_ready(proc, deadline):
    """Wait for the worker to report its set-up done."""
    line = proc.stdout.readline()
    if line.strip() != "ready" or time.perf_counter() > deadline:
        _stop(proc)
        raise BenchError(f"worker did not start: {line.strip()!r}")


def _setup_probe(worker_args, deadline):
    t_spawn = time.perf_counter()
    proc = _spawn([*worker_args, "--setup-only"])
    _until_ready(proc, deadline)
    seconds = time.perf_counter() - t_spawn
    _stop(proc)
    return seconds


def run(worker_args, deadline, probes):
    """The worker's result and the set-up times of ``probes`` + 1 fresh processes."""
    setup = [_setup_probe(worker_args, deadline) for _ in range(min(probes, 1))]
    t_spawn = time.perf_counter()
    proc = _spawn([*worker_args, "--pauses", str(max(probes - 1, 0))], stdin=subprocess.PIPE)
    # a worker that hangs is killed at the deadline, which ends its output
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        _until_ready(proc, deadline)
        setup.append(time.perf_counter() - t_spawn)
        last = None
        for line in proc.stdout:
            if line.strip() == "pause":
                setup.append(_setup_probe(worker_args, deadline))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        _stop(proc)
    if time.perf_counter() > deadline:
        raise BenchError("the run did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if last is None:
        raise BenchError("worker printed no result")
    setup += [_setup_probe(worker_args, deadline) for _ in range(probes + 1 - len(setup))]
    return json.loads(last), setup


def _expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="slopelab benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--criteria", action="store_true",
                    help="run every acceptance criterion once, traced, instead of a workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "slopelab" / "__init__.py").is_file():
        print(f"error: no slopelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.criteria:
        proc = _spawn(["--criteria"])
        out, _ = proc.communicate()
        if proc.returncode != 0:
            return 1
        for row in json.loads(out.strip().splitlines()[-1])["criteria"]:
            print(f"criterion {row['id']:>2}  {'PASS' if row['passed'] else 'FAIL'}  "
                  f"{row['wall_s']:8.2f} s  pair evals {row['layers']['quadrature.pair_evals']}")
        print(f"report: {ROOT / '.bench_out' / 'criteria.json'}")
        return 0

    if not args.workload:
        ap.error("--workload is required")
    start = time.perf_counter()
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        expected = _expected_metrics(args.trace)
        result, setup = run(worker_args, start + RUN_TIMEOUT_S, 0 if args.trace else SETUP_PROBES)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    got = {k: m["unit"] for k, m in metrics.items()}
    if got != expected:
        print(f"error: metrics {sorted(set(got) ^ set(expected))} or their units differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 1
    detail = dict(result["detail"], setup_samples_s=setup, run_wall_s=time.perf_counter() - start)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
