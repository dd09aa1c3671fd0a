"""The benchmark's workloads: their inputs, their ops and the checks on each op.

A workload is a closed loop: one process runs its ops one after another, in
passes.  An op is one public slopelab call.  A pass holds every cell of the
workload once; the seed picks each cell's threshold from a fixed menu, the
Monte Carlo seeds and the op order, and the program receives only the inputs
built from them.  Every op is checked against a reference that does not come
from the same code path:

* ``constants.halfline_closed_form`` (and its p > 1 form) for the unit step;
* a Monte Carlo cross-method estimate for other line and planar queries;
* the staircase ladder recursion against direct ``box_measure``;
* the limit formulas at the acceptance tolerances;
* the known verdicts of the gamma = 0 dichotomy.

An op fails when it raises, exceeds its budget or returns NaN, when its
inf/finite verdict is wrong, or when |value - ref| exceeds the sum of both
error bounds.  Ops that hit a defect already known are tagged with the
defect; they still count as failed, and a failure of a tagged op that does
not look like the defect is a new fault.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from slopelab import analysis, catalog, constants, measure, selfsimilar
from slopelab.analysis import geometric_grid
from slopelab.cantor import CantorSpec, staircase_function
from slopelab.measure import LevelSetQuery
from slopelab.params import Params


@dataclass(frozen=True)
class Failure:
    """Why an op failed: the test it failed and the numbers that test compared."""
    test: str                       # raised, nan, budget, verdict, reference, ladder, ...
    reason: str
    value: Optional[float] = None   # the op's value
    ref: Optional[float] = None     # the reference it was compared with
    error: Optional[str] = None     # exception class of a raising op


@dataclass(frozen=True)
class Defect:
    description: str
    # The failure the defect produces.  A failure of a tagged op that does not
    # match it is a new fault and makes the run incorrect.
    matches: Callable[[Failure], bool]


KNOWN_DEFECTS = {
    "direct-box-m6": Defect(
        "direct selfsimilar.box_measure(m=6) at gamma=-0.5, p=1, lambda=0.25 gives "
        "31.80+-0.34, below direct A(5)=33.32 and the ladder recursion's 37.7",
        lambda f: f.test == "ladder" and 0.75 * f.ref <= f.value < f.ref,
    ),
    "mc-constant-threshold": Defect(
        "montecarlo returns inf for ball_indicator(1), gamma=-2, p=2, lambda=1, where "
        "the measure is 0 (non-strict `1.0 >= lam` in montecarlo._radius_cuts)",
        lambda f: f.test == "verdict" and f.value == math.inf,
    ),
    "halfline-zero-width": Defect(
        "grid1d raises on halfline_step for -1 < gamma <= 0: the two-plateau ramp "
        "primitive is evaluated at h=0 when the support has zero width",
        lambda f: f.test == "raised" and f.error in ("ValueError", "ZeroDivisionError"),
    ),
    "grid1d-bound-kinks": Defect(
        "at gamma=-0.5, grid1d is 0.3-0.5% high on tent (p=2) and linear_ramp(3) "
        "(p=1, p=2), 20-40 times its error bound; Monte Carlo and an exact "
        "piecewise-linear integration agree with each other",
        lambda f: f.test == "reference" and 0.0 < f.value - f.ref <= 0.01 * f.ref,
    ),
}

MENU = 8                # a menu is lam0 * (1 + MENU_STEP * k), k = 0..7
# Menus are narrow: the seed changes every threshold, so no query repeats
# across seeds (and line_regimes walks its menus over passes, so none
# repeats within a run), but the work of a pass stays the same.  Menus a
# quarter to half an octave wide made the work of a pass, and with it
# ops_per_s, move with the seed.
MENU_STEP = 1e-3
MC_REF_SAMPLES = 200_000
MC_REF_RUNS = 3         # the reference is the median of this many Monte Carlo runs
# Where the engine's bound is tight by construction (the half-line step's
# near-diagonal remainder), value - ref equals the bound up to rounding.
ROUNDING = 1e-12


@dataclass
class Op:
    key: str                                  # unique within a pass
    run: Callable[[], object]
    pairs: Callable[[object], list]           # (value, error_bound or None) of a result
    deterministic: bool = True
    budget: Optional[int] = None              # evaluation budget of a single engine call
    defect: Optional[str] = None              # KNOWN_DEFECTS key if the op is known to fail
    ref: dict = field(default_factory=dict)   # what the check needs to know


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], dict]                     # set-up: functions and profiles
    cells: Callable[..., list]   # (inputs, rng, seed, index) -> ops of one pass
    check: Callable[[dict, dict], dict]           # {key: (op, result)} -> {key: Failure}
    trace_passes: int   # passes of the traced run, fixed so counts repeat exactly
    # The untraced run's first pass is a warm-up, not measured, where the
    # work of the first pass depends on the seed's op order.  glibc's
    # allocator raises its mmap threshold to the largest array freed so
    # far; on planar, until one of its large arrays has been freed, ops
    # page-fault far more (first pass 7.4-9.4 s and 34k-643k faults over
    # seeds, later passes 7.3-7.9 s and about 8k).  On the other workloads
    # every pass faults about as much, whatever the order.
    warmup: bool
    tail_pct: int       # op_tail_s percentile: ten ops lie beyond it in a 20-second
                        # run on a 2-core Xeon, where a run has that many ops


def pass_ops(workload: Workload, inputs: dict, seed: int, index: int) -> list:
    """The ops of pass ``index``: thresholds and order drawn from the seed."""
    rng = random.Random(seed * 1_000_003 + index)
    ops = workload.cells(inputs, rng, seed, index)
    rng.shuffle(ops)
    return ops


def _menu(lam0: float, k: int) -> float:
    return lam0 * (1.0 + MENU_STEP * k)


def _estimate_pairs(est):
    return [(est.value, est.error_bound)]


def _engine_pairs(est):
    return [(est.value, est.error)]


def _within(v, e, r, re) -> bool:
    if not all(map(math.isfinite, (v, e, r, re))):
        return False
    return abs(v - r) <= e + re + ROUNDING * max(abs(v), abs(r))


def _compare(test, v, e, r, re) -> Optional[Failure]:
    if _within(v, e, r, re):
        return None
    return Failure(test, f"{test}: |{v!r} - {r!r}| > {e!r} + {re!r}", value=v, ref=r)


# ---------------------------------------------------------------------------
# line_regimes: single-lambda grid1d queries over the five regimes
# ---------------------------------------------------------------------------

LINE_FUNCTIONS = (
    "tent",
    "smooth_bump",
    "interval_indicator(1)",
    "halfline_step",
    "linear_ramp(3)",
    "mollified_indicator(4)",
)

# (regime, gamma, p, lam0 from the Lipschitz constant L); gamma = 0 is run on
# both sides of L, where the dichotomy fixes the verdict
LINE_REGIMES = (
    ("gamma>0", 1.0, 1.0, lambda L: 8.0),
    ("gamma=0,lam<L", 0.0, 1.0, lambda L: 0.35 * L),
    ("gamma=0,lam>L", 0.0, 1.0, lambda L: 1.5 * L if L > 0 else 0.5),
    ("-1<=gamma<0,p=1", -0.5, 1.0, lambda L: 0.2),
    ("-1<=gamma<0,p>1", -0.5, 2.0, lambda L: 0.2),
    ("gamma<-1", -2.0, 1.0, lambda L: 0.25),
)


def halfline_exact(gamma: float, p: float, lam: float) -> float:
    """Measure of the unit step: 2 lam^(-(gamma+1)/beta) / |gamma+1|, beta = 1 + gamma/p."""
    if p == 1.0:
        return constants.halfline_closed_form(gamma, lam)
    beta = 1.0 + gamma / p
    return 2.0 * lam ** (-(gamma + 1.0) / beta) / abs(gamma + 1.0)


def _line_build() -> dict:
    funcs = {fid: catalog.get(fid) for fid in LINE_FUNCTIONS}
    cells = []
    for fid, u in funcs.items():
        u.line_profile()
        lip = u.lip or 0.0
        for regime, gamma, p, lam0 in LINE_REGIMES:
            if regime == "gamma=0,lam<L" and lip == 0.0:
                continue
            cells.append((fid, regime, gamma, p, lam0(lip)))
    return {"funcs": funcs, "cells": cells, "refs": {}}


def _line_cells(inputs: dict, rng: random.Random, seed: int, index: int) -> list:
    ops = []
    for i, (fid, regime, gamma, p, lam0) in enumerate(inputs["cells"]):
        # each cell walks its menu in a seeded order, so no query repeats
        # within the first MENU passes
        perm = random.Random(seed * 7919 + i).sample(range(MENU), MENU)
        lam = _menu(lam0, perm[index % MENU])
        q = LevelSetQuery(u=inputs["funcs"][fid], params=Params(dim=1, p=p, gamma=gamma), lam=lam)
        defect = None
        if fid == "halfline_step" and -1.0 < gamma <= 0.0:
            defect = "halfline-zero-width"
        elif gamma == -0.5 and (fid == "linear_ramp(3)" or (fid == "tent" and p > 1.0)):
            defect = "grid1d-bound-kinks"
        ops.append(Op(
            key=f"{fid}|{regime}|lam={lam!r}",
            run=lambda q=q: measure.nu_measure(q),
            pairs=_estimate_pairs,
            budget=q.budget,
            defect=defect,
            ref={"query": q, "regime": regime},
        ))
    return ops


def _line_reference(inputs: dict, key: str, q: LevelSetQuery):
    """(value, error) of the independent reference for a finite line query.

    Monte Carlo seeds are fixed per query, so a reference never depends on
    the workload seed.  The median of three runs, with the largest of their
    bounds, keeps a single 3-sigma draw from failing a correct op.
    """
    if q.u.id == "halfline_step":
        return halfline_exact(q.params.gamma, q.params.p, q.lam), 0.0
    refs = inputs["refs"]
    if key not in refs:
        runs = sorted(
            (est.value, est.error_bound)
            for est in (
                measure.nu_measure(LevelSetQuery(
                    u=q.u, params=q.params, lam=q.lam, method="montecarlo",
                    seed=zlib.crc32(f"{key}|{i}".encode()), mc_samples=MC_REF_SAMPLES))
                for i in range(MC_REF_RUNS)
            )
        )
        refs[key] = (runs[MC_REF_RUNS // 2][0], max(err for _, err in runs))
    return refs[key]


def _line_check(inputs: dict, done: dict) -> dict:
    failures = {}
    for key, (op, est) in done.items():
        if op.ref["regime"] == "gamma=0,lam<L":
            if not math.isinf(est.value):
                failures[key] = Failure(
                    "verdict", f"verdict: finite {est.value!r} below the Lipschitz constant",
                    value=est.value)
            continue
        if math.isinf(est.value):
            failures[key] = Failure("verdict", "verdict: inf where the measure is finite",
                                    value=est.value)
            continue
        ref, ref_err = _line_reference(inputs, key, op.ref["query"])
        failure = _compare("reference", est.value, est.error_bound, ref, ref_err)
        if failure:
            failures[key] = failure
    return failures


# ---------------------------------------------------------------------------
# lambda_grids: analysis calls that revisit one function over many thresholds
# ---------------------------------------------------------------------------

def _limit(u, gamma: float, p: float) -> float:
    return constants.kappa(p, 1) / abs(gamma) * u.grad_lp(p) ** p


def _grids_build() -> dict:
    funcs = {fid: catalog.get(fid) for fid in ("tent", "smooth_bump", "linear_ramp(3)")}
    limits = {}
    for fid in ("tent", "smooth_bump"):
        for gamma, p in ((1.0, 1.0), (1.0, 2.0), (-2.0, 1.0), (-2.0, 2.0), (-3.0, 1.0)):
            limits[fid, gamma, p] = _limit(funcs[fid], gamma, p)
    return {"funcs": funcs, "limits": limits}


# (function, gamma, p, criterion grid, rel_tol): the sweeps of criteria 3 and 4
SWEEPS = (
    ("tent", 1.0, 1.0, (4.0, 4096.0, 11), 5e-3),
    ("smooth_bump", 1.0, 2.0, (4.0, 4096.0, 11), 5e-3),
    ("tent", -2.0, 2.0, (1.0, 2.0**-12, 13), 2e-2),
    ("smooth_bump", -3.0, 1.0, (2.0**-6, 2.0**-18, 13), 2e-2),
)
# (function, gamma, p) on the weak-norm grid of criterion 13
WEAK_NORMS = (("tent", 1.0, 2.0), ("tent", -2.0, 1.0), ("smooth_bump", 1.0, 2.0))
GROWTH_KS = tuple(range(4, 15))


def _sweep_pairs(s):
    return [(e.value, e.error_bound) for e in s.estimates]


def _scalar_pairs(x):
    return [(float(x), None)]


def _array_pairs(a):
    return [(float(v), None) for v in a]


def _growth_pairs(seq):
    return [(r.value, r.error) for r in seq.records]


def _grids_cells(inputs: dict, rng: random.Random, seed: int, index: int) -> list:
    funcs = inputs["funcs"]
    ops = []
    for fid, gamma, p, (lo, hi, count), tol in SWEEPS:
        grid = geometric_grid(lo, hi, count) * _menu(1.0, rng.randrange(MENU))
        params = Params(dim=1, p=p, gamma=gamma)
        ops.append(Op(
            key=f"sweep|{fid}|gamma={gamma:g}|p={p:g}|lam0={grid[0]!r}",
            run=lambda u=funcs[fid], params=params, grid=grid, tol=tol: analysis.sweep(
                u, params, grid, rel_tol=tol),
            pairs=_sweep_pairs,
            ref={"kind": "sweep", "limit": inputs["limits"][fid, gamma, p]},
        ))
    for fid, gamma, p in WEAK_NORMS:
        scale = _menu(1.0, rng.randrange(MENU))
        params = Params(dim=1, p=p, gamma=gamma)
        ops.append(Op(
            key=f"weak_norm|{fid}|gamma={gamma:g}|p={p:g}|scale={scale!r}",
            run=lambda u=funcs[fid], params=params, s=scale: analysis.weak_norm(
                u, params, lam_lo=2.0**-14 * s, lam_hi=2.0**14 * s, count=25, rel_tol=1e-2),
            pairs=_scalar_pairs,
            ref={"kind": "weak_norm", "limit": inputs["limits"][fid, gamma, p],
                 "norm": funcs[fid].grad_lp(p) ** p},
        ))
    for side, lam0 in (("below", 0.35), ("above", 1.5)):
        lam = _menu(lam0, rng.randrange(MENU))
        ops.append(Op(
            key=f"truncated_zero_weight_values|tent|{side}|lam={lam!r}",
            run=lambda lam=lam: analysis.truncated_zero_weight_values(
                funcs["tent"], lam, list(GROWTH_KS)),
            pairs=_array_pairs,
            ref={"kind": f"growth_{side}"},
        ))
    ops.append(Op(
        key="estimate_lipschitz|linear_ramp(3)",
        run=lambda: analysis.estimate_lipschitz(funcs["linear_ramp(3)"], iterations=3),
        pairs=_scalar_pairs,
        ref={"kind": "lipschitz", "lip": funcs["linear_ramp(3)"].lip},
    ))
    ops.append(Op(
        key="mollified_indicator_growth|p=1|m=2..5",
        run=lambda: analysis.mollified_indicator_growth(1.0, range(2, 6)),
        pairs=_growth_pairs,
        ref={"kind": "mollified"},
    ))
    return ops


def _grids_check(inputs: dict, done: dict) -> dict:
    failures = {}
    for key, (op, res) in done.items():
        kind = op.ref["kind"]
        reason = None
        if kind == "sweep":
            lim = op.ref["limit"]
            if res.classification != "converged":
                reason = f"sweep classified {res.classification}, limit formula says converged"
            elif not abs(res.limit_estimate - lim) <= 0.05 * lim:
                reason = f"limit {res.limit_estimate!r} not within 5% of {lim!r}"
        elif kind == "weak_norm":
            lim, norm = op.ref["limit"], op.ref["norm"]
            if not (math.isfinite(res) and 0.97 * lim <= res <= 100.0 * norm):
                reason = f"weak norm {res!r} outside [0.97 * {lim!r}, 100 * {norm!r}]"
        elif kind == "growth_below":
            ks = np.array(GROWTH_KS, dtype=float)
            slope_rel = float(np.polyfit(ks, res, 1)[0]) * float(ks.mean()) / float(np.mean(res))
            if not slope_rel >= 0.1:
                reason = f"relative growth {slope_rel!r} < 0.1 below the Lipschitz constant"
        elif kind == "growth_above":
            if not float(res[-1]) <= 1e-3:
                reason = f"terminal value {float(res[-1])!r} > 1e-3 above the Lipschitz constant"
        elif kind == "lipschitz":
            lip = op.ref["lip"]
            if not abs(res - lip) <= 0.10 * lip:
                reason = f"Lipschitz estimate {res!r} not within 10% of {lip!r}"
        elif kind == "mollified":
            vals = np.array([r.value for r in res.records])
            if not (np.all(np.diff(vals) > 0) and res.slope >= 0):
                reason = f"mollified growth not strictly increasing: {vals.tolist()}"
        if reason:
            failures[key] = Failure(kind, reason)
    return failures


# ---------------------------------------------------------------------------
# staircase: self-similar box measures, cross terms and ladders
# ---------------------------------------------------------------------------

STAIR_GAMMA = -0.5
STAIR_TOL = 5e-2
STAIR_DEEP = 6
STAIR_M0 = 2
STAIR_LAM = 0.25  # the deep chain's threshold, where direct box_measure(m=6) breaks


def _stair_build() -> dict:
    for m in range(STAIR_DEEP + 1):
        staircase_function(CantorSpec(gamma=STAIR_GAMMA, m=m)).line_profile()
    rho = CantorSpec(gamma=STAIR_GAMMA, m=1).rho
    return {"floor": STAIR_DEEP * selfsimilar.corner_rectangle_weight(STAIR_GAMMA, rho)}


def _box(m, lam):
    return lambda: selfsimilar.box_measure(STAIR_GAMMA, 1.0, lam, m, rel_tol=STAIR_TOL)


def _cross(m, lam):
    return lambda: selfsimilar.cross_term(STAIR_GAMMA, 1.0, lam, m, rel_tol=STAIR_TOL)


def _ladder(lam):
    return lambda: selfsimilar.box_measure_ladder(
        STAIR_GAMMA, lam, STAIR_DEEP, m0=STAIR_M0, rel_tol=STAIR_TOL)


def _stair_cells(inputs: dict, rng: random.Random, seed: int, index: int) -> list:
    lam = _menu(0.3, rng.randrange(MENU))  # shallow chain, second ladder
    budget = LevelSetQuery.__dataclass_fields__["budget"].default
    ops = []
    for m in range(STAIR_M0 + 1):
        ops.append(Op(f"box|m={m}|shallow", _box(m, lam), _engine_pairs, budget=budget,
                      ref={"m": m, "lam": lam}))
        if m:
            ops.append(Op(f"cross|m={m}|shallow", _cross(m, lam), _engine_pairs,
                          budget=budget, ref={"m": m, "lam": lam}))
    ops.append(Op(f"box|m={STAIR_DEEP}|deep", _box(STAIR_DEEP, STAIR_LAM), _engine_pairs,
                  budget=budget, defect="direct-box-m6", ref={"lam": STAIR_LAM}))
    for m in range(STAIR_M0 + 1, STAIR_DEEP + 1):
        ops.append(Op(f"cross|m={m}|deep", _cross(m, STAIR_LAM), _engine_pairs,
                      budget=budget, ref={"m": m, "lam": STAIR_LAM}))
    for which, mu in (("deep", STAIR_LAM), ("shallow", lam)):
        ops.append(Op(f"ladder|m={STAIR_DEEP}|m0={STAIR_M0}|{which}", _ladder(mu),
                      _engine_pairs, ref={"lam": mu}))
    return ops


def _stair_check(inputs: dict, done: dict) -> dict:
    failures = {}
    res = {key: r for key, (op, r) in done.items()}

    def fail(key, failure):
        if failure and key not in failures:
            failures[key] = failure

    for key, est in res.items():
        if not (math.isfinite(est.value) and est.value >= 0.0):
            fail(key, Failure("finite", f"value {est.value!r} is not a finite measure",
                              value=est.value))
    # direct A(m) against the recursion A(m-1) + X(m)
    for m in range(1, STAIR_M0 + 1):
        a, prev, x = (res.get(k) for k in (f"box|m={m}|shallow", f"box|m={m - 1}|shallow",
                                            f"cross|m={m}|shallow"))
        if a and prev and x:
            fail(f"box|m={m}|shallow", _compare(
                "recursion", a.value, a.error,
                prev.value + x.value, prev.error + x.error))
    deep = f"ladder|m={STAIR_DEEP}|m0={STAIR_M0}|deep"
    shallow = f"ladder|m={STAIR_DEEP}|m0={STAIR_M0}|shallow"
    lad, lad2 = res.get(deep), res.get(shallow)
    box6 = res.get(f"box|m={STAIR_DEEP}|deep")
    if box6 and lad:
        fail(f"box|m={STAIR_DEEP}|deep", _compare(
            "ladder", box6.value, box6.error, lad.value, lad.error))
    if lad:
        # the ladder's cross terms are the same deterministic calls as the ops
        for j, xv in enumerate(lad.diagnostics.get("cross_values", []), start=STAIR_M0 + 1):
            x = res.get(f"cross|m={j}|deep")
            if x and x.value != xv:
                fail(f"cross|m={j}|deep", Failure(
                    "cross", f"X({j}) = {x.value!r}, the ladder's is {xv!r}", x.value, xv))
    for key, est in ((deep, lad), (shallow, lad2)):
        if est and not est.value + est.error >= inputs["floor"]:
            fail(key, Failure("floor", f"below the witness floor {inputs['floor']!r}",
                              est.value, inputs["floor"]))
    if lad and lad2 and not lad.value + lad.error >= lad2.value - lad2.error:
        fail(deep, Failure("monotone", "A(m) increases with lambda", lad.value, lad2.value))
    base = res.get(f"box|m={STAIR_M0}|shallow")
    if lad2 and base and not lad2.value + lad2.error >= base.value - base.error:
        fail(shallow, Failure("monotone", f"A({STAIR_DEEP}) below A({STAIR_M0})",
                              lad2.value, base.value))
    return failures


# ---------------------------------------------------------------------------
# planar: rotation2d on radial 2D entries, each query also through Monte Carlo
# ---------------------------------------------------------------------------

ROTATION_REL_TOL = 0.1
# (function, gamma, p, lam0, menu?, Monte Carlo samples, exact value where
# known, defect of the Monte Carlo op).  The sample counts give a Monte Carlo
# bound of about the rotation bound's size, so two correct results disagree
# by more than the sum of the bounds only at about six standard errors.
PLANAR_CELLS = (
    ("ball_indicator(1)", -2.0, 2.0, 1.0, False, 200_000, 0.0, "mc-constant-threshold"),
    ("ball_indicator(1)", -2.0, 1.0, 0.5, True, 800_000, None, None),
    ("ball_indicator(1)", 1.0, 1.0, 4.0, True, 50_000, None, None),
    ("smooth_bump", -0.5, 1.0, 0.1, True, 200_000, None, None),
    ("smooth_bump", 1.0, 1.0, 4.0, True, 25_000, None, None),
    ("smooth_bump", -2.0, 2.0, 0.15, True, 200_000, None, None),
)


def _planar_build() -> dict:
    funcs = {fid: catalog.get(fid, dim=2) for fid in ("ball_indicator(1)", "smooth_bump")}
    for u in funcs.values():
        u.slicer(0.0, 0.0)
    return {"funcs": funcs}


def _planar_cells(inputs: dict, rng: random.Random, seed: int, index: int) -> list:
    ops = []
    for fid, gamma, p, lam0, menu, samples, exact, defect in PLANAR_CELLS:
        lam = _menu(lam0, rng.randrange(MENU)) if menu else lam0
        params = Params(dim=2, p=p, gamma=gamma)
        u = inputs["funcs"][fid]
        cell = f"{fid}|gamma={gamma:g}|p={p:g}|lam={lam!r}"
        rot = LevelSetQuery(u=u, params=params, lam=lam, method="rotation2d",
                            rel_tol=ROTATION_REL_TOL)
        mc = LevelSetQuery(u=u, params=params, lam=lam, method="montecarlo",
                           seed=rng.randrange(2**32), mc_samples=samples)
        ref = {"cell": cell, "exact": exact}
        ops.append(Op(f"rotation2d|{cell}", lambda q=rot: measure.nu_measure(q),
                      _estimate_pairs, ref=ref))
        ops.append(Op(f"montecarlo|{cell}", lambda q=mc: measure.nu_measure(q),
                      _estimate_pairs, deterministic=False, defect=defect, ref=ref))
    return ops


def _planar_check(inputs: dict, done: dict) -> dict:
    failures = {}
    by_cell = {}
    for key, (op, est) in done.items():
        by_cell.setdefault(op.ref["cell"], []).append((key, op, est))
    for cell, members in by_cell.items():
        for key, op, est in members:
            if math.isinf(est.value):
                failures[key] = Failure("verdict", "verdict: inf where the measure is finite",
                                        value=est.value)
            elif op.ref["exact"] is not None:
                failure = _compare("exact", est.value, est.error_bound, op.ref["exact"], 0.0)
                if failure:
                    failures[key] = failure
        if members[0][1].ref["exact"] is None and len(members) == 2:
            (k1, _, a), (k2, _, b) = members
            if k1 not in failures and k2 not in failures:
                failure = _compare("cross-method", a.value, a.error_bound,
                                   b.value, b.error_bound)
                if failure:
                    failures[k1] = failures[k2] = failure
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        # two passes of 34 ops
        Workload("line_regimes", _line_build, _line_cells, _line_check,
                 trace_passes=2, warmup=False, tail_pct=85),
        # one pass of a dozen ops: no percentile has ten beyond it
        Workload("lambda_grids", _grids_build, _grids_cells, _grids_check,
                 trace_passes=1, warmup=False, tail_pct=85),
        Workload("staircase", _stair_build, _stair_cells, _stair_check,
                 trace_passes=1, warmup=False, tail_pct=85),
        # three passes of 12 ops after the warm-up
        Workload("planar", _planar_build, _planar_cells, _planar_check,
                 trace_passes=2, warmup=True, tail_pct=70),
    )
}
