"""The acceptance gate: every shipped claim, runnable as one suite.

Each criterion pins its tolerance here, measures the relevant quantities
through the public API, and reports a record with the measured values,
predictions, tolerances, and runtime.  ``run_one`` runs one criterion and is
the one place that times it and turns a raise into a failed record;
``run_all`` is ``run_one`` over ``CRITERIA``.  The pytest acceptance module
runs them one by one, the ``reproduce-all`` CLI command all at once.
"""

from __future__ import annotations

import math
import time
import traceback

import numpy as np

from . import analysis, constants
from .analysis import geometric_grid
from .cantor import counterexample_series
from .catalog import make_standard
from .measure import LevelSetQuery, nu_measure
from .params import Params
from .stopping import stopping_intervals

__all__ = ["CRITERIA", "run_all", "run_one"]


class _Record:
    def __init__(self, crit_id: int, title: str):
        self.data = {"id": crit_id, "title": title, "passed": True, "checks": []}

    def check(self, name, measured, expected, tol, kind="rel"):
        if kind == "rel":
            ok = math.isfinite(measured) and abs(measured - expected) <= tol * abs(expected)
        elif kind == "abs":
            ok = math.isfinite(measured) and abs(measured - expected) <= tol
        elif kind == "le":
            ok = measured <= expected
        elif kind == "ge":
            ok = measured >= expected
        elif kind == "bool":
            ok = bool(measured)
        else:
            raise ValueError(kind)
        self.data["checks"].append(
            {"name": name, "measured": measured, "expected": expected, "tol": tol,
             "kind": kind, "ok": bool(ok)}
        )
        if not ok:
            self.data["passed"] = False
        return ok


def _criterion_1(rec: _Record):
    """Constants at 1e-12 relative."""
    cases = {
        (1.0, 1): 2.0,
        (1.0, 2): 4.0,
        (2.0, 2): math.pi,
        (2.0, 1): 2.0,
        (1.0, 3): 2.0 * math.pi,
    }
    for (p, dim), expected in cases.items():
        rec.check(f"kappa({p:g},{dim})", constants.kappa(p, dim), expected, 1e-12)


def _criterion_2(rec: _Record):
    """Half-line step against the exact closed form, 1%."""
    u = make_standard("halfline_step")
    for gamma in (1.0, 2.0, -2.0, -3.0):
        for lam in (0.25, 1.0, 4.0):
            est = nu_measure(
                LevelSetQuery(u=u, params=Params(dim=1, p=1.0, gamma=gamma), lam=lam)
            )
            rec.check(
                f"step gamma={gamma:g} lambda={lam:g}",
                est.value,
                constants.halfline_closed_form(gamma, lam),
                0.01,
            )


def _criterion_3(rec: _Record):
    """Limit formula for positive exponents, 5%."""
    tent = make_standard("tent")
    s = analysis.sweep(tent, Params(dim=1, p=1.0, gamma=1.0), geometric_grid(4, 4096, 11))
    rec.check("tent converged", s.classification == "converged", True, 0, kind="bool")
    rec.check("tent gamma=1 p=1 limit", s.limit_estimate or math.nan, 2.0, 0.05)

    bump = make_standard("smooth_bump")
    s2 = analysis.sweep(bump, Params(dim=1, p=2.0, gamma=1.0), geometric_grid(4, 4096, 11))
    predicted = constants.kappa(2, 1) / 1.0 * bump.grad_lp(2.0) ** 2
    rec.check("bump converged", s2.classification == "converged", True, 0, kind="bool")
    rec.check("bump gamma=1 p=2 limit", s2.limit_estimate or math.nan, predicted, 0.05)


def _criterion_4(rec: _Record):
    """Limit formula for negative exponents, 5%."""
    tent = make_standard("tent")
    s = analysis.sweep(
        tent, Params(dim=1, p=2.0, gamma=-2.0), geometric_grid(1.0, 2.0**-12, 13)
    )
    rec.check("tent converged", s.classification == "converged", True, 0, kind="bool")
    rec.check("tent gamma=-2 p=2 limit", s.limit_estimate or math.nan, 1.0, 0.05)

    bump = make_standard("smooth_bump")
    s2 = analysis.sweep(
        bump, Params(dim=1, p=1.0, gamma=-3.0), geometric_grid(2.0**-6, 2.0**-18, 13)
    )
    predicted = constants.kappa(1, 1) / 3.0 * bump.grad_l1
    rec.check("bump converged", s2.classification == "converged", True, 0, kind="bool")
    rec.check("bump gamma=-3 p=1 limit", s2.limit_estimate or math.nan, predicted, 0.05)


def _criterion_5(rec: _Record):
    """Indicator limit and the bounded-variation mismatch factor, 5%."""
    s1 = analysis.bv_indicator_limit(1.0, 1.0)
    rec.check("indicator gamma=1 limit", s1.limit_estimate or math.nan, 2.0, 0.05)
    smooth_constant = constants.kappa(1, 1) / abs(1.0) * 2.0  # the (false for BV) value 4
    rec.check(
        "mismatch factor", (s1.limit_estimate or math.nan) / smooth_constant, 0.5, 0.05
    )
    s2 = analysis.bv_indicator_limit(1.0, -3.0)
    rec.check("indicator gamma=-3 limit", s2.limit_estimate or math.nan, 2.0, 0.05)


def _criterion_6(rec: _Record):
    """Zero-exponent dichotomy: Lipschitz recovery and truncation growth."""
    tent = make_standard("tent")
    lip = analysis.estimate_lipschitz(tent)
    rec.check("lipschitz(tent)", lip, 1.0, 0.10)

    ks = list(range(4, 15))
    grow = analysis.truncated_zero_weight_values(tent, 0.5, ks)
    slope = float(np.polyfit(ks, grow, 1)[0])
    slope_rel = slope * float(np.mean(ks)) / float(np.mean(grow))
    rec.check("slope at lambda=0.5", slope_rel, 0.1, 0, kind="ge")
    sat = analysis.truncated_zero_weight_values(tent, 1.5, ks)
    rec.check("terminal at lambda=1.5", float(sat[-1]), 1e-3, 0, kind="le")


def _criterion_7(rec: _Record):
    """Indicator zero-exponent bounds with a single fitted constant."""
    u = make_standard("interval_indicator(1)")
    params = Params(dim=1, p=1.0, gamma=0.0)
    lams = 2.0 ** np.arange(-6, 7)
    vals = np.array(
        [nu_measure(LevelSetQuery(u=u, params=params, lam=float(l))).value for l in lams]
    )
    rec.check("all values finite", bool(np.all(np.isfinite(vals))), True, 0, kind="bool")
    shape = np.where(lams <= 1.0, np.log(2.0 / lams), 1.0 / lams)
    fitted_c = float(np.max(vals / shape))
    rec.check("single fitted constant", fitted_c, 20.0, 0, kind="le")
    sup = float(np.max(lams * vals))
    rec.check("sup lambda*measure < 10*TV", sup, 10.0 * u.grad_bv, 0, kind="le")


def _criterion_8(rec: _Record):
    """Staircase growth above the closed-form witness floor (2%)."""
    seq = analysis.cantor_growth(-0.5, 1.0, range(1, 7))
    vals = seq.values
    rec.check("nondecreasing in m", bool(np.all(np.diff(vals) >= 0)), True, 0, kind="bool")
    for r in seq.records:
        rec.check(f"A({r.m}) above floor", r.value, 0.98 * r.floor, 0, kind="ge")


def _criterion_9(rec: _Record):
    """Mollified-indicator growth at gamma=-1."""
    seq = analysis.mollified_indicator_growth(1.0, range(2, 9))
    vals = seq.values
    rec.check("strictly increasing", bool(np.all(np.diff(vals) > 0)), True, 0, kind="bool")
    rec.check("positive fitted slope", seq.slope, 0.0, 0, kind="ge")


def _criterion_10(rec: _Record):
    """Divergence mechanism of the truncated series (desk scale).

    With n_max = 3 the observable bins belong to blocks 2 and 3; the two
    strict growth comparisons are the measured bin infima and the certified
    witness floors.  The full asymptotic law is out of reach here.
    """
    series = counterexample_series(-0.5, 3)
    cert = analysis.series_divergence(series)
    b = cert.measured
    f = cert.floors
    rec.check("measured bin infima grow", bool(b[1] > b[0]), True, 0, kind="bool")
    rec.check("certified floors grow", bool(f[1] > f[0]), True, 0, kind="bool")
    rec.check("classified diverging", cert.classification == "diverging", True, 0, kind="bool")


def _criterion_11(rec: _Record):
    """Stopping decomposition of the unit indicator at gamma=-2."""
    u = make_standard("interval_indicator(1)")
    dec = stopping_intervals(u.eval, (0.0, 1.0), -2.0, breakpoints=(0.0, 1.0))
    rec.check("K", float(dec.k), 2.0, 0, kind="abs")
    for a, b in zip(dec.endpoints, (0.0, math.sqrt(0.5), 1.0 + math.sqrt(2.0))):
        rec.check(f"endpoint {b:g}", a, b, 1e-12, kind="abs")
    rec.check("residuals", max(abs(r) for r in dec.residuals), 1e-10, 0, kind="le")


def _criterion_12(rec: _Record):
    """Energy functional trend dominates the gradient norm direction."""
    tent = make_standard("tent")
    for p in (1.0, 2.0):
        curve = analysis.bbm_functional(tent, p, 2.0, [0.2, 0.1, 0.05, 0.025])
        lhs = constants.kappa(p, 1) / p * curve.trend
        rec.check(f"p={p:g} inequality", lhs, 0.95 * tent.grad_lp(p) ** p, 0, kind="ge")


def _criterion_13(rec: _Record):
    """Weak-type quasi-norm sanity across regimes."""
    for fid in ("tent", "smooth_bump"):
        u = make_standard(fid)
        for gamma in (1.0, -2.0):
            for p in (1.0, 2.0):
                wn = analysis.weak_norm(
                    u, Params(dim=1, p=p, gamma=gamma), count=25, rel_tol=1e-2
                )
                norm_p = u.grad_lp(p) ** p
                limit = constants.kappa(p, 1) / abs(gamma) * norm_p
                label = f"{fid} gamma={gamma:g} p={p:g}"
                rec.check(f"{label} finite", bool(math.isfinite(wn)), True, 0, kind="bool")
                rec.check(f"{label} >= limit", wn, 0.97 * limit, 0, kind="ge")
                rec.check(f"{label} <= 100*norm", wn, 100.0 * norm_p, 0, kind="le")


def _criterion_14(rec: _Record):
    """Compactly supported functions stay finite at gamma=-1 on the line."""
    tent = make_standard("tent")
    for lam in (0.1, 1.0):
        est = nu_measure(
            LevelSetQuery(u=tent, params=Params(dim=1, p=1.0, gamma=-1.0), lam=lam)
        )
        rec.check(
            f"finite at lambda={lam:g}", bool(math.isfinite(est.value)), True, 0, kind="bool"
        )


def _criterion_15(rec: _Record):
    """The limit formulas carry kappa(p, N): the bump at N = 2 and 3, 2% plus the bound."""
    engines = (
        (2, dict(method="rotation2d", rel_tol=0.01), ((1.0, 1.0, 64.0), (1.0, 2.0, 64.0))),
        (3, dict(method="montecarlo", seed=1, mc_samples=400_000),
         ((1.0, 1.0, 64.0), (-2.0, 2.0, 1.0 / 16.0))),
    )
    for dim, settings, cases in engines:
        bump = make_standard("smooth_bump", dim=dim)
        for gamma, p, lam in cases:
            params = Params(dim=dim, p=p, gamma=gamma)
            est = nu_measure(LevelSetQuery(u=bump, params=params, lam=lam, **settings))
            predicted = constants.kappa(p, dim) / abs(gamma) * bump.grad_lp(p) ** p
            rec.check(
                f"N={dim} gamma={gamma:g} p={p:g} lambda={lam:g} ({settings['method']})",
                lam**p * est.value, predicted, 0.02 + est.error_bound / est.value,
            )


CRITERIA = [
    (1, "sphere-average constants", _criterion_1),
    (2, "half-line closed-form oracle", _criterion_2),
    (3, "limit formula, positive exponent", _criterion_3),
    (4, "limit formula, negative exponent", _criterion_4),
    (5, "bounded-variation mismatch", _criterion_5),
    (6, "zero-exponent dichotomy", _criterion_6),
    (7, "indicator bounds at zero exponent", _criterion_7),
    (8, "staircase level-set growth", _criterion_8),
    (9, "mollified-indicator growth", _criterion_9),
    (10, "series divergence mechanism", _criterion_10),
    (11, "stopping decomposition", _criterion_11),
    (12, "small-exponent energy inequality", _criterion_12),
    (13, "weak-type quasi-norm sanity", _criterion_13),
    (14, "finiteness at gamma=-1 on the line", _criterion_14),
    (15, "limit formulas in dimensions 2 and 3", _criterion_15),
]


def run_one(crit_id: int) -> dict:
    """Run one criterion; one that raises is a failed record with its ``error``."""
    for cid, title, fn in CRITERIA:
        if cid == crit_id:
            rec = _Record(cid, title)
            t0 = time.time()
            try:
                fn(rec)
            except Exception as exc:  # a crashed criterion is a failed criterion
                rec.data["passed"] = False
                rec.data["error"] = f"{type(exc).__name__}: {exc}"
                rec.data["traceback"] = traceback.format_exc()
            rec.data["runtime_s"] = time.time() - t0
            return rec.data
    raise KeyError(f"no criterion {crit_id}")


def run_all() -> dict:
    t0 = time.time()
    out = [run_one(cid) for cid, _, _ in CRITERIA]
    return {
        "criteria": out,
        "all_passed": all(r["passed"] for r in out),
        "total_runtime_s": time.time() - t0,
    }
