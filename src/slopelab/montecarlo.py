"""Stratified Monte Carlo fallback for the weighted level-set measure.

Pairs are sampled as (x, direction, radius) with the radius drawn from the
power-law density r^(gamma-1) by inverse CDF inside geometric strata, so the
singular weight never appears as an integrand factor.  The estimator weights
each hit by 1 + [partner outside the box], which makes it unbiased for the
full measure when the box contains the support (pairs with both points
outside never belong to the superlevel set of a compactly supported
function).

The radii start at the cut of the near-diagonal rule the line engine uses,
``quadrature.near_diagonal``, which also gives the divergence verdict.  For a
bounded verdict the mass below the cut, the rule's remainder times the sphere
area, goes half into the value and half into the error bound; with no value
estimate, the remainder is aimed at ``rel_tol / 4``, where the line engine's
refinement leaves it for a value of order one.  A 'slope' cut (gamma = 0
below the Lipschitz constant) takes the line engine's ``slope_verdict`` on the
line profile, or on the central chord of a radial entry in any dim.  The error
bound is three standard errors plus that half of the remainder.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import sphere_area
from .measure import LevelSetQuery, MeasureEstimate
from .profiles import jump_structure
from .quadrature import PRECISION_FLOOR, member_window, near_diagonal, shell_weight, slope_verdict

__all__ = ["measure_montecarlo"]


def _jumps(u) -> tuple[float, float, float]:
    """(largest jump, size of the jump set, gap) of a catalog entry."""
    if u.dim == 1:
        return jump_structure(u.jumps)
    if u.lip == 0.0:
        # a multiple of an indicator: one jump of size sup |u| across a
        # boundary of measure grad_bv / sup |u|
        return u.sup_norm, u.grad_bv / u.sup_norm, math.inf
    return 0.0, 0, math.inf


def _inverse_cdf(gamma: float, a: float, c: float, qs: np.ndarray) -> np.ndarray:
    if math.isinf(c):
        return a * (1.0 - qs) ** (1.0 / gamma)  # gamma < 0
    if gamma == 0.0:
        return a * (c / a) ** qs
    return (a**gamma + qs * (c**gamma - a**gamma)) ** (1.0 / gamma)


def measure_montecarlo(q: LevelSetQuery) -> MeasureEstimate:
    u = q.u
    if not u.compact_support:
        raise ValueError("the Monte Carlo estimator needs a compactly supported function")
    dim = q.params.dim
    gamma, beta, lam = q.params.gamma, 1.0 + q.params.b, q.lam
    lows = np.array([lo for lo, _ in u.support])
    highs = np.array([hi for _, hi in u.support])
    volume = float(np.prod(highs - lows))
    sigma = sphere_area(dim)

    jump, jump_set, gap = _jumps(u)
    cut = near_diagonal(
        gamma, beta, lam, lipschitz=u.lip if u.lip is not None else math.inf,
        sup=u.sup_norm, jump=jump, jump_set=jump_set, gap=gap, extent=volume,
    )
    d_lo, d_hi = q.annulus if q.annulus is not None else (0.0, math.inf)
    below = 0.0
    if d_lo > 0.0:
        r_lo = max(cut.h_cut, d_lo) if cut.kind == "zero" else d_lo
    elif cut.kind in ("divergent", "slope"):
        diag = {"reason": cut.reason}
        if cut.kind == "slope":
            prof = u.line_profile() if dim == 1 else u.slicer(0.0, 0.0)
            diag["max_slope"] = slope_verdict(prof, beta, lam)
        return MeasureEstimate(
            value=math.inf, error_bound=math.inf, method="montecarlo",
            seed=q.seed, diagnostics=diag,
        )
    elif cut.kind == "zero":
        r_lo = cut.h_cut
    else:
        r_lo = max(cut.cut_for(q.rel_tol / (4.0 * sigma)), PRECISION_FLOOR)
        below = sigma * cut.remainder(r_lo)
    # beyond r_hi, |u(x) - u(y)| <= 2 sup |u| cannot exceed lam r^beta; for
    # beta <= 0, gamma < 0 and the far weight integral converges
    r_hi = min(float(member_window(2.0 * u.sup_norm, lam, beta)[1]), d_hi)
    if not r_hi > r_lo:
        return MeasureEstimate(
            value=below, error_bound=below, method="montecarlo",
            seed=q.seed, diagnostics={"empty_radial_range": True},
        )

    # geometric strata (ratio 4); the last one reaches r_hi, also when infinite
    edges = [r_lo]
    while edges[-1] < r_hi and len(edges) < 64:
        edges.append(min(edges[-1] * 4.0, r_hi))
    edges[-1] = r_hi
    weights = shell_weight(gamma, edges[:-1], edges[1:])
    alloc = np.maximum(64, (q.mc_samples * weights / weights.sum()).astype(int))

    seeds = np.random.SeedSequence(q.seed).spawn(len(weights))
    total = 0.0
    var_total = 0.0
    evals = 0
    for (a, c), z, n, ss in zip(zip(edges, edges[1:]), weights, alloc, seeds):
        rng = np.random.default_rng(ss)
        x = lows + rng.random((n, dim)) * (highs - lows)
        if dim == 1:
            omega = np.where(rng.random((n, 1)) < 0.5, -1.0, 1.0)
        elif dim == 2:
            phi = rng.random(n) * 2.0 * math.pi
            omega = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        else:
            g = rng.normal(size=(n, dim))
            omega = g / np.linalg.norm(g, axis=1, keepdims=True)
        r = _inverse_cdf(gamma, a, c, rng.random(n))
        y = x + r[:, None] * omega

        if dim == 1:
            ux = u.eval(x[:, 0])
            uy = u.eval(y[:, 0])
        else:
            ux = u.eval(x)
            uy = u.eval(y)
        with np.errstate(over="ignore"):
            hit = np.abs(ux - uy) > lam * r**beta
        outside = np.any((y < lows) | (y > highs), axis=1)
        g_vals = hit * (1.0 + outside)
        factor = volume * sigma * z
        total += factor * float(g_vals.mean())
        var_total += factor**2 * float(g_vals.var(ddof=1)) / n
        evals += n

    se = math.sqrt(var_total)
    return MeasureEstimate(
        value=total + 0.5 * below,
        error_bound=3.0 * se + 0.5 * below,
        method="montecarlo",
        evaluations=evals,
        tail_analytic=0.5 * below,
        seed=q.seed,
        diagnostics={"strata": len(weights), "r_range": (r_lo, r_hi), "std_error": se},
    )
