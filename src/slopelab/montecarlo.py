"""Stratified Monte Carlo fallback for the weighted level-set measure.

Pairs are sampled as (x, direction, radius) with the radius drawn from the
power-law density r^(gamma-1) by inverse CDF inside geometric strata, so the
singular weight never appears as an integrand factor.  The estimator weights
each hit by 1 + [partner outside the box], which makes it unbiased for the
full measure when the box contains the support (pairs with both points
outside never belong to the superlevel set of a compactly supported
function).  The error bound is three standard errors plus the analytic bound
on the mass below the smallest sampled radius.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .constants import sphere_area
from .measure import LevelSetQuery, MeasureEstimate

__all__ = ["measure_montecarlo"]


def _radius_cuts(q: LevelSetQuery) -> tuple[float, float, float, Optional[str]]:
    """(r_lo, r_hi, below_bound, divergent_reason) for the radial range."""
    u = q.u
    gamma, beta, lam = q.params.gamma, 1.0 + q.params.b, q.lam
    L = u.lip if u.lip is not None else math.inf
    M = u.sup_norm
    boundary = u.grad_bv is not None and (u.lip == 0.0 or u.grad is None)

    if beta > 0.0:
        r_hi = (2.0 * M / lam) ** (1.0 / beta) if M > 0 else 0.0
    else:
        r_hi = math.inf  # gamma < 0 here, the far weight integral converges

    below = 0.0
    if beta < 0.0:
        r_lo = (2.0 * M / lam) ** (1.0 / beta) if M > 0 else math.inf
    elif beta == 0.0:
        if boundary and 1.0 > lam:
            return 0.0, 0.0, 0.0, "boundary jump at constant threshold: divergent"
        r_lo = (lam / L) if math.isfinite(L) and L > 0 else r_hi / 2**20
    elif beta < 1.0:
        r_lo = (lam / L) ** (1.0 / (1.0 - beta)) if math.isfinite(L) and L > 0 else 0.0
        if boundary:
            if gamma <= -1.0:
                return 0.0, 0.0, 0.0, "boundary corners diverge for gamma <= -1"
            r_jump = min(r_lo if r_lo > 0 else math.inf, 2.0 ** (-20))
            coef = (u.grad_bv or 1.0) * sphere_area(q.params.dim)
            below = coef * r_jump ** (gamma + 1.0) / (gamma + 1.0)
            r_lo = r_jump
        elif r_lo == 0.0:
            r_lo = 2.0 ** (-40)
    elif beta == 1.0:
        if math.isfinite(L) and lam < L:
            return 0.0, 0.0, 0.0, "lambda below the Lipschitz constant at gamma=0"
        r_lo = 2.0 ** (-20)
        coef = (u.grad_bv or 0.0) * sphere_area(q.params.dim)
        below = coef * r_lo
    else:
        # gamma > 0: finite strip weight below the cut
        r_lo = max((q.rel_tol / 16.0) ** (1.0 / gamma) * 0.1, 2.0 ** (-60))
        vol = float(np.prod([hi - lo for lo, hi in u.support]))
        below = (vol + 1.0) * sphere_area(q.params.dim) * r_lo**gamma / gamma
    return r_lo, r_hi, below, None


def _inverse_cdf(gamma: float, a: float, c: float, qs: np.ndarray) -> np.ndarray:
    if math.isinf(c):
        return a * (1.0 - qs) ** (1.0 / gamma)  # gamma < 0
    if gamma == 0.0:
        return a * (c / a) ** qs
    return (a**gamma + qs * (c**gamma - a**gamma)) ** (1.0 / gamma)


def _stratum_weight(gamma: float, a: float, c: float) -> float:
    if math.isinf(c):
        return a**gamma / abs(gamma)
    if gamma == 0.0:
        return math.log(c / a)
    return (c**gamma - a**gamma) / gamma


def measure_montecarlo(q: LevelSetQuery) -> MeasureEstimate:
    u = q.u
    if not u.compact_support:
        raise ValueError("the Monte Carlo estimator needs a compactly supported function")
    dim = q.params.dim
    gamma, beta, lam = q.params.gamma, 1.0 + q.params.b, q.lam

    r_lo, r_hi, below, reason = _radius_cuts(q)
    if reason is not None:
        return MeasureEstimate(
            value=math.inf, error_bound=math.inf, method="montecarlo",
            seed=q.seed, diagnostics={"reason": reason},
        )
    if q.annulus is not None:
        r_lo = max(r_lo, q.annulus[0])
        r_hi = min(r_hi, q.annulus[1])
        below = 0.0
    if not r_hi > r_lo:
        return MeasureEstimate(
            value=below, error_bound=below, method="montecarlo",
            seed=q.seed, diagnostics={"empty_radial_range": True},
        )

    lows = np.array([lo for lo, _ in u.support])
    highs = np.array([hi for _, hi in u.support])
    volume = float(np.prod(highs - lows))
    sigma = sphere_area(dim)

    # geometric strata (ratio 4), plus one unbounded stratum when needed
    edges = [r_lo]
    while edges[-1] < r_hi and len(edges) < 64:
        edges.append(min(edges[-1] * 4.0, r_hi))
    if math.isinf(r_hi):
        edges = edges[:-1] + [math.inf]
    weights = np.array([_stratum_weight(gamma, a, c) for a, c in zip(edges, edges[1:])])
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
