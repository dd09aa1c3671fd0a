"""Experiments on top of the measure engine: sweeps, limits, weak-type
quasi-norms, divergence certification, Lipschitz recovery, and the
small-exponent energy functional.

Divergence classification uses fixed thresholds (trailing log-log slope
below 0.05 with spread under 3% counts as converged; monotone growth above
50% over the trailing half as diverging); they separate the constructions'
logarithmic divergences from quadrature noise at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import selfsimilar
from .cantor import CantorSpec, SeriesBlock
from .catalog import TestFunction, mollified_indicator, make_standard
from .measure import LevelSetQuery, nu_measure
from .params import Params, check_p

__all__ = [
    "Sweep",
    "sweep",
    "detect_divergence",
    "weak_norm",
    "estimate_lipschitz",
    "bv_indicator_limit",
    "cantor_growth",
    "mollified_indicator_growth",
    "bbm_functional",
    "series_divergence",
    "InconclusiveError",
]


class InconclusiveError(RuntimeError):
    """Lipschitz recovery found the gamma = 0 measure still infinite at lambda = 2^17."""


FLAT_SLOPE = 0.05   # a converged sweep's trailing log-log slope stays below this
SPREAD = 0.03       # ... and so does the relative spread of its trailing values
GROWTH = 0.50       # a diverging sweep grows by more than this over its trailing half
TRAILING = 3        # trailing values averaged into a converged sweep's limit
BV_COUNT = 12                   # grid points of the indicator-limit sweep
GROWTH_LAMBDA = 0.25            # threshold of the staircase growth sequence
LAMBDAS_PER_BIN = 4             # series certificate: grid points per lambda bin
BBM_POINTS = 4097               # energy functional: x-grid points over the ball
BBM_DT = 0.2                    # ... and the log-separation step


def geometric_grid(lam_from: float, lam_to: float, count: int) -> np.ndarray:
    if count < 2:
        raise ValueError("a sweep grid needs at least two points")
    return np.geomspace(lam_from, lam_to, count)


# ---------------------------------------------------------------------------
# sweeps and limits
# ---------------------------------------------------------------------------

@dataclass
class Sweep:
    params: Params
    lambdas: np.ndarray
    values: np.ndarray            # lambda^p * measure
    errors: np.ndarray
    classification: str           # converged | diverging | inconclusive
    limit_estimate: Optional[float]
    sup_estimate: float
    estimates: list = field(default_factory=list)


def detect_divergence(lambdas: Sequence[float], values: Sequence[float]) -> str:
    """Classify a sweep ordered toward its limit direction."""
    lams = np.asarray(lambdas, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(vals) < 6:
        raise ValueError("divergence detection needs at least 6 grid points")
    if np.isinf(vals).any():
        return "diverging"
    tail = slice(len(vals) // 2, None)
    tv = vals[tail]
    tl = lams[tail]
    scale = float(np.max(np.abs(vals))) if np.max(np.abs(vals)) > 0 else 0.0
    if scale == 0.0 or np.all(np.abs(tv) <= 1e-14 * max(scale, 1.0)):
        return "converged"
    if np.any(tv <= 0):
        # zeros in the trailing half of a nonzero sweep: treat as converged to 0
        return "converged" if abs(tv[-1]) <= 1e-14 * scale else "inconclusive"
    slope = float(np.polyfit(np.log(tl), np.log(tv), 1)[0])
    spread = float((tv.max() - tv.min()) / tv.mean())
    if abs(slope) < FLAT_SLOPE and spread < SPREAD:
        return "converged"
    increments = np.diff(tv)
    if np.all(increments >= 0) and tv[-1] > (1.0 + GROWTH) * tv[0]:
        return "diverging"
    return "inconclusive"


def sweep(
    u: TestFunction,
    params: Params,
    grid: Sequence[float],
    *,
    rel_tol: float = 5e-3,
    budget: int = 40_000_000,
) -> Sweep:
    """Evaluate lambda^p * measure along a lambda grid and extrapolate."""
    lams = np.asarray(grid, dtype=float)
    estimates = []
    values = np.empty(len(lams))
    errors = np.empty(len(lams))
    for i, lam in enumerate(lams):
        est = nu_measure(
            LevelSetQuery(u=u, params=params, lam=float(lam), rel_tol=rel_tol, budget=budget)
        )
        estimates.append(est)
        values[i] = lam ** params.p * est.value
        errors[i] = lam ** params.p * est.error_bound

    classification = detect_divergence(lams, values)
    limit = None
    if classification == "converged":
        tv = values[-TRAILING:]
        te = errors[-TRAILING:]
        if np.all(tv == 0):
            limit = 0.0
        else:
            spread = (tv.max() - tv.min()) / max(abs(tv.mean()), 1e-300)
            if spread < SPREAD:
                w = 1.0 / np.maximum(te, 1e-12 * np.abs(tv) + 1e-300) ** 2
                limit = float(np.sum(w * tv) / np.sum(w))
            else:
                classification = "inconclusive"
    return Sweep(
        params=params,
        lambdas=lams,
        values=values,
        errors=errors,
        classification=classification,
        limit_estimate=limit,
        sup_estimate=float(values.max()),
        estimates=estimates,
    )


def weak_norm(
    u: TestFunction,
    params: Params,
    *,
    lam_lo: float = 2.0**-14,
    lam_hi: float = 2.0**14,
    count: int = 29,
    rel_tol: float = 5e-3,
) -> float:
    """Lower bound for sup over lambda of lambda^p * measure on a wide grid.

    This is the ``sup_estimate`` of a sweep, so ``count`` must be at least
    6, as for every sweep.  The default grid spans eight decades; +inf is
    returned when any grid point hits the infinite-measure sentinel.
    """
    return sweep(u, params, geometric_grid(lam_lo, lam_hi, count), rel_tol=rel_tol).sup_estimate


# ---------------------------------------------------------------------------
# the gamma = 0 dichotomy
# ---------------------------------------------------------------------------

def truncated_zero_weight_values(
    u: TestFunction,
    lam: float,
    ks: Sequence[int],
    rel_tol: float = 1e-2,
) -> np.ndarray:
    """nu_0 over the annulus 2^-k <= |x-y| <= 1 for each k.

    The annuli are nested, so only the first is measured whole; each later
    one adds the shell 2^-k <= |x-y| <= 2^-k' back to the previous depth k'.
    The depths must be nonnegative and strictly increasing.
    """
    if any(k < 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(
            f"truncation depths must be nonnegative and strictly increasing, got {list(ks)}"
        )
    params = Params(dim=1, p=1.0, gamma=0.0)
    outer = [1.0] + [2.0 ** (-k) for k in ks[:-1]]
    shells = [
        nu_measure(
            LevelSetQuery(u=u, params=params, lam=lam, annulus=(2.0 ** (-k), r), rel_tol=rel_tol)
        ).value
        for k, r in zip(ks, outer)
    ]
    return np.cumsum(shells)


def estimate_lipschitz(u: TestFunction, *, iterations: int = 10) -> float:
    """Recover the Lipschitz seminorm from the zero-exponent dichotomy.

    nu_0 of the level set is infinite below the Lipschitz constant and finite
    above it.  The engine decides which, and bisection on lambda brackets
    the transition; where it cannot decide, or the declared constant is
    below a sampled slope, its ValueError propagates.  A jump keeps the
    measure finite at every lambda, so entries with jumps are rejected.
    """
    if u.jumps:
        where = ", ".join(f"{loc:g}" for loc, _ in u.jumps)
        raise ValueError(
            f"{u.id} jumps at x = {where}: its gamma=0 measure is finite at every lambda, "
            "so it does not recover a Lipschitz constant"
        )
    params = Params(dim=1, p=1.0, gamma=0.0)

    def infinite(lam: float) -> bool:
        return nu_measure(LevelSetQuery(u=u, params=params, lam=lam)).infinite

    hi = 1.0
    lo = 1.0
    if infinite(1.0):
        while infinite(hi * 2.0):
            hi *= 2.0
            if hi > 2.0**16:
                raise InconclusiveError(
                    f"the measure is still infinite at lambda={hi:g}: "
                    "no finite-measure threshold found"
                )
        lo, hi = hi, hi * 2.0
    else:
        while not infinite(lo / 2.0):
            lo /= 2.0
            if lo < 2.0**-16:
                return 0.0
        lo, hi = lo / 2.0, lo

    for _ in range(iterations):
        mid = math.sqrt(lo * hi)
        if infinite(mid):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# bounded-variation limit for the interval indicator
# ---------------------------------------------------------------------------

def bv_indicator_limit(
    length: float,
    gamma: float,
    *,
    rel_tol: float = 5e-3,
) -> Sweep:
    """Extrapolated limit of lambda * measure for the indicator of [0, L].

    The sweep direction follows the sign of gamma + 1 (up for gamma > -1,
    down for gamma < -1); the limit is kappa(1,1)/|gamma+1| times the
    total-variation mass, which differs from the smooth-case constant by the
    factor |gamma|/|gamma+1|.
    """
    if gamma == -1.0:
        raise ValueError("gamma == -1 is excluded for the indicator limit")
    u = make_standard(f"interval_indicator({length:g})")
    params = Params(dim=1, p=1.0, gamma=gamma)
    if gamma > -1.0:
        grid = geometric_grid(8.0, 2.0**14, BV_COUNT)
    else:
        grid = geometric_grid(1.0 / 8.0, 2.0**-14, BV_COUNT)
    return sweep(u, params, grid, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# growth of the self-similar counterexamples
# ---------------------------------------------------------------------------

@dataclass
class GrowthRecord:
    m: int
    value: float
    error: float
    floor: Optional[float] = None


@dataclass
class GrowthSequence:
    records: list

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    @property
    def slope(self) -> float:
        """Least-squares slope of the values against m; 0 for one record."""
        if len(self.records) < 2:
            return 0.0
        return float(np.polyfit(np.array([r.m for r in self.records]), self.values, 1)[0])


def cantor_growth(
    gamma: float,
    p: float,
    m_range: Sequence[int],
    rel_tol: float = 5e-3,
) -> GrowthSequence:
    """Box-restricted staircase measures A(m, lam) with their witness floors,
    at lam = ``GROWTH_LAMBDA``, read from ``selfsimilar.box_measure_ladder``.

    At p = 1 every record is a partial sum of one ladder run to max(m_range).
    At p > 1 the corner identity rescales lam by s != 1 at each generation,
    so each m runs its own ladder.

    The floor for generation m is m times the closed-form weight of the
    corner witness rectangle [0, rho^2] x [1 - rho^2, 1], whose pairs are
    all members.
    """
    if p > 1.0:
        cap = (gamma + 1.0) / abs(gamma) * p / (p - 1.0)
        bad = [m for m in m_range if m - 1 > cap]
        if bad:
            raise ValueError(
                f"generations {bad} violate the admissible range m - 1 <= {cap:g} for p={p:g}"
            )
    lam = GROWTH_LAMBDA
    rect = selfsimilar.corner_rectangle_weight(gamma, CantorSpec(gamma=gamma, m=0).rho)
    ms = sorted(m_range)
    if not ms or ms[0] < 0:
        raise ValueError(f"generations must be a nonempty set of m >= 0, got {ms}")
    if p == 1.0:
        ladder = selfsimilar.box_measure_ladder(gamma, lam, ms[-1], rel_tol=rel_tol)
        reads = [ladder.diagnostics["partial_sums"][m] for m in ms]
    else:
        ladders = [selfsimilar.box_measure_ladder(gamma, lam, m, rel_tol=rel_tol, p=p) for m in ms]
        reads = [(e.value, e.error) for e in ladders]
    return GrowthSequence(records=[
        GrowthRecord(m=m, value=val, error=err, floor=m * rect)
        for m, (val, err) in zip(ms, reads)
    ])


def mollified_indicator_growth(
    p: float,
    m_range: Sequence[int],
    rel_tol: float = 5e-3,
) -> GrowthSequence:
    """nu_{-1} of the unit-threshold level set of the mollified indicators."""
    if p > 1.0:
        cap = p / (p - 1.0)
        bad = [m for m in m_range if m > cap]
        if bad:
            raise ValueError(f"levels {bad} violate the admissible range m <= {cap:g} for p={p:g}")
    params = Params(dim=1, p=p, gamma=-1.0)
    records = []
    for m in m_range:
        u = mollified_indicator(m, dim=1)
        est = nu_measure(LevelSetQuery(u=u, params=params, lam=1.0, rel_tol=rel_tol))
        records.append(GrowthRecord(m=m, value=est.value, error=est.error_bound))
    return GrowthSequence(records=records)


# ---------------------------------------------------------------------------
# the small-exponent energy functional
# ---------------------------------------------------------------------------

@dataclass
class EnergyCurve:
    s_values: tuple
    values: tuple
    trend: float


def bbm_functional(
    u: TestFunction,
    p: float,
    radius: float,
    s_grid: Sequence[float],
) -> EnergyCurve:
    """s * double integral of |u(x)-u(y)|^p / |x-y|^(1+p-sp) over the ball.

    Shell decomposition in log-separation with the smooth difference
    integrand; the sub-cutoff remainder is bounded through the Lipschitz
    constant and kept below 1e-4 of the expected scale.
    """
    if u.dim != 1:
        raise ValueError("the energy functional is computed for line functions here")
    check_p(p)
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    for s in s_grid:
        if not 0.0 < s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {s}")

    xs = np.linspace(-radius, radius, BBM_POINTS)
    ux = u.eval(xs)

    def d_p(h):
        valid = xs + h <= radius
        if valid.sum() < 2:
            return 0.0
        diffs = np.abs(u.eval(xs[valid] + h) - ux[valid]) ** p
        return float(np.trapezoid(diffs, xs[valid]))

    # below h_lin the pair energy follows a power law C h^alpha (alpha = p for
    # differentiable profiles, 1 for pure jumps); fitting it and integrating in
    # closed form avoids the float cancellation that zeroes u(x+h) - u(x) for
    # subatomic h
    h_lin = 1e-5 * radius
    d1, d2 = d_p(h_lin), d_p(2.0 * h_lin)
    if d1 > 0 and d2 > 0:
        alpha = math.log2(d2 / d1)
        c_fit = d1 / h_lin**alpha
    else:
        alpha, c_fit = p, 0.0

    values = []
    for s in s_grid:
        sp = s * p
        if c_fit > 0 and alpha + sp - p <= 0:
            values.append(math.inf)  # the small-separation energy diverges
            continue
        head = 2.0 * s * c_fit * h_lin ** (alpha + sp - p) / (alpha + sp - p) if c_fit else 0.0
        t = np.arange(math.log(h_lin), math.log(2.0 * radius) + BBM_DT, BBM_DT)
        hs = np.exp(t)
        dvals = np.array([d_p(h) for h in hs])
        integrand = dvals * hs ** (sp - p)
        values.append(head + 2.0 * s * float(np.trapezoid(integrand, t)))

    # trailing trend: the curve is linear in s to first order, so extrapolate
    # the last two points to s = 0
    if len(values) >= 2 and all(map(math.isfinite, values[-2:])):
        s2, s1 = s_grid[-2], s_grid[-1]
        v2, v1 = values[-2], values[-1]
        trend = v1 + (v2 - v1) / (s2 - s1) * (0.0 - s1)
    else:
        trend = values[-1]
    return EnergyCurve(s_values=tuple(s_grid), values=tuple(values), trend=trend)


# ---------------------------------------------------------------------------
# divergence certificate for the truncated series
# ---------------------------------------------------------------------------

@dataclass
class BinRecord:
    n: int
    lam_lo: float
    lam_hi: float
    measured_inf: float     # min over the bin grid of lambda * core measure
    floor: float            # certified witness floor for the bin
    error: float


@dataclass
class SeriesCertificate:
    bins: list
    classification: str     # diverging | inconclusive

    @property
    def measured(self) -> list:
        return [b.measured_inf for b in self.bins]

    @property
    def floors(self) -> list:
        return [b.floor for b in self.bins]


def series_divergence(
    series: TestFunction,
    *,
    rel_tol: float = 3e-2,
) -> SeriesCertificate:
    """Per-bin infima of lambda times the block-core level-set measure.

    Bin n is the lambda range ((n+1)^-2 lambda_{n+1}, n^-2 lambda_n]; the
    core window of block n is the middle half of its support, where the
    series equals the rescaled block exactly, so the block's box measure
    transfers through the exact dilation identity.  Growth of the bin infima
    (and of the closed-form witness floors) certifies the divergence
    mechanism; the full asymptotic law is out of reach at this scale.
    """
    blocks: tuple[SeriesBlock, ...] = series.meta
    if not blocks:
        raise ValueError("the series carries no block schedule metadata")
    gamma = blocks[0].spec.gamma
    rho = blocks[0].spec.rho
    rect = selfsimilar.corner_rectangle_weight(gamma, rho)

    records = []
    for blk in blocks:
        n = blk.n
        lam_hi = blk.lam / n**2
        lam_lo = blk.lam_next / (n + 1) ** 2
        grid = np.geomspace(lam_lo * 1.0000001, lam_hi, LAMBDAS_PER_BIN)
        best = math.inf
        best_err = math.inf
        scale_factor = blk.radius ** (1.0 + gamma)
        for lam in grid:
            # threshold transferred to the unit block: |Q f| > mu on the core
            mu = lam * scale_factor / blk.coef
            ladder = selfsimilar.box_measure_ladder(
                gamma, mu / 16.0, blk.m, rel_tol=rel_tol
            )
            val = lam * scale_factor * ladder.value
            if val < best:
                best = val
                best_err = lam * scale_factor * ladder.error
        floor = lam_lo * scale_factor * blk.m * rect
        records.append(
            BinRecord(
                n=n, lam_lo=lam_lo, lam_hi=lam_hi,
                measured_inf=best, floor=floor, error=best_err,
            )
        )

    measured = [r.measured_inf for r in records]
    floors = [r.floor for r in records]
    growing = all(b > a for a, b in zip(measured, measured[1:])) and all(
        b > a for a, b in zip(floors, floors[1:])
    )
    return SeriesCertificate(
        bins=records, classification="diverging" if growing else "inconclusive"
    )
