"""Adaptive quadrature for weighted level-set measures of line functions.

The measure of a superlevel set under the weight |x-y|^(gamma-1) is computed
in (x, h) coordinates, h = y - x > 0, doubled by symmetry at the end.  Pairs
split into two exhaustive families:

* at least one endpoint on a plateau (the profile is constant outside
  [lo, hi]): membership reduces to v > lambda h^beta with v known pointwise.
  Its separations form one interval, ``member_window``, whose shape depends
  only on the sign of beta, so the h-integral of the weight is a closed form
  per x (``shell_weight``) and only a one-dimensional x-quadrature remains
  (exact geometry, no sampling of the indicator); the two-plateau family is
  a full closed form.  This part dominates for gamma < -1 and is where
  infinite measures arise.
* both endpoints inside (lo, hi): the h-axis is covered by geometric shells
  whose singular weight is integrated in closed form, and the membership
  indicator is resolved by quadtree bisection at the superlevel-set boundary.
  Unresolved boundary mass goes half into the value and half into the error
  bound, so the reported interval brackets the quadrature truth.  The edge
  x + h = hi of this pair domain enters through the cell weight, not the
  membership: a cell that straddles it weighs only its part inside, in
  closed form, and no cell wholly beyond it is made.  Membership masks a
  support edge only where the profile declares a jump there; at a
  continuous edge it is sampled straight across, so the edge is not refined
  as if it were a level-set boundary.  Edge jumps, like interior ones, are
  read from the declarations, never searched for.  An interior query keeps
  only this family, the pairs in [lo, hi]^2.
* a profile that declares a mirror point c (f(2c - x) = +-f(x) + const)
  has interior member sets symmetric under (x, h) -> (2c - x - h, h), and
  the weight depends on h alone.  The cells cover only the half domain
  2x + h < 2c: the mirror line is a clipped edge of slope 2, whose
  straddling cells weigh their part inside in the same closed form, and
  the half's masses count twice.  A region or interface points given with
  such a profile are declared symmetric too (see ``measure_line``).

Near the diagonal, one rule, ``near_diagonal``, gives the cutoff below which
membership is provably impossible or the bound on the mass below a cutoff,
from the Lipschitz constant, the jump sizes and the sup norm.  The Monte
Carlo backend uses the same rule.  The engine asks it for the cells' pairs,
from the interior jumps or from declared interface points, and, where the
plateau pairs count, for the jumps at the support edges.  A divergent corner
at a jump is its verdict outright.  At gamma = 0 below the declared
Lipschitz constant, or with none, the slopes of f decide
(``slope_verdict``): a ``max_slope`` above lambda proves the measure
infinite, and a lambda in [max_slope, constant) raises ``UndecidedError``, a
ValueError.  These are the verdicts ``analysis.estimate_lipschitz`` bisects on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .profiles import LineProfile, jump_structure

__all__ = [
    "EngineEstimate",
    "BudgetExceededError",
    "NearCut",
    "max_slope",
    "measure_line",
    "member_window",
    "near_diagonal",
    "shell_weight",
    "slope_verdict",
    "UndecidedError",
]

PRECISION_FLOOR = 1e-250  # below this h, double precision cannot see membership
MAX_CELLS = 250_000       # most cells one refinement round hands to the next
_BLOCK = 4096             # cells sampled per block of a refinement round
_EXPLORE_ROUNDS = 2       # first rounds of _refine, which also split sampled-empty cells
_MAX_X_CELLS = 96         # most x-intervals of the initial cell grid
_GRID_POINTS = 2049       # uniform points of the plateau x-grid before grading
_TINY = np.finfo(float).tiny  # the smallest normal double


@dataclass
class EngineEstimate:
    value: float
    error: float
    evaluations: int = 0
    tail: float = 0.0                 # portion added in closed form
    diagnostics: dict = field(default_factory=dict)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)


class BudgetExceededError(RuntimeError):
    """Tolerance not reachable within the evaluation budget."""

    def __init__(self, message: str, partial: EngineEstimate):
        super().__init__(message)
        self.partial = partial


def check_controls(rel_tol, budget) -> None:
    """Reject a tolerance or an evaluation budget that no query can honour."""
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if not (isinstance(budget, numbers.Integral) and budget >= 0):
        raise ValueError(f"budget must be an integer >= 0, got {budget!r}")


class UndecidedError(ValueError):
    """A valid gamma = 0 query whose verdict the sampled slopes cannot decide."""


class _Divergent(Exception):
    def __init__(self, reason):
        self.reason = reason


# ---------------------------------------------------------------------------
# closed-form weight pieces
# ---------------------------------------------------------------------------

def _power_integral(gamma: float, a, b):
    """The closed form of ``shell_weight`` without its masks, for 0 < a <= b < inf."""
    return np.log(b / a) if gamma == 0.0 else (b**gamma - a**gamma) / gamma


def shell_weight(gamma: float, a, b):
    """Integral of h^(gamma-1) over [a, b] elementwise: 0 where b <= a.

    From a = 0 it is inf for gamma <= 0, and to b = inf it is the tail
    a^gamma / -gamma for gamma < 0 and inf at gamma = 0; for gamma > 0 an
    infinite upper end raises ``_Divergent``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    inside = b > a
    if gamma > 0.0 and np.any(inside & (b == math.inf)):
        raise _Divergent(f"weight integral to infinity diverges for gamma={gamma:g} > 0")
    # 0 ** gamma is inf and inf ** gamma is 0 for gamma < 0, so the closed
    # form is the integral at both ends; where b <= a it may be nan
    with np.errstate(divide="ignore", invalid="ignore"):
        w = _power_integral(gamma, a, b)
    return np.where(inside, w, 0.0)


def member_window(v, lam: float, beta: float):
    """The open interval (lo, hi) of separations h > 0 with v > lam h^beta.

    It is (0, (v/lam)^(1/beta)) for beta > 0, (0, inf) where v > lam for
    beta = 0 and ((v/lam)^(1/beta), inf) for beta < 0; it is empty (lo >= hi)
    wherever v <= 0.  Elementwise in v; a float v gives numpy scalars, whose
    powers are the C library's, as a Python float's are.
    """
    v = np.maximum(v, 0.0)
    lo = np.zeros_like(v)[()]  # [()] keeps a scalar a scalar
    hi = lo + math.inf
    if beta == 0.0:
        return lo, np.where(v > lam, hi, lo)[()]
    with np.errstate(over="ignore", divide="ignore"):
        ratio = v / lam
        edge = ratio ** (1.0 / beta)
        # below lam ~ 1e-308, v / lam overflows where the edge itself is finite
        over = np.isinf(ratio)
        if np.any(over):
            edge = np.where(over, np.exp((np.log(v) - math.log(lam)) / beta), edge)[()]
    return (lo, edge) if beta > 0.0 else (edge, hi)


def _ramp_primitive(gamma: float, span, h):
    """Primitive of (h - span) h^(gamma-1), elementwise in span and h.

    A scalar span of 0 drops the span term, so h = 0 is a valid argument
    wherever the integral of h^gamma converges there (gamma > -1).
    """
    if np.ndim(span) == 0 and span == 0.0:
        return np.log(h) if gamma == -1.0 else h ** (gamma + 1.0) / (gamma + 1.0)
    if gamma == 0.0:
        return h - span * np.log(h)
    if gamma == -1.0:
        return np.log(h) + span / h
    return h ** (gamma + 1.0) / (gamma + 1.0) - span * h**gamma / gamma


def _ramp_integral(gamma: float, span: float, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    if math.isinf(b) and gamma + 1.0 >= 0.0:
        return math.inf
    if a == 0.0 and gamma <= -1.0:
        # a == 0 only for a zero-width support: the integrand is h^gamma
        return math.inf
    if math.isinf(b):
        return float(-_ramp_primitive(gamma, span, a))
    return float(_ramp_primitive(gamma, span, b) - _ramp_primitive(gamma, span, a))


def _cell_weight(gamma: float, x1, x2, h1, h2, top: float, slope: int = 1):
    """Weight of the cells [x1, x2] x [h1, h2] inside the pair domain slope x + h < top.

    A cell wholly inside weighs (x2 - x1) shell_weight(h1, h2), a cell wholly
    beyond the edge nothing.  A cell that straddles it has the full width up
    to h = top - slope x2, and above that the width (top - slope x1 - h) / slope
    until h = top - slope x1: the integrand of the two-plateau ramp with span
    top - slope x1, divided by the slope.  Slope 1 is the support edge,
    slope 2 a mirror line.  Rounding in the ramp's primitive is clipped, so
    that a weight is never negative and never exceeds the whole cell's.
    Cells have 0 < h1 <= h2 < inf, so they take the bare closed form: the
    masks of ``shell_weight`` would add a sixth to a half to its time in
    every round.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = (x2 - x1) * _power_integral(gamma, h1, h2)
        cut = (slope * x2 + h2 > top).nonzero()[0]
        if len(cut):
            x1, x2, h1, h2 = x1[cut], x2[cut], h1[cut], h2[cut]
            span = top - slope * x1
            a = np.minimum(np.maximum(top - slope * x2, h1), h2)  # the full width ends here
            b = np.maximum(np.minimum(h2, span), a)               # the last pair inside
            part = (_ramp_primitive(gamma, span, a) - _ramp_primitive(gamma, span, b)) / slope
            part += (x2 - x1) * _power_integral(gamma, h1, a)
            w[cut] = np.minimum(np.maximum(part, 0.0, out=part), w[cut], out=part)
    return w


def _geometric_mid(a, b):
    """sqrt(a b) elementwise, also where the product a b underflows."""
    ab = a * b
    mid = np.sqrt(ab)
    if ab.min() < _TINY:  # subnormal or zero
        low = ab < _TINY
        mid[low] = np.sqrt(a[low]) * np.sqrt(b[low])
    return mid


# ---------------------------------------------------------------------------
# the near-diagonal rule
# ---------------------------------------------------------------------------

@dataclass
class NearCut:
    """What the pairs closer than some separation h contribute.

    ``kind`` is 'zero' (no pair closer than ``h_cut`` is a member), 'bounded'
    (the member mass below h is at most ``remainder(h)``, and
    ``cut_for(target)`` is a cut whose remainder is about ``target``),
    'divergent' (the corner mass at a jump is infinite) or 'slope' (only the
    slopes of f decide, ``slope_verdict``).  Remainders count the pairs
    (x, x + h omega) of one direction omega, so a line engine doubles them and
    an N-dimensional one multiplies them by the sphere area.
    """

    kind: str
    h_cut: float = math.inf
    remainder: Optional[Callable[[float], float]] = None
    cut_for: Optional[Callable[[float], float]] = None
    reason: str = ""


def near_diagonal(
    gamma: float,
    beta: float,
    lam: float,
    *,
    lipschitz: float,
    sup: float,
    jump: float,
    jump_set: float,
    gap: float,
    extent: float,
) -> NearCut:
    """The near-diagonal rule for {|u(x) - u(y)| > lam |x - y|^beta}, beta = 1 + b.

    ``lipschitz`` bounds the slope of the continuous part (inf if unknown),
    ``sup`` bounds |u|, ``jump`` is the largest jump, ``jump_set`` the size of
    the jump set (the number of jumps on a line, the boundary measure in the
    plane), ``gap`` the separation below which a pair crosses at most one
    jump, and ``extent`` the measure of the region where u varies.

    Corner mass at a jump diverges for gamma <= -1; at b = -1 a jump meets the
    constant threshold lam, so it diverges exactly when the jump exceeds lam;
    at gamma = 0 lam decides against the Lipschitz constant.
    """
    L = lipschitz
    if beta < 0.0:
        # |u(x) - u(y)| <= 2 sup: no pair closer than its window's lower end is a member
        return NearCut("zero", h_cut=float(member_window(2.0 * sup, lam, beta)[0]))

    if beta == 0.0:
        if jump > lam:
            return NearCut(
                "divergent",
                reason=f"a jump of size {jump:g} meets lambda={lam:g} at quotient exponent "
                f"b=-1 (gamma={gamma:g} <= -1): the diagonal corner mass diverges",
            )
        if L == 0.0:
            return NearCut("zero", h_cut=gap)
        if math.isinf(L):
            return NearCut("slope", reason="unknown Lipschitz constant at b=-1")
        return NearCut("zero", h_cut=min((lam - jump) / L, gap))

    if beta <= 1.0 or L == 0.0:
        # below h_s the continuous part alone cannot reach the threshold; with
        # no continuous part only pairs across a jump can be members
        if beta == 1.0:
            if lam < L:
                return NearCut("slope", reason=f"lambda={lam!r} below the Lipschitz constant {L!r}")
            h_s = math.inf
        elif L == 0.0:
            h_s = math.inf
        elif math.isinf(L):
            h_s = PRECISION_FLOOR
        else:
            h_s = (lam / L) ** (1.0 / (1.0 - beta))
        if not jump_set:
            return NearCut("zero", h_cut=h_s)
        if gamma <= -1.0:
            return NearCut(
                "divergent",
                reason=f"jumps with gamma={gamma:g} <= -1 and quotient exponent above -1: "
                "the diagonal corner mass diverges",
            )

        def rem(h, _n=jump_set, _g=gamma):
            return _n * h ** (_g + 1.0) / (_g + 1.0)

        def cut_for(target, _n=jump_set, _g=gamma, _hs=h_s, _gap=gap):
            h = (target * (_g + 1.0) / _n) ** (1.0 / (_g + 1.0))
            return min(h, _hs, _gap)

        return NearCut("bounded", remainder=rem, cut_for=cut_for)

    # beta > 1 (gamma > 0) with a continuous part: every close pair may be a
    # member, but the strip weight is finite
    e = extent + 1.0

    def rem2(h, _e=e, _g=gamma):
        return (_e + 2.0 * h) * h**_g / _g

    def cut_for2(target, _e=e, _g=gamma):
        return (target * _g / (_e + 1.0)) ** (1.0 / _g)

    return NearCut("bounded", remainder=rem2, cut_for=cut_for2)


def max_slope(profile: LineProfile) -> float:
    """The largest slope of f that the plateau grid shows, less rounding.

    Over neighbouring grid points a < b with no declared jump in [a, b]: the
    largest (|f(b) - f(a)| - 8 eps sup|f|) / (b - a), or 0.  f is absolutely
    continuous there, so |f'| exceeds any smaller lambda on a set of positive
    measure, and no declared Lipschitz constant may be below it.
    """
    xs = _graded_grid(profile)
    a, b = xs[:-1], xs[1:]
    free = np.ones(len(a), dtype=bool)
    for loc, _ in profile.jumps:
        free &= (b < loc) | (loc < a)
    rise = np.abs(np.diff(profile.f(xs))) - 8.0 * np.finfo(float).eps * profile.sup
    return float(np.max(rise[free] / (b - a)[free], initial=0.0))


def slope_verdict(profile: LineProfile, beta: float, lam: float):
    """Decide a 'slope' cut: the ``max_slope`` above lambda that makes the measure infinite.

    Raises ValueError where that slope exceeds the declared Lipschitz
    constant, and its subclass UndecidedError where the verdict is
    undecided: lambda in [slope, constant), or b = -1 with the constant
    unknown.
    """
    if beta != 1.0:
        raise UndecidedError(
            f"undecided: lambda={lam!r} at b=-1 with an unknown Lipschitz constant"
        )
    slope, L = max_slope(profile), profile.lipschitz
    if slope > L:
        raise ValueError(
            f"the sampled slope {slope!r} exceeds the declared Lipschitz constant {L!r}"
        )
    if slope <= lam:
        raise UndecidedError(
            f"undecided at gamma=0: lambda={lam!r} lies between the sampled slope {slope!r} "
            f"and the Lipschitz constant {L!r}"
        )
    return slope


# ---------------------------------------------------------------------------
# plateau interactions: closed form in h, quadrature in x
# ---------------------------------------------------------------------------

def _graded_grid(profile: LineProfile) -> np.ndarray:
    """Uniform grid over [lo, hi] refined geometrically at structural points."""
    lo, hi = profile.lo, profile.hi
    scale = max(hi - lo, 1.0)
    pts = [np.linspace(lo, hi, _GRID_POINTS)]
    offs = scale * 2.0 ** -np.arange(4.0, 46.0, 0.25)
    for p in profile.grid_points():
        pts.append(np.clip(p + offs, lo, hi))
        pts.append(np.clip(p - offs, lo, hi))
    return np.unique(np.concatenate(pts))


def _plateau_interactions(profile, gamma, beta, lam, h_lo, h_hi):
    """Mass of all pairs with at least one endpoint on a plateau.

    Returns (value, error_estimate, parts); raises _Divergent when the family
    genuinely diverges (constant-threshold membership with an infinite
    weight, or a divergent two-plateau ramp).  Divergent corners at the
    support-edge jumps are the near-diagonal rule's verdict, not this one's.
    """
    lo, hi = profile.lo, profile.hi
    parts = {}
    value = 0.0
    err = 0.0

    if profile.span > 0.0:
        xs = _graded_grid(profile)

        def one_sided(side):
            if side == "right":
                v = np.abs(profile.f(xs) - profile.right)
                t0 = np.maximum(h_lo, hi - xs)
            else:
                v = np.abs(profile.f(xs) - profile.left)
                t0 = np.maximum(h_lo, xs - lo)
            h_in, h_out = member_window(v, lam, beta)
            w = shell_weight(gamma, np.maximum(t0, h_in), np.minimum(h_out, h_hi))
            w[~np.isfinite(w)] = 0.0
            # the exact edge point is measure zero; keep the integrand finite
            fine = float(np.trapezoid(w, xs))
            coarse = float(np.trapezoid(w[::2], xs[::2]))
            return fine, abs(fine - coarse)

        v_r, e_r = one_sided("right")
        v_l, e_l = one_sided("left")
        value += v_r + v_l
        err += e_r + e_l
        parts["profile_vs_plateau"] = v_r + v_l

    delta = abs(profile.right - profile.left)
    if delta > 0.0:
        h_in, h_out = member_window(delta, lam, beta)
        a, b = max(profile.span, h_lo, h_in), min(h_out, h_hi)
        ramp = _ramp_integral(gamma, profile.span, a, b)
        if math.isinf(ramp):
            raise _Divergent(
                f"two-plateau pairs diverge (plateau gap {delta:g}, gamma={gamma:g})"
            )
        value += ramp
        parts["two_plateau"] = ramp
    return value, err, parts


# ---------------------------------------------------------------------------
# the interior cell engine
# ---------------------------------------------------------------------------

def _refine(member, cells, gamma, target, budget_left, top, slope=1):
    """Round-based quadtree refinement of indicator cells, resumable.

    ``cells`` is (x1, x2, h1, h2, ok): cells [x1, x2] x [h1, h2] and their
    (3, 3, k) samples on the stencil of corners and midpoints, 0.5 (x1 + x2)
    in x and sqrt(h1 h2) in h; ok is None for fresh cells, which sample all
    nine pairs in the first round.  A cell that is split is sampled once
    more, on its 5x5 half-step grid: the abscissae x1, 0.5 (x1 + xm), xm,
    0.5 (xm + x2), x2 against the separations h1, sqrt(h1 hm), hm,
    sqrt(hm h2), h2.  Its own 3x3 samples fill the even indices, and
    ``member`` is asked for the two odd rows against all five separations
    and for the three even rows against the two odd separations: 16 pairs,
    5 + 16 profile points per split.  Child (a, b) takes g[2a:2a+3, 2b:2b+3]
    as its stencil, so every cell of a later round starts with its nine
    samples known; its midpoints are the same doubles it would compute
    itself.  Geometric midpoints come from ``_geometric_mid``, which does
    not underflow.  ``member(x, h)`` takes abscissae of shape (n, 1, k) and
    separations of shape (1, m, k) and returns the (n, m, k) membership of
    the pairs (x, x + h), so the profile runs once per abscissa plus once
    per pair, with the cell axis last for numpy's inner loops.

    The first ``_EXPLORE_ROUNDS`` rounds of fresh cells also split cells
    sampled empty, so that thin slivers between the sample lines of the
    initial grid get a second look; only later rounds may stop, once the
    mixed cells weigh at most ``target``.  The mixed cells left unsplit, at
    the stop or below target / (2 MAX_CELLS), are the frontier: a call on
    it at a tighter target resumes the refinement, with no explore rounds
    and no pair sampled again.  The lightest mixed cells past the cap of
    MAX_CELLS / 4 splits in a round are dropped, their mass unresolved.

    The pair domain ends at slope x + h = ``top`` (inf for none), and the
    edge enters through the weight, not the membership: a cell counts only
    its part inside (``_cell_weight``), and no child wholly beyond the edge
    is made.  ``member`` masks the edge only where the profile jumps there
    or a region restricts the pairs; at a continuous edge it samples
    straight across, so a cell that straddles the edge is split only where
    a level set crosses it.  A domain of slope 2 is half of one whose cells the counts
    above were set for, so it takes half of each: of MAX_CELLS, of the
    explore rounds' 40,000 cells, and so of the light-cell threshold's cell
    count.

    Sampling runs in blocks of ``_BLOCK`` cells, so that the grids, the
    profile's temporaries and ``member``'s results stay in cache.  The
    children of the m cells split in a round are written straight into the
    next round's arrays in the order of concatenating the four quarters in
    turn, each quarter without its children beyond the edge.  Every value
    is computed elementwise by the same operations on the same doubles, and
    every later sum, sort and cap sees the cells in the same order, so the
    result does not depend on the block size.  Cells whose weight underflows
    to 0 are dropped before a round; the arrays are compacted only then.

    ``evaluations`` counts stencil pairs, nine per live cell and once per
    cell, not profile points, as for a full 3x3 sampling of every cell.  A
    round is sampled only if its pairs fit in ``budget_left``.

    Returns (inside_mass, dropped_mass, frontier, unresolved_mass,
    evaluations, rounds, exhausted): the frontier has the form of ``cells``,
    and the unresolved mass is its weight plus the dropped mass.  exhausted
    is True when the budget stopped the refinement, also before its first
    round, with the cells of the stopped round in the frontier.  Raises
    ValueError on a non-finite cell weight.
    """
    x1, x2, h1, h2, ok = cells
    explore = _EXPLORE_ROUNDS if ok is None else 0  # rounds that split sampled-empty cells
    max_cells, explore_cells = MAX_CELLS // slope, 40_000 // slope
    ok = np.empty((3, 3, len(x1)), dtype=bool) if ok is None else ok
    inside, dropped, unresolved, evals, rounds = 0.0, 0.0, 0.0, 0, 0
    parked = []  # mixed cells too light to split in earlier rounds

    def cells_at(idx):
        return x1[idx], x2[idx], h1[idx], h2[idx], ok[:, :, idx]

    def frontier(idx=slice(0)):
        return _joined(parked + [cells_at(idx)])

    while len(x1):
        w = _cell_weight(gamma, x1, x2, h1, h2, top, slope)
        if not np.isfinite(w).all():
            raise ValueError(
                f"non-finite interior cell weight at gamma={gamma:g} for separations "
                f"down to {float(h1.min()):g}: the weight h^(gamma-1) overflows"
            )
        live = w > 0
        if not live.all():
            x1, x2, h1, h2, w, ok = x1[live], x2[live], h1[live], h2[live], w[live], ok[:, :, live]
            if not len(x1):
                break
        n = len(x1)
        if explore and not rounds:
            if evals + 9 * n > budget_left:
                return inside, 0.0, (x1, x2, h1, h2, None), float(w.sum()), evals, rounds, True
            for s0 in range(0, n, _BLOCK):
                s = slice(s0, s0 + _BLOCK)
                bx1, bx2, bh1, bh2 = x1[s], x2[s], h1[s], h2[s]
                xs = np.stack([bx1, 0.5 * (bx1 + bx2), bx2])
                hs = np.stack([bh1, _geometric_mid(bh1, bh2), bh2])
                ok[:, :, s] = member(xs[:, None], hs[None, :])
        if explore or rounds:
            # a resumed frontier was counted in the round that left it
            evals += 9 * n
        samples = ok.reshape(9, n)
        full = samples.all(axis=0)
        hit = samples.any(axis=0)
        rounds += 1
        mixed = ~full if rounds <= explore and n <= explore_cells else hit & ~full
        inside += float(w[full].sum())

        sel = np.flatnonzero(mixed)
        mw = w[sel]
        total_mixed = float(mw.sum())
        if rounds > explore and total_mixed <= target:
            return inside, dropped, frontier(sel), unresolved + total_mixed, evals, rounds, False

        # cells too light to split are parked, those sampled empty dropped
        keep = mw > target / (2.0 * max_cells)
        light = ~keep & hit[sel]
        unresolved += float(mw[light].sum())
        parked.append(cells_at(sel[light]))
        sel, mw = sel[keep], mw[keep]
        cutoff = max_cells // 4
        if len(sel) > cutoff:
            order = np.argsort(mw, kind="stable")[::-1]
            lost = float(mw[order[cutoff:]].sum())
            unresolved, dropped = unresolved + lost, dropped + lost
            sel = sel[order[:cutoff]]
        if not len(sel):
            break
        m = len(sel)
        made = _quarters_made(x1[sel], x2[sel], h1[sel], h2[sel], top, slope)
        counts = np.count_nonzero(made, axis=1).tolist()
        total = sum(counts)
        if evals + 9 * total > budget_left:
            return inside, dropped, frontier(sel), unresolved + float(w[sel].sum()), evals, rounds, True
        # the next round's arrays hold the quarters in turn; at[q] is where
        # quarter q's next child goes
        at = [0, counts[0], counts[0] + counts[1], total - counts[3]]
        cx1, cx2, ch1, ch2 = (np.empty(total) for _ in range(4))
        cok = np.empty((3, 3, total), dtype=bool)
        for s0 in range(0, m, _BLOCK):
            s = slice(s0, s0 + _BLOCK)
            bs = sel[s]
            mx1, mx2, mh1, mh2 = x1[bs], x2[bs], h1[bs], h2[bs]
            xm = 0.5 * (mx1 + mx2)
            hm = _geometric_mid(mh1, mh2)
            xg = np.stack([mx1, 0.5 * (mx1 + xm), xm, 0.5 * (xm + mx2), mx2])
            hg = np.stack([mh1, _geometric_mid(mh1, hm), hm, _geometric_mid(hm, mh2), mh2])
            g = np.empty((5, 5, len(bs)), dtype=bool)
            g[::2, ::2] = ok[:, :, bs]
            g[1::2] = member(xg[1::2, None], hg[None, :])
            g[::2, 1::2] = member(xg[::2, None], hg[None, 1::2])
            for q in range(4):
                a, b = q % 2, q // 2
                child = (xg[2 * a], xg[2 * a + 2], hg[2 * b], hg[2 * b + 2])
                stencil = g[2 * a:2 * a + 3, 2 * b:2 * b + 3]
                idx = made[q, s].nonzero()[0]
                n_keep = len(idx)
                if n_keep < len(bs):
                    child = tuple(c[idx] for c in child)
                    stencil = stencil.take(idx, axis=2)
                d = slice(at[q], at[q] + n_keep)
                for dst, src in zip((cx1, cx2, ch1, ch2), child):
                    dst[d] = src
                cok[:, :, d] = stencil
                at[q] += n_keep
        x1, x2, h1, h2, ok = cx1, cx2, ch1, ch2, cok
    return inside, dropped, frontier(), unresolved, evals, rounds, False


def _joined(parts):
    """Cell sets in the form ``_refine`` takes, concatenated."""
    return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))


def _quarters_made(x1, x2, h1, h2, top, slope):
    """(4, n): which quarters of the cells are not wholly beyond slope x + h = top.

    Quarter q takes the x-half q % 2 and the h-half q // 2; with no edge
    (top = inf) every quarter is made.
    """
    sx1, sxm = slope * x1, slope * (0.5 * (x1 + x2))
    hm = _geometric_mid(h1, h2)
    return np.stack([sx1 + h1 < top, sxm + h1 < top, sx1 + hm < top, sxm + hm < top])


def _initial_cells(profile, h_lo, h_hi, top, slope):
    """Fresh cells over [lo, hi] x [h_lo, h_hi], none wholly beyond slope x + h = top."""
    x_lo, x_hi = profile.lo, profile.hi
    if x_lo >= x_hi or h_lo >= h_hi:
        return (np.empty(0),) * 4 + (None,)
    pts = profile.grid_points()
    pts = pts[(pts > x_lo) & (pts < x_hi)]
    edges = np.unique(np.concatenate([[x_lo, x_hi], pts]))
    width_cap = max((x_hi - x_lo) / 16.0, 1e-12)
    filled = [edges[0]]
    for a, b in zip(edges, edges[1:]):
        n_extra = int((b - a) / width_cap)
        if n_extra:
            filled.extend(np.linspace(a, b, n_extra + 2)[1:-1])
        filled.append(b)
    edges = np.array(filled)
    if len(edges) > _MAX_X_CELLS + 1:
        idx = np.unique(np.linspace(0, len(edges) - 1, _MAX_X_CELLS + 1).astype(int))
        edges = edges[idx]

    n_shells = min(max(1, math.ceil(math.log2(h_hi / h_lo))), 1400)
    shells = h_lo * (h_hi / h_lo) ** (np.arange(n_shells + 1) / n_shells)
    shells[0], shells[-1] = h_lo, h_hi

    ex1 = np.repeat(edges[:-1], n_shells)
    ex2 = np.repeat(edges[1:], n_shells)
    sh1 = np.tile(shells[:-1], len(edges) - 1)
    sh2 = np.tile(shells[1:], len(edges) - 1)
    made = slope * ex1 + sh1 < top
    return ex1[made], ex2[made], sh1[made], sh2[made], None


def measure_line(
    profile: LineProfile,
    gamma: float,
    b: float,
    lam: float,
    *,
    h_window: Optional[tuple[float, float]] = None,
    interior: bool = False,
    region: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    interface_points: Optional[int] = None,
    rel_tol: float = 5e-3,
    budget: int = 40_000_000,
) -> EngineEstimate:
    """Weighted measure of {|f(x)-f(y)| > lam |x-y|^(1+b)} on the line.

    ``h_window`` restricts to an annulus delta <= |x-y| <= R; ``interior``
    keeps only the pairs in [lo, hi]^2, leaving out the plateau interactions;
    ``region`` is an extra elementwise predicate on those interior pairs,
    called with broadcastable x and y arrays, and so needs ``interior``.
    ``interface_points`` asserts that every member pair
    at small separation straddles one of that many interface points,
    replacing the generic Lipschitz cutoff (used by the self-similar cross
    terms, whose Lipschitz constants are astronomically large).

    A profile that declares a mirror point c is refined on the half domain
    2x + h < 2c, its masses counted twice.  A ``region`` passed with such a
    profile must therefore map onto itself under (x, y) -> (2c - y, 2c - x),
    and its interface points must come in mirror pairs about c (a point at
    c is its own pair).  This is declared, as the mirror itself is, and not
    checked: the self-similar cross term's region, the unit box less its two
    corner squares, and its interfaces rho and 1 - rho satisfy it.

    The interior cells are one refinement in turns, no cell sampled twice:
    the first from the near cut of remainder rel_tol max(tail, 1) at half
    that target; then, while needed, the cut lowered to a remainder of
    rel_tol scale / 4 with only the fresh strip below the old cut refined
    (the weight is additive in h), or the frontier of mixed cells resumed at
    target rel_tol scale / 2; scale is the estimate less the remainder.

    ``budget`` caps the stencil-pair evaluations of the whole query: every
    turn draws on one counter, no round that would overrun it is sampled,
    and a query that runs out raises ``BudgetExceededError`` carrying the
    partial estimate so far.  The gamma = 0 verdict below the Lipschitz
    constant (``slope_verdict``) samples no pair.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    check_controls(rel_tol, budget)
    beta = 1.0 + b
    diag: dict = {}
    lo, hi = profile.lo, profile.hi

    h_lo, h_hi = 0.0, math.inf
    if h_window is not None:
        h_lo, h_hi = h_window
        if not 0 <= h_lo <= h_hi:
            raise ValueError(f"invalid annulus {h_window}")
        if h_hi == h_lo:
            return EngineEstimate(0.0, 0.0, diagnostics={"empty_annulus": True})

    if region is not None and not interior:
        raise ValueError("region restricts the interior pairs only: it needs interior=True")

    # The cells' pairs end at x + h = hi, beyond which the plateau
    # interactions take over in closed form, or, for an interior query,
    # nothing counts.  An edge is masked only where the profile declares a
    # jump there (a region predicate keeps the top edge masked too); at a
    # continuous edge the cells are clipped to it instead.  A mirrored
    # profile's interior pairs (x, x + h) and (2c - x - h, 2c - x) are members
    # together, and [lo, hi]^2 and any region are symmetric about c, so the
    # cells cover only 2x + h < 2c, clipped there, and count twice.
    edge_jumps = [j for j in profile.jumps if j[0] in (lo, hi)]
    jumps_at = {loc for loc, _ in edge_jumps}
    mask_lo, mask_top = lo in jumps_at, hi in jumps_at or region is not None
    mirrored = profile.mirror is not None
    if mirrored:
        slope, top = 2, 2.0 * profile.mirror
    else:
        slope, top = 1, math.inf if mask_top else hi

    def f(a):
        # a profile callable is only asked for 1-D arrays
        return profile.f(a.reshape(-1)).reshape(a.shape)

    def member(x, h):
        # x (n, 1, k) against h (1, m, k): f once per abscissa and the
        # threshold once per separation; only f(x + h) is per pair
        with np.errstate(over="ignore", invalid="ignore"):
            thr = lam * h**beta
        y = x + h
        ok = np.abs(f(x) - f(y)) > thr
        if mask_lo:
            ok &= x > lo
        if mask_top:
            ok &= y < hi
        if region is not None:
            ok &= region(x, y)
        return ok

    # --- the near-diagonal rule: the cells' pairs, and the edge jumps -------
    def rule(lipschitz, jump, jump_set, gap=math.inf):
        return near_diagonal(
            gamma, beta, lam, lipschitz=lipschitz, sup=profile.sup, jump=jump,
            jump_set=jump_set, gap=gap, extent=profile.span,
        )

    if interface_points is not None:
        # no Lipschitz part: interfaces across which u moves by at most 2 sup
        cut = rule(0.0, 2.0 * profile.sup, interface_points)
    else:
        cell_jumps = [j for j in profile.jumps if lo < j[0] < hi]
        cut = rule(profile.lipschitz, *jump_structure(cell_jumps))
    cuts = [cut] if interior else [cut, rule(profile.lipschitz, *jump_structure(edge_jumps))]
    for c in cuts:
        if c.kind == "divergent" and h_lo == 0.0:
            return EngineEstimate(math.inf, math.inf, diagnostics={"reason": c.reason})
    if cut.kind == "slope" and h_lo == 0.0:
        slope = slope_verdict(profile, beta, lam)
        diag = {"reason": cut.reason, "max_slope": slope}
        return EngineEstimate(math.inf, math.inf, diagnostics=diag)

    cells_hi = min(h_hi, profile.span)

    # --- plateau interactions (closed form in h) ---------------------------
    tail_v = tail_e = 0.0
    if not interior:
        try:
            tail_v, tail_e, parts = _plateau_interactions(profile, gamma, beta, lam, h_lo, h_hi)
            diag["tail_parts"] = parts
        except _Divergent as d:
            return EngineEstimate(math.inf, math.inf, diagnostics={"reason": d.reason})

    # --- near cutoff and interior cells: one refinement ---------------------
    lowering = cut.kind == "bounded" and h_lo == 0.0  # the near cut follows the value

    def lowered(target):
        # the bounded cut for a remainder target, no farther out than the
        # cells' largest separation: its rule assumes a small h
        return min(cut.cut_for(target), cells_hi)

    if cut.kind == "zero":
        cell_lo = max(h_lo, cut.h_cut)  # no closer pair is a member, also inside an annulus
    else:
        cell_lo = lowered(max(rel_tol * max(tail_v, 1.0), 1e-12)) if lowering else h_lo

    def near(h):
        # the cut clamped to the floor, and the remainder of the pairs below it
        if h < PRECISION_FLOOR:
            h = PRECISION_FLOOR
            diag["near_floor_clamped"] = True
        rem = cut.remainder(h) if cut.kind == "bounded" and h_lo < h else 0.0
        return h, (rem if rem >= 1e-200 else 0.0)

    inside, dropped, evals, rounds, exhausted = 0.0, 0.0, 0, 0, False  # of the whole query
    target = rel_tol * max(tail_v, 1.0) / 2.0

    def refine(cells):
        # masses of a half domain count twice, so it is refined to half the target
        nonlocal inside, dropped, evals, rounds, exhausted
        got, lost, left, mass, n, r, exhausted = _refine(
            member, cells, gamma, target / slope, budget - evals, top, slope
        )
        inside, dropped = inside + slope * got, dropped + slope * lost
        evals, rounds = evals + n, rounds + r
        return left, slope * mass

    def fresh(h1, h2):
        return _initial_cells(profile, h1, h2, top, slope)

    cell_lo, rem = near(cell_lo)
    frontier, unresolved = refine(fresh(cell_lo, cells_hi))
    while not exhausted:
        tight = rel_tol * (inside + 0.5 * unresolved + tail_v) / 2.0
        new_lo, new_rem = near(lowered(max(tight / 2.0, 1e-300))) if lowering else (cell_lo, rem)
        if new_lo < cell_lo:
            strip, mass = refine(fresh(new_lo, cell_lo))
            frontier = frontier if exhausted else _joined([frontier, strip])
            cell_lo, rem, unresolved = new_lo, new_rem, unresolved + mass
        elif unresolved > tight and tight < target:
            target, kept = tight, dropped  # the dropped mass stays unresolved
            frontier, mass = refine(frontier)
            unresolved = kept + mass
        else:
            break

    diag.update(h_cut=cell_lo, near_remainder=rem, rounds=rounds)
    if mirrored:
        diag["mirror"] = profile.mirror
    value = 2.0 * (inside + 0.5 * unresolved + 0.5 * rem + tail_v)
    error = 2.0 * (0.5 * unresolved + 0.5 * rem + tail_e)
    est = EngineEstimate(value, error, evals, 2.0 * (tail_v + 0.5 * rem), diag)
    if exhausted:
        raise BudgetExceededError(
            f"evaluation budget {budget} exhausted before reaching tolerance", est
        )
    return est
