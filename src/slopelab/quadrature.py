"""Adaptive quadrature for weighted level-set measures of line functions.

The measure of a superlevel set under the weight |x-y|^(gamma-1) is computed
in (x, h) coordinates, h = y - x > 0, doubled by symmetry at the end.  Pairs
split into two exhaustive families:

* at least one endpoint on a plateau (the profile is constant outside
  [lo, hi]): membership reduces to v > lambda h^beta with v known pointwise,
  so the h-integral of the weight is a closed form per x and only a
  one-dimensional x-quadrature remains (exact geometry, no sampling of the
  indicator); the two-plateau family is a full closed form.  This part
  dominates for gamma < -1 and is where infinite measures arise.
* both endpoints inside (lo, hi): the h-axis is covered by geometric shells
  whose singular weight is integrated in closed form, and the membership
  indicator is resolved by quadtree bisection at the superlevel-set boundary.
  Unresolved boundary mass goes half into the value and half into the error
  bound, so the reported interval brackets the quadrature truth.

Near the diagonal, one rule, ``near_diagonal``, gives the cutoff below which
membership is provably impossible or the bound on the mass below a cutoff,
from the Lipschitz constant, the jump sizes and the sup norm.  The Monte
Carlo backend uses the same rule.  The engine asks it three times: for the
interior jumps, for the jumps at the support edges, and for declared
interface points.  Regimes where the near-diagonal mass genuinely diverges
are either detected outright or confirmed by a truncation-halving probe,
which decides on the mass each halving of its lower edge adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .profiles import LineProfile, jump_structure

__all__ = [
    "EngineEstimate",
    "BudgetExceededError",
    "NearCut",
    "measure_line",
    "near_diagonal",
    "shell_weight",
]

# A logarithmic divergence adds the same mass at every halving of the
# probe's lower edge; a tail that scales like h^a adds 4^-a as much after
# two halvings, 1/4 for the corner mass at a jump and 0 where the Lipschitz
# constant is loose.  The last increment against the first decides.
DIVERGENT_INCREMENT_RATIO = 0.5
PRECISION_FLOOR = 1e-250  # below this h, double precision cannot see membership
EDGE_TOL = 1e-9           # relative size above which an edge mismatch is a jump
MAX_CELLS = 250_000       # most cells one refinement round hands to the next


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


class _Divergent(Exception):
    def __init__(self, reason):
        self.reason = reason


# ---------------------------------------------------------------------------
# closed-form weight pieces
# ---------------------------------------------------------------------------

def shell_weight(gamma: float, h1, h2):
    """Integral of h^(gamma-1) over [h1, h2] (vectorized)."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if gamma == 0.0:
        return np.log(h2 / h1)
    return (h2**gamma - h1**gamma) / gamma


def _weight_vec(gamma: float, a, b):
    """Integral of h^(gamma-1) over [a, b] elementwise; b may be inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast(a, b).shape)
    a, b = np.broadcast_arrays(a, b)
    good = b > a
    if gamma == 0.0:
        with np.errstate(divide="ignore"):
            out[good] = np.log(b[good] / a[good])
        return out
    if gamma < 0.0:
        # from h = 0 the integral diverges; 0 ** gamma would divide by zero
        from_zero = good & (a == 0.0)
        out[from_zero] = np.inf
        good &= ~from_zero
        fin = good & np.isfinite(b)
        out[fin] = (b[fin] ** gamma - a[fin] ** gamma) / gamma
        tail = good & ~np.isfinite(b)
        out[tail] = a[tail] ** gamma / (-gamma)
        return out
    if np.any(good & ~np.isfinite(b)):
        raise _Divergent(f"weight integral to infinity diverges for gamma={gamma:g} >= 0")
    out[good] = (b[good] ** gamma - a[good] ** gamma) / gamma
    return out


def _ramp_primitive(gamma: float, span: float, h: float) -> float:
    """Primitive of (h - span) h^(gamma-1), for the two-plateau family.

    The span term is dropped at span == 0, so h = 0 is a valid argument
    wherever the integral of h^gamma converges there (gamma > -1).
    """
    if span == 0.0:
        return math.log(h) if gamma == -1.0 else h ** (gamma + 1.0) / (gamma + 1.0)
    if gamma == 0.0:
        return h - span * math.log(h)
    if gamma == -1.0:
        return math.log(h) + span / h
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
        return -_ramp_primitive(gamma, span, a)
    return _ramp_primitive(gamma, span, b) - _ramp_primitive(gamma, span, a)


# ---------------------------------------------------------------------------
# the near-diagonal rule
# ---------------------------------------------------------------------------

@dataclass
class NearCut:
    """What the pairs closer than some separation h contribute.

    ``kind`` is 'zero' (no pair closer than ``h_cut`` is a member), 'bounded'
    (the member mass below h is at most ``remainder(h)``, and
    ``cut_for(target)`` is a cut whose remainder is about ``target``),
    'divergent' (the corner mass at a jump is infinite) or 'probe' (the rule
    cannot decide; only a truncation probe can).  Remainders count the pairs
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
        if sup == 0.0:
            return NearCut("zero")
        return NearCut("zero", h_cut=(2.0 * sup / lam) ** (1.0 / beta))

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
            return NearCut("probe", reason="unknown Lipschitz constant at b=-1")
        return NearCut("zero", h_cut=min((lam - jump) / L, gap))

    if beta <= 1.0:
        # below h_s the continuous part alone cannot reach the threshold
        if beta == 1.0:
            if math.isinf(L):
                return NearCut("probe", reason="unknown Lipschitz constant at gamma=0")
            if lam < L:
                return NearCut(
                    "probe",
                    reason=f"lambda={lam:g} below the Lipschitz constant {L:g} at gamma=0: "
                    "the dichotomy predicts divergence",
                )
            h_s = math.inf
        elif math.isinf(L):
            h_s = PRECISION_FLOOR
        elif L == 0.0:
            h_s = math.inf
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

    # beta > 1 (gamma > 0): every close pair may be a member, but the strip
    # weight is finite
    e = extent + 1.0

    def rem2(h, _e=e, _g=gamma):
        return (_e + 2.0 * h) * h**_g / _g

    def cut_for2(target, _e=e, _g=gamma):
        return (target * _g / (_e + 1.0)) ** (1.0 / _g)

    return NearCut("bounded", remainder=rem2, cut_for=cut_for2)


# ---------------------------------------------------------------------------
# plateau interactions: closed form in h, quadrature in x
# ---------------------------------------------------------------------------

def _graded_grid(profile: LineProfile, n_base: int = 2049) -> np.ndarray:
    """Uniform grid over [lo, hi] refined geometrically at structural points."""
    lo, hi = profile.lo, profile.hi
    scale = max(hi - lo, 1.0)
    pts = [np.linspace(lo, hi, n_base)]
    offs = scale * 2.0 ** -np.arange(4.0, 46.0, 0.25)
    for p in profile.grid_points():
        pts.append(np.clip(p + offs, lo, hi))
        pts.append(np.clip(p - offs, lo, hi))
    return np.unique(np.concatenate(pts))


def _h_windows(gamma, beta, lam, v, t0, h_hi):
    """Vectorized weight of {h in (t0, h_hi]: v > lam h^beta} per point."""
    v = np.asarray(v, dtype=float)
    t0 = np.asarray(t0, dtype=float)
    w = np.zeros_like(v)
    pos = v > 0
    if not pos.any():
        return w
    if beta > 0.0:
        with np.errstate(over="ignore"):
            h_star = (v[pos] / lam) ** (1.0 / beta)
        w[pos] = _weight_vec(gamma, t0[pos], np.minimum(h_star, h_hi))
    elif beta == 0.0:
        on = v > lam
        if on.any():
            w[on] = _weight_vec(gamma, t0[on], h_hi)
    else:
        with np.errstate(over="ignore"):
            h_star = (v[pos] / lam) ** (1.0 / beta)
        w[pos] = _weight_vec(gamma, np.maximum(h_star, t0[pos]), h_hi)
    return w


def _edge_jump_sizes(profile: LineProfile) -> tuple[float, ...]:
    """Mismatches between the profile and its plateaus at the support edges."""
    scale = max(profile.span, 1.0)
    eps = scale * 1e-12
    tol = EDGE_TOL * max(profile.sup, 1.0)
    if profile.span == 0.0:
        return ()
    v_l = abs(float(profile.f(np.array([profile.lo + eps]))[0]) - profile.left)
    v_r = abs(float(profile.f(np.array([profile.hi - eps]))[0]) - profile.right)
    return tuple(v for v in (v_l, v_r) if v > tol)


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
            w = _h_windows(gamma, beta, lam, v, t0, h_hi)
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
        t_lo = max(profile.span, h_lo)
        if beta > 0.0:
            a, b = t_lo, min((delta / lam) ** (1.0 / beta), h_hi)
        elif beta == 0.0:
            a, b = (t_lo, h_hi) if delta > lam else (t_lo, t_lo)
        else:
            a, b = max(t_lo, (delta / lam) ** (1.0 / beta)), h_hi
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

def _refine(member, cells, gamma, target, budget_left, min_rounds=2):
    """Round-based quadtree refinement of indicator cells.

    A cell [x1, x2] x [h1, h2] is judged on the 3x3 stencil of its corners
    and midpoints, 0.5 (x1 + x2) in x and sqrt(h1 h2) in h.  Cells of the
    first round sample all nine pairs.  A cell that is split is sampled once
    more, on its 5x5 half-step grid: the abscissae x1, 0.5 (x1 + xm), xm,
    0.5 (xm + x2), x2 against the separations h1, sqrt(h1 hm), hm,
    sqrt(hm h2), h2.  Its own 3x3 samples fill the even indices, and
    ``member`` is asked for the two odd rows against all five separations
    and for the three even rows against the two odd separations: 16 pairs,
    5 + 16 profile points per split.  Child (a, b) takes g[2a:2a+3, 2b:2b+3]
    as its stencil, so every cell of a later round starts with its nine
    samples known; its midpoints are the same doubles it would compute
    itself.  ``member(x, h)`` takes abscissae of shape (n, 1, k) and
    separations of shape (1, m, k) and returns the (n, m, k) membership of
    the pairs (x, x + h), so the profile runs once per abscissa plus once
    per pair.  The cell axis is last so that numpy's inner loops run along
    it.

    ``evaluations`` counts stencil pairs, nine per live cell, not profile
    points: refinement decisions and the budget are the same as for a full
    3x3 sampling of every cell.  A round is sampled only if its pairs fit in
    ``budget_left``, nine per fresh cell and 36 per split; otherwise the mass
    it would have sampled counts as unresolved and the refinement stops.

    Returns (inside_mass, unresolved_mass, evaluations, rounds, exhausted);
    exhausted is True when the budget stopped the refinement, also before
    its first round.  Raises ValueError on a non-finite cell weight.
    """
    x1, x2, h1, h2 = cells
    ok = None                 # (3, 3, k) stencil samples, known after a split
    inside = 0.0
    unresolved = 0.0
    evals = 0
    rounds = 0
    while len(x1):
        with np.errstate(over="ignore", invalid="ignore"):
            w = (x2 - x1) * shell_weight(gamma, h1, h2)
        if not np.isfinite(w).all():
            raise ValueError(
                f"non-finite interior cell weight at gamma={gamma:g} for separations "
                f"down to {float(h1.min()):g}: the weight h^(gamma-1) overflows"
            )
        live = w > 0
        x1, x2, h1, h2, w = x1[live], x2[live], h1[live], h2[live], w[live]
        if not len(x1):
            break
        if ok is None:
            if evals + 9 * len(x1) > budget_left:
                return inside, unresolved + float(w.sum()), evals, rounds, True
            xs = np.stack([x1, 0.5 * (x1 + x2), x2])
            hs = np.stack([h1, np.sqrt(h1 * h2), h2])
            ok = member(xs[:, None], hs[None, :])
        else:
            ok = ok[:, :, live]
        evals += ok.size
        counts = ok.sum(axis=(0, 1))
        full = counts == 9
        rounds += 1
        if rounds <= min_rounds and len(x1) <= 40_000:
            # explore: split sampled-empty cells too, so thin slivers between
            # sample lines of the initial grid still get a second look
            mixed = ~full
        else:
            mixed = (counts > 0) & ~full
        inside += float(w[full].sum())

        sel = np.flatnonzero(mixed)
        mw = w[sel]
        total_mixed = float(mw.sum())
        if rounds > min_rounds and total_mixed <= target:
            unresolved += total_mixed
            break

        keep = mw > target / (2.0 * MAX_CELLS)
        if rounds > min_rounds:
            unresolved += float(mw[~keep].sum())
        else:
            unresolved += float(mw[~keep & (counts[sel] > 0)].sum())
        sel, mw = sel[keep], mw[keep]
        cutoff = MAX_CELLS // 4
        if len(sel) > cutoff:
            order = np.argsort(mw, kind="stable")[::-1]
            unresolved += float(mw[order[cutoff:]].sum())
            sel = sel[order[:cutoff]]
        if not len(sel):
            break
        if evals + 36 * len(sel) > budget_left:
            return inside, unresolved + float(w[sel].sum()), evals, rounds, True
        mx1, mx2, mh1, mh2 = x1[sel], x2[sel], h1[sel], h2[sel]
        xm = 0.5 * (mx1 + mx2)
        hm = np.sqrt(mh1 * mh2)
        xg = np.stack([mx1, 0.5 * (mx1 + xm), xm, 0.5 * (xm + mx2), mx2])
        hg = np.stack([mh1, np.sqrt(mh1 * hm), hm, np.sqrt(hm * mh2), mh2])
        g = np.empty((5, 5, len(sel)), dtype=bool)
        g[::2, ::2] = ok[:, :, sel]
        g[1::2] = member(xg[1::2, None], hg[None, :])
        g[::2, 1::2] = member(xg[::2, None], hg[None, 1::2])
        x1 = np.concatenate([mx1, xm, mx1, xm])
        x2 = np.concatenate([xm, mx2, xm, mx2])
        h1 = np.concatenate([mh1, mh1, hm, hm])
        h2 = np.concatenate([hm, hm, mh2, mh2])
        # stencil offsets (x, h) of the children, in the order just built
        quarters = ((0, 0), (1, 0), (0, 1), (1, 1))
        ok = np.concatenate([g[2 * a:2 * a + 3, 2 * b:2 * b + 3] for a, b in quarters], axis=2)
    return inside, unresolved, evals, rounds, False


def _initial_cells(profile, x_lo, x_hi, h_lo, h_hi, max_x_cells=96):
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
    if len(edges) > max_x_cells + 1:
        idx = np.unique(np.linspace(0, len(edges) - 1, max_x_cells + 1).astype(int))
        edges = edges[idx]

    n_shells = max(1, int(math.ceil(math.log2(h_hi / h_lo))))
    n_shells = min(n_shells, 1400)
    shells = h_lo * (h_hi / h_lo) ** (np.arange(n_shells + 1) / n_shells)
    shells[0], shells[-1] = h_lo, h_hi

    ex1 = np.repeat(edges[:-1], n_shells)
    ex2 = np.repeat(edges[1:], n_shells)
    sh1 = np.tile(shells[:-1], len(edges) - 1)
    sh2 = np.tile(shells[1:], len(edges) - 1)
    return ex1, ex2, sh1, sh2


def measure_line(
    profile: LineProfile,
    gamma: float,
    b: float,
    lam: float,
    *,
    h_window: Optional[tuple[float, float]] = None,
    pair_box: Optional[tuple[float, float]] = None,
    region: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    interface_points: Optional[int] = None,
    rel_tol: float = 5e-3,
    budget: int = 40_000_000,
) -> EngineEstimate:
    """Weighted measure of {|f(x)-f(y)| > lam |x-y|^(1+b)} on the line.

    ``h_window`` restricts to an annulus delta <= |x-y| <= R; ``pair_box``
    restricts both coordinates to an interval (plateau interactions are then
    out of scope and the cells cover the box); ``region`` is an extra
    elementwise predicate on pairs, called with broadcastable x and y
    arrays.  ``interface_points`` asserts that every member pair
    at small separation straddles one of that many interface points,
    replacing the generic Lipschitz cutoff (used by the self-similar cross
    terms, whose Lipschitz constants are astronomically large).

    ``budget`` caps the stencil-pair evaluations of the whole query: the
    preview, both interior passes and every probe pass draw on one counter,
    no pass samples a round that would overrun it, and a query that runs out
    raises ``BudgetExceededError`` carrying the partial estimate.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    beta = 1.0 + b
    diag: dict = {}
    lo, hi = profile.lo, profile.hi

    h_lo, h_hi = 0.0, math.inf
    if h_window is not None:
        h_lo, h_hi = h_window
        if h_lo < 0 or h_hi < h_lo:
            raise ValueError(f"invalid annulus {h_window}")
        if h_hi == h_lo:
            return EngineEstimate(0.0, 0.0, diagnostics={"empty_annulus": True})

    boxed = pair_box is not None
    box_lo, box_hi = pair_box if boxed else (-math.inf, math.inf)

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
        if boxed:
            ok &= (x >= box_lo) & (y <= box_hi)
        else:
            # plateau interactions are handled in closed form
            ok &= (x > lo) & (y < hi)
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
        cell_jumps = profile.jumps if boxed else [j for j in profile.jumps if lo < j[0] < hi]
        cut = rule(profile.lipschitz, *jump_structure(cell_jumps))
    cuts = [cut]
    if not boxed:
        edge_jumps = _edge_jump_sizes(profile)
        cuts.append(rule(profile.lipschitz, max(edge_jumps, default=0.0), len(edge_jumps)))
    for c in cuts:
        if c.kind == "divergent" and h_lo == 0.0:
            return EngineEstimate(math.inf, math.inf, diagnostics={"reason": c.reason})

    if boxed:
        h_hi = min(h_hi, box_hi - box_lo)
        cells_hi = h_hi
        x_lo, x_hi = max(lo - h_hi, box_lo), min(hi, box_hi)
    else:
        cells_hi = min(h_hi, profile.span)
        x_lo, x_hi = lo, hi

    evals = 0  # stencil-pair evaluations of the whole query
    exhausted = False

    def run_cells(cell_lo, cell_top, target):
        nonlocal evals, exhausted
        if cell_lo >= cell_top or x_lo >= x_hi:
            return 0.0, 0.0, 0
        cells = _initial_cells(profile, x_lo, x_hi, cell_lo, cell_top)
        inside, unresolved, spent, rounds, exhausted = _refine(
            member, cells, gamma, target, budget - evals
        )
        evals += spent
        return inside, unresolved, rounds

    # --- plateau interactions (closed form in h) ---------------------------
    tail_v = 0.0
    tail_e = 0.0
    if not boxed:
        try:
            tail_v, tail_e, parts = _plateau_interactions(
                profile, gamma, beta, lam, h_lo, h_hi
            )
            diag["tail_parts"] = parts
        except _Divergent as d:
            return EngineEstimate(math.inf, math.inf, diagnostics={"reason": d.reason})

    # --- probe path: confirm or refute near-diagonal divergence ------------
    if cut.kind == "probe" and h_lo == 0.0:
        probe_target = 5e-3 * max(tail_v, 1.0)
        d0 = max(profile.span, 1.0) / 64.0
        base_in, base_un, _ = run_cells(d0, cells_hi, probe_target)
        total = base_in + 0.5 * base_un + tail_v
        vals = [total]
        lo_edge = d0
        for _ in range(3):
            if exhausted:
                break
            nxt = lo_edge / 2.0
            inc_in, inc_un, _ = run_cells(nxt, lo_edge, probe_target)
            total += inc_in + 0.5 * inc_un
            vals.append(total)
            lo_edge = nxt
        increments = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
        diag["probe_values"] = vals
        diag["probe_increments"] = increments
        diag["reason"] = cut.reason
        if exhausted:
            # the mass below the last truncation is unknown, maybe infinite
            diag["probe"] = "budget exhausted"
            raise BudgetExceededError(
                f"evaluation budget {budget} exhausted during the divergence probe",
                EngineEstimate(
                    2.0 * total, math.inf, evaluations=evals, tail=2.0 * tail_v,
                    diagnostics=diag,
                ),
            )
        last = increments[-1]
        if last > 0.0 and last >= DIVERGENT_INCREMENT_RATIO * increments[0]:
            diag["probe"] = "confirmed divergent"
            return EngineEstimate(math.inf, math.inf, evaluations=evals, diagnostics=diag)
        diag["probe"] = "stabilized"
        err = max(last, 0.0) * 4.0 + 0.5 * base_un + tail_e
        return EngineEstimate(
            2.0 * vals[-1], 2.0 * err, evaluations=evals, tail=2.0 * tail_v, diagnostics=diag
        )

    # --- near cutoff --------------------------------------------------------
    rem = 0.0
    rounds = 0
    if h_lo > 0.0:
        cell_lo = h_lo
    elif cut.kind == "zero":
        cell_lo = cut.h_cut
    else:
        guess = max(rel_tol * max(tail_v, 1.0), 1e-12)
        pv_lo = max(cut.cut_for(guess), PRECISION_FLOOR)
        pv_in, pv_un, rounds = run_cells(pv_lo, cells_hi, 8.0 * guess)
        scale = pv_in + 0.5 * pv_un + tail_v
        diag["preview_value"] = scale
        target_rem = rel_tol * scale / 4.0
        cell_lo = cut.cut_for(max(target_rem, 1e-300))
        rem = cut.remainder(cell_lo)
    if cell_lo < PRECISION_FLOOR:
        cell_lo = PRECISION_FLOOR
        diag["near_floor_clamped"] = True
        rem = cut.remainder(cell_lo) if cut.kind == "bounded" else 0.0
    if rem < 1e-200:
        rem = 0.0

    # --- interior cells -----------------------------------------------------
    if exhausted:
        # the preview spent the budget: its cells give the partial estimate
        inside, unresolved, cell_lo, rem = pv_in, pv_un, pv_lo, cut.remainder(pv_lo)
    else:
        target1 = rel_tol * max(tail_v, 1.0) / 2.0
        inside, unresolved, rounds = run_cells(cell_lo, cells_hi, target1)
        scale = inside + 0.5 * unresolved + 0.5 * rem + tail_v
        target2 = rel_tol * scale / 2.0
        if not exhausted and unresolved > target2 and scale > 0:
            inside, unresolved, rounds = run_cells(cell_lo, cells_hi, target2)

    diag["h_cut"] = cell_lo
    diag["near_remainder"] = rem
    diag["rounds"] = rounds

    value = 2.0 * (inside + 0.5 * unresolved + 0.5 * rem + tail_v)
    error = 2.0 * (0.5 * unresolved + 0.5 * rem + tail_e)
    est = EngineEstimate(
        value=value,
        error=error,
        evaluations=evals,
        tail=2.0 * (tail_v + 0.5 * rem),
        diagnostics=diag,
    )
    if exhausted:
        raise BudgetExceededError(
            f"evaluation budget {budget} exhausted before reaching tolerance", est
        )
    return est
