"""Level-set measures of staircase functions on the unit box, at any depth.

The box-restricted measure A(m, lam) of generation m obeys an exact
decomposition: the two corner squares of side rho are rescaled copies whose
contributions equal A(m-1, s*lam) with s = 2 rho^(1 + gamma/p), and the rest
of the box is a cross term X(m, lam) whose mass concentrates geometrically at
macroscopic scales (every small-separation member pair must straddle one of
the two copy interfaces).  For p = 1 the similarity factor s equals 1
exactly, so A(m) = A(m0) + sum_{j>m0} X(j) with X(j) converging
geometrically; deep generations are therefore evaluated by computing the
first cross terms directly and extending the stabilized tail, with the
stabilization defect carried into the error bound.  Double precision alone
could never resolve those generations (the direct engine sees at most ~25).
"""

from __future__ import annotations

from .cantor import CantorSpec, staircase_function
from .quadrature import EngineEstimate, measure_line

__all__ = [
    "box_measure",
    "cross_term",
    "box_measure_ladder",
    "corner_rectangle_weight",
]

DIRECT_UP_TO = 4  # generations read directly before the recursion takes over (p = 1)
LADDER_STABLE_AFTER = 4  # cross terms computed for this many generations past m0


def box_measure(
    gamma: float,
    p: float,
    lam: float,
    m: int,
    rel_tol: float = 5e-3,
) -> EngineEstimate:
    """A(m, lam): measure of the staircase superlevel set inside [0,1]^2."""
    spec = CantorSpec(gamma=gamma, m=m)
    prof = staircase_function(spec).line_profile()
    return measure_line(prof, gamma, gamma / p, lam, pair_box=(0.0, 1.0), rel_tol=rel_tol)


def cross_term(
    gamma: float,
    p: float,
    lam: float,
    m: int,
    rel_tol: float = 5e-3,
) -> EngineEstimate:
    """X(m, lam): the box measure outside the two corner squares.

    Every member pair at small separation straddles one of the interfaces
    rho or 1 - rho (inside a corner square the pair is excluded, inside the
    central gap the staircase is flat), which gives the near-diagonal bound.
    """
    spec = CantorSpec(gamma=gamma, m=m)
    rho = spec.rho
    prof = staircase_function(spec).line_profile()

    def region(x, y):
        in_left = (x <= rho) & (y <= rho)
        in_right = (x >= 1.0 - rho) & (y >= 1.0 - rho)
        return ~(in_left | in_right)

    return measure_line(
        prof,
        gamma,
        gamma / p,
        lam,
        pair_box=(0.0, 1.0),
        region=region,
        interface_points=2,
        rel_tol=rel_tol,
    )


def box_measure_ladder(
    gamma: float,
    lam: float,
    m: int,
    m0: int = DIRECT_UP_TO,
    rel_tol: float = 5e-3,
) -> EngineEstimate:
    """A(m, lam) for p = 1 via the exact recursion A(j) = A(j-1) + X(j).

    Only p = 1 is supported: there the similarity factor is exactly 1, so all
    cross terms are queried at the same threshold.  For p > 1 the direct
    engine is no substitute: at gamma=-0.2, p=2 it reads A(1) 148 below
    the corner identity A(1, lam) = A(0, s lam) + X(1, lam), where the error
    bounds total 19.
    """
    if m <= m0:
        est = box_measure(gamma, 1.0, lam, m, rel_tol=rel_tol)
        return EngineEstimate(est.value, est.error, est.evaluations, diagnostics={"direct": True})

    base = box_measure(gamma, 1.0, lam, m0, rel_tol=rel_tol)
    value = base.value
    error = base.error
    evals = base.evaluations

    j_top = min(m, m0 + LADDER_STABLE_AFTER)
    xs = []
    for j in range(m0 + 1, j_top + 1):
        est = cross_term(gamma, 1.0, lam, j, rel_tol=rel_tol)
        xs.append(est)
        value += est.value
        error += est.error
        evals += est.evaluations

    diagnostics = {
        "direct": False,
        "m0": m0,
        "cross_values": [e.value for e in xs],
    }
    if m > j_top:
        last = xs[-1].value
        diffs = [abs(b.value - a.value) for a, b in zip(xs, xs[1:])]
        defect = max(diffs[-1] if diffs else 0.0, xs[-1].error)
        value += (m - j_top) * last
        error += (m - j_top) * (defect + xs[-1].error)
        diagnostics["extended_generations"] = m - j_top
        diagnostics["stabilization_defect"] = defect
    return EngineEstimate(value, error, evals, diagnostics=diagnostics)


def corner_rectangle_weight(gamma: float, rho: float) -> float:
    """Closed-form weight of the witness rectangle [0, rho^2] x [1-rho^2, 1]."""

    def w2(s):
        return s ** (gamma + 1.0) / (gamma * (gamma + 1.0))

    a, c, d = rho * rho, 1.0 - rho * rho, 1.0
    return w2(d) - w2(d - a) - w2(c) + w2(c - a)
