"""Level-set measures of staircase functions on the unit box, at any depth.

The box-restricted measure A(m, lam) of generation m obeys an exact corner
identity: the two corner squares of side rho are rescaled copies whose
contributions equal A(m-1, s*lam) with s = 2 rho^(1 + gamma/p), and the rest
of the box is a cross term X(m, lam) whose mass concentrates geometrically at
macroscopic scales (every small-separation member pair must straddle one of
the two copy interfaces).  ``box_measure_ladder`` unrolls the identity from
generation 0, for every p.  For p = 1 the factor s equals 1 exactly, so
A(m) = A(0) + sum_{j<=m} X(j) with X(j) converging geometrically; deep
generations compute the first cross terms and extend the stabilized tail,
with the stabilization defect carried into the error bound.  Double
precision alone could never resolve those generations (the direct engine
sees at most ~25).  The unit box is the staircase's support, so every
measure here is an interior ``measure_line`` query.
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

LADDER_STABLE_AFTER = 8  # cross terms computed past m0 before the p = 1 tail extends


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
    return measure_line(prof, gamma, gamma / p, lam, interior=True, rel_tol=rel_tol)


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
        interior=True,
        region=region,
        interface_points=2,
        rel_tol=rel_tol,
    )


def box_measure_ladder(
    gamma: float,
    lam: float,
    m: int,
    m0: int = 0,
    rel_tol: float = 5e-3,
    p: float = 1.0,
) -> EngineEstimate:
    """A(m, lam) unrolled from A(m0) by the corner identity.

    Returns A(m0, s^(m-m0) lam) + sum_{j=m0+1..m} X(j, s^(m-j) lam).  The
    partial sums after generations m0..m are kept in ``diagnostics`` as
    (value, error) pairs; at p = 1, where s = 1, the one after generation k
    is A(k, lam).  Only at p = 1 do the cross terms stop
    ``LADDER_STABLE_AFTER`` generations past m0, with the stabilized tail
    extended beyond.
    """
    if not 0 <= m0 <= m:
        raise ValueError(f"the ladder needs 0 <= m0 <= m, got m0={m0}, m={m}")
    s = 2.0 ** (gamma * (1.0 - 1.0 / p) / (1.0 + gamma))
    base = box_measure(gamma, p, s ** (m - m0) * lam, m0, rel_tol=rel_tol)
    value = base.value
    error = base.error
    evals = base.evaluations
    partial_sums = [(value, error)]

    j_top = min(m, m0 + LADDER_STABLE_AFTER) if s == 1.0 else m
    xs = []
    for j in range(m0 + 1, j_top + 1):
        est = cross_term(gamma, p, s ** (m - j) * lam, j, rel_tol=rel_tol)
        xs.append(est)
        value += est.value
        error += est.error
        evals += est.evaluations
        partial_sums.append((value, error))

    diagnostics = {"m0": m0, "cross_values": [e.value for e in xs]}
    if m > j_top:
        last = xs[-1]
        defect = max(abs(last.value - xs[-2].value), last.error)
        partial_sums += [
            (value + k * last.value, error + k * (defect + last.error))
            for k in range(1, m - j_top + 1)
        ]
        value, error = partial_sums[-1]
        diagnostics["extended_generations"] = m - j_top
        diagnostics["stabilization_defect"] = defect
    diagnostics["partial_sums"] = partial_sums
    return EngineEstimate(value, error, evals, diagnostics=diagnostics)


def corner_rectangle_weight(gamma: float, rho: float) -> float:
    """Closed-form weight of the witness rectangle [0, rho^2] x [1-rho^2, 1]."""

    def w2(s):
        return s ** (gamma + 1.0) / (gamma * (gamma + 1.0))

    a, c, d = rho * rho, 1.0 - rho * rho, 1.0
    return w2(d) - w2(d - a) - w2(c) + w2(c - a)
