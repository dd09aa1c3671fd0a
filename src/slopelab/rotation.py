"""Method-of-rotation slicing: a planar measure as an integral of line measures.

For a two-dimensional function the weighted level-set measure equals the
integral over directions and offsets of the one-dimensional measure of the
sliced function.  Every 2D catalog entry is radial: its slice depends only on
|offset|, never on the direction, so the direction integral over [0, pi) and
the offsets s and -s collapse into one integral over s in [0, R] with weight
2 pi.  ``slicer(theta, offset)`` keeps its direction argument; it is unused,
and this module passes 0.  Each slice is handed to the line engine as its own
profile, so slice-level metadata (chord jumps for indicators, the parent's
Lipschitz constant for smooth entries) keeps the near-diagonal analysis
rigorous, and a slice's mirror at the chord's midpoint lets the engine refine
half of its interior pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import LevelSetQuery, MeasureEstimate
from .quadrature import BudgetExceededError, EngineEstimate, measure_line

__all__ = ["measure_rotation2d"]

# Offset nodes on [0, R]; the error rule compares against every other node.
N_OFFSETS = 33


def _enclosing_radius(u) -> float:
    return max(
        math.hypot(x, y)
        for x in u.support[0]
        for y in u.support[1]
    )


def measure_rotation2d(q: LevelSetQuery) -> MeasureEstimate:
    """2 pi times the trapezoid integral of slice measures over offsets in [0, R].

    Requires a radial entry: ``q.u.slicer(theta, s)`` may depend only on |s|.
    The slices draw on one evaluation budget, ``q.budget``: each gets what
    the earlier ones left, and a slice that exhausts it raises
    ``BudgetExceededError`` whose partial is the integral over the slices so
    far (later offsets count as zero) with an infinite error.
    """
    if q.params.dim != 2:
        raise ValueError("rotation slicing requires dim == 2")
    if q.u.slicer is None:
        raise ValueError(f"{q.u.id} does not provide slices for the rotation method")

    offsets = np.linspace(0.0, _enclosing_radius(q.u), N_OFFSETS)

    def integral(vals, off):
        return 2.0 * math.pi * float(np.trapezoid(vals, off))

    values = np.zeros(N_OFFSETS)
    errors = np.zeros(N_OFFSETS)
    tails = np.zeros(N_OFFSETS)
    evals = 0
    for j, s in enumerate(offsets):
        prof = q.u.slicer(0.0, float(s))
        if prof is None:
            continue
        try:
            est = measure_line(
                prof,
                q.params.gamma,
                q.params.b,
                q.lam,
                h_window=q.annulus,
                rel_tol=q.rel_tol * 2.0,
                budget=q.budget - evals,
            )
        except BudgetExceededError as exc:
            values[j] = exc.partial.value
            partial = EngineEstimate(
                integral(values, offsets),
                math.inf,
                evaluations=evals + exc.partial.evaluations,
                diagnostics={"slices_done": j, "slices": N_OFFSETS},
            )
            raise BudgetExceededError(
                f"evaluation budget {q.budget} exhausted at rotation slice {j + 1} "
                f"of {N_OFFSETS}",
                partial,
            ) from exc
        if math.isinf(est.value):
            return MeasureEstimate(
                value=math.inf,
                error_bound=math.inf,
                method="rotation2d",
                diagnostics=dict(est.diagnostics),  # the reason; max_slope if the slopes decided
            )
        values[j] = est.value
        errors[j] = est.error
        tails[j] = est.tail
        evals += est.evaluations

    value = integral(values, offsets)
    quad_err = abs(value - integral(values[::2], offsets[::2]))

    return MeasureEstimate(
        value=value,
        error_bound=quad_err + integral(errors, offsets),
        method="rotation2d",
        evaluations=evals,
        tail_analytic=integral(tails, offsets),
        diagnostics={"offset_quadrature_error": quad_err},
    )
