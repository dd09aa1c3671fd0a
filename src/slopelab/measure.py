"""Public entry points for evaluating the weighted level-set measure.

``nu_measure`` integrates |x-y|^(gamma-N) over the superlevel set
{|u(x)-u(y)| / |x-y|^(1+b) > lambda}, choosing deterministic line quadrature
for one dimension, rotation-method slicing for two, and stratified Monte
Carlo as the fallback for any dimension.  Genuinely divergent queries return
a +inf sentinel with diagnostics rather than a number.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import TestFunction
from .params import Params
from .quadrature import BudgetExceededError, EngineEstimate, check_controls, measure_line

__all__ = [
    "LevelSetQuery",
    "MeasureEstimate",
    "quotient",
    "nu_measure",
    "BudgetExceededError",
]


@dataclass(frozen=True)
class LevelSetQuery:
    """One measure query.

    ``mc_samples`` is the Monte Carlo sample target, not a cap: the radial
    strata share it by weight, and each draws at least 64 samples
    (``mc_samples=1`` on ``tent`` at gamma = 1, lambda = 8 draws 384 over
    6 strata).
    """

    u: TestFunction
    params: Params
    lam: float
    annulus: Optional[tuple[float, float]] = None   # restrict to delta <= |x-y| <= R
    method: str = "auto"                            # auto | grid1d | rotation2d | montecarlo
    rel_tol: float = 5e-3
    budget: int = 40_000_000
    seed: int = 0
    mc_samples: int = 200_000

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        check_controls(self.rel_tol, self.budget)
        if not (isinstance(self.mc_samples, numbers.Integral) and self.mc_samples >= 1):
            raise ValueError(f"mc_samples must be an integer >= 1, got {self.mc_samples!r}")
        if self.annulus is not None:
            d, r = self.annulus
            if not 0 <= d <= r:
                raise ValueError(f"invalid annulus {self.annulus}")
        if self.u.dim != self.params.dim:
            raise ValueError(
                f"function dim {self.u.dim} != params dim {self.params.dim}"
            )


@dataclass
class MeasureEstimate:
    value: float
    error_bound: float
    method: str
    evaluations: int = 0
    tail_analytic: float = 0.0
    seed: Optional[int] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def infinite(self) -> bool:
        return math.isinf(self.value)


def quotient(u: TestFunction, b: float, x, y) -> float:
    """Difference quotient (u(x) - u(y)) / |x - y|^(1+b)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    dist = float(np.linalg.norm(xa - ya))
    if dist == 0.0:
        raise ValueError("the difference quotient is undefined at coincident points")
    if u.dim == 1:
        ux = float(u.eval(xa)[0])
        uy = float(u.eval(ya)[0])
    else:
        ux = float(u.eval(xa.reshape(1, -1))[0])
        uy = float(u.eval(ya.reshape(1, -1))[0])
    return (ux - uy) / dist ** (1.0 + b)


def _from_engine(est: EngineEstimate, method: str) -> MeasureEstimate:
    return MeasureEstimate(
        value=est.value,
        error_bound=est.error,
        method=method,
        evaluations=est.evaluations,
        tail_analytic=est.tail,
        diagnostics=est.diagnostics,
    )


def nu_measure(q: LevelSetQuery) -> MeasureEstimate:
    """Weighted measure of the superlevel set described by the query."""
    method = q.method
    if method == "auto":
        method = {1: "grid1d", 2: "rotation2d"}.get(q.params.dim, "montecarlo")

    if method == "grid1d":
        if q.params.dim != 1:
            raise ValueError("grid1d requires a one-dimensional function")
        est = measure_line(
            q.u.line_profile(),
            q.params.gamma,
            q.params.b,
            q.lam,
            h_window=q.annulus,
            rel_tol=q.rel_tol,
            budget=q.budget,
        )
        return _from_engine(est, "grid1d")

    if method == "rotation2d":
        from .rotation import measure_rotation2d

        if q.params.dim != 2:
            raise ValueError("rotation2d requires a two-dimensional function")
        return measure_rotation2d(q)

    if method == "montecarlo":
        from .montecarlo import measure_montecarlo

        return measure_montecarlo(q)

    raise ValueError(f"unknown method {method!r}")

