"""Stopping-time interval decomposition for strongly negative weight exponents.

Given a nonnegative integrable f supported in [a, b] and gamma < -1, the
interval endpoints a_1 = a < a_2 < ... are chosen so that every interval
I_i = [a_i, a_{i+1}] satisfies |I_i|^(-(gamma+1)) * integral of f over I_i
= 1/2 exactly.  The defining map x -> (x - c)^(-(gamma+1)) * int_c^x f is
continuous and increases from 0 to infinity, so each endpoint is a bracketed
root; the construction covers the support after finitely many steps because
interval lengths are bounded below by (2 ||f||_1)^(1/(gamma+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StoppingDecomposition", "stopping_intervals"]

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class StoppingDecomposition:
    gamma: float
    endpoints: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.endpoints) - 1

    def residuals(self, f, points=()) -> list[float]:
        """|I|^(-(gamma+1)) * int_I f - 1/2 for each interval."""
        from scipy.integrate import quad

        q = -(self.gamma + 1.0)
        out = []
        for a, b in zip(self.endpoints, self.endpoints[1:]):
            mass, _ = quad(f, a, b, limit=400, points=[p for p in points if a < p < b] or None)
            out.append((b - a) ** q * mass - 0.5)
        return out


def stopping_intervals(
    f,
    support: tuple[float, float],
    gamma: float,
    breakpoints: tuple[float, ...] = (),
) -> StoppingDecomposition:
    """Decompose supp f into calibrated intervals (gamma < -1, f >= 0)."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    if not gamma < -1.0:
        raise ValueError(f"the stopping construction needs gamma < -1, got {gamma}")
    a, b = support
    if not b > a:
        raise ValueError("empty support interval")
    q_exp = -(gamma + 1.0)  # positive

    total, _ = quad(f, a, b, limit=400, points=list(breakpoints) or None)
    if total <= 0.0:
        raise ValueError("f must not be identically zero on its support")

    def mass(c, x):
        if x <= c:
            return 0.0
        pts = [p for p in breakpoints if c < p < x] or None
        val, _ = quad(f, c, x, limit=400, points=pts)
        return max(val, 0.0)

    endpoints = [a]
    # minimal possible interval length (paper's termination bound)
    min_len = (2.0 * total) ** (1.0 / (gamma + 1.0))
    max_steps = int(math.ceil((b - a) / min_len)) + 2

    for _ in range(max_steps):
        c = endpoints[-1]
        if c >= b:
            break
        rest = mass(c, b)
        if rest <= 0.0:
            raise ValueError(
                f"no mass left on [{c:g}, {b:g}]: support metadata inconsistent with f"
            )

        def g(x, _c=c):
            return (x - _c) ** q_exp * mass(_c, x) - 0.5

        hi = max(b, c + (0.5 / rest) ** (1.0 / q_exp)) + 1.0
        while g(hi) < 0.0:
            hi *= 2.0
        lo = c + 1e-13 * max(1.0, abs(c))
        while g(lo) > 0.0:
            lo = c + (lo - c) / 8.0
        root = brentq(g, lo, hi, xtol=1e-15, rtol=8.0 * np.finfo(float).eps, maxiter=300)
        endpoints.append(float(root))
        if root >= b:
            break
    else:
        raise RuntimeError("stopping construction failed to cover the support")

    dec = StoppingDecomposition(gamma=gamma, endpoints=tuple(endpoints))
    worst = max(abs(r) for r in dec.residuals(f, points=breakpoints))
    if worst > RESIDUAL_TOL:
        raise RuntimeError(f"calibration residual {worst:.2e} above {RESIDUAL_TOL:g}")
    return dec
