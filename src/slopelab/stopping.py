"""Stopping-time interval decomposition for strongly negative weight exponents.

Given a nonnegative integrable f supported in [a, b] and gamma < -1, the
interval endpoints a_1 = a < a_2 < ... are chosen so that every interval
I_i = [a_i, a_{i+1}] satisfies |I_i|^(-(gamma+1)) * integral of f over I_i
= 1/2 exactly.  The defining map x -> (x - c)^(-(gamma+1)) * int_c^x f is
continuous and increases from 0 to infinity, so each endpoint is a bracketed
root; the construction covers the support after finitely many steps because
every interval that ends inside it carries a mass of at least
(b - a)^(gamma+1) / 2, so at most 2 ||f||_1 (b - a)^(-(gamma+1)) of them fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import gauss_legendre

__all__ = ["StoppingDecomposition", "stopping_intervals"]

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class StoppingDecomposition:
    """The endpoints, and per interval the residual |I|^(-(gamma+1)) * int_I f - 1/2."""

    gamma: float
    endpoints: tuple[float, ...]
    residuals: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.endpoints) - 1


def stopping_intervals(
    f,
    support: tuple[float, float],
    gamma: float,
    breakpoints: tuple[float, ...] = (),
) -> StoppingDecomposition:
    """Decompose supp f into calibrated intervals (gamma < -1, f >= 0).

    ``f`` is vectorized, numpy in and numpy out, like a catalog evaluator;
    it is integrated piecewise between the ``breakpoints`` by
    ``catalog.gauss_legendre``.
    """
    if not gamma < -1.0:
        raise ValueError(f"the stopping construction needs gamma < -1, got {gamma}")
    a, b = support
    if not b > a:
        raise ValueError("empty support interval")
    q_exp = -(gamma + 1.0)  # positive

    def mass(c, x):
        """int_c^x f; f vanishes beyond b."""
        x = min(x, b)
        cuts = [c, *sorted(p for p in breakpoints if c < p < x), x]
        return max(sum(gauss_legendre(f, lo, hi) for lo, hi in zip(cuts, cuts[1:])), 0.0)

    def least_length(c, rest):
        """(1/2 / rest)^(1/q): no interval from c, with mass ``rest`` to its right, is shorter."""
        try:
            return (0.5 / rest) ** (1.0 / q_exp)
        except OverflowError:
            raise ValueError(
                f"the interval from {c:g} is longer than the double range: "
                f"(1/2 / {rest:g})^(1/{q_exp:g}) overflows"
            ) from None

    total = mass(a, b)
    if total <= 0.0:
        raise ValueError("f must not be identically zero on its support")

    endpoints, residuals = [a], []
    # A full interval I (one ending before b) carries the mass 1/2 |I|^-q >=
    # 1/2 (b - a)^-q, so at most 2 total (b - a)^q of them fit.  The count is
    # taken in logarithms, so that it neither divides by zero nor overflows;
    # beyond e^709 steps the cap is past reach anyway.
    log_full = math.log(2.0 * total) + q_exp * math.log(b - a)
    max_steps = int(math.exp(min(log_full, 709.0))) + 2

    for _ in range(max_steps):
        c = endpoints[-1]
        rest = mass(c, b)
        if rest <= 0.0:
            raise ValueError(
                f"no mass left on [{c:g}, {b:g}]: support metadata inconsistent with f"
            )
        # past b the map is (x - c)^q_exp * rest, which exceeds 1/2 at hi
        lo, hi = c, max(b, c + least_length(c, rest)) + 1.0
        at_hi = (hi - c) ** q_exp * rest
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            value = (mid - c) ** q_exp * mass(c, mid)
            if value < 0.5:
                lo = mid
            else:
                hi, at_hi = mid, value
        endpoints.append(hi)
        residuals.append(at_hi - 0.5)
        if hi >= b:
            break
    else:
        raise RuntimeError("stopping construction failed to cover the support")

    worst = max(abs(r) for r in residuals)
    if worst > RESIDUAL_TOL:
        raise RuntimeError(f"calibration residual {worst:.2e} above {RESIDUAL_TOL:g}")
    return StoppingDecomposition(
        gamma=gamma, endpoints=tuple(endpoints), residuals=tuple(residuals)
    )
