"""Adapter describing a one-dimensional integrand for the measure engine.

A profile is a function of one real variable that is constant outside a
bounded interval.  The engine only needs pointwise values plus the structural
metadata below (plateau values, Lipschitz constant of the continuous part,
jump locations and sizes) to pick rigorous near-diagonal cutoffs and analytic
far-field tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

Jump = Tuple[float, float]  # (location, |jump size|)


@dataclass(frozen=True)
class LineProfile:
    """A line function for the measure engine: f, its plateaus and its metadata.

    ``jumps`` lists every jump of f on [lo, hi] as (location, size), those
    at lo and hi against the plateaus included: the engine reads all of
    them from this declaration and does not search the profile for any.
    ``mirror`` is a point c with f(2c - x) = +-f(x) + const, or None: every
    superlevel set of |f(x) - f(y)| is then symmetric under
    (x, y) -> (2c - y, 2c - x), and c must be the centre of [lo, hi].
    """

    f: Callable[[np.ndarray], np.ndarray]
    lo: float                        # f is constant left of lo ...
    hi: float                        # ... and right of hi
    left: float                      # value on (-inf, lo]
    right: float                     # value on [hi, +inf)
    lipschitz: float                 # Lipschitz constant of the continuous part (inf if unknown)
    sup: float                       # sup |f|
    jumps: tuple[Jump, ...] = ()
    breakpoints: tuple[float, ...] = ()
    mirror: Optional[float] = None

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("profile interval is empty")
        # a transform rounds lo, hi and c by about an ulp each, so c is the centre to a few ulps
        slack = 4.0 * np.finfo(float).eps * (abs(self.lo) + abs(self.hi))
        if self.mirror is not None and not abs(self.lo + self.hi - 2.0 * self.mirror) <= slack:
            raise ValueError(
                f"mirror {self.mirror!r} is not the centre of [lo, hi] = [{self.lo!r}, {self.hi!r}]"
            )
        for loc, size in self.jumps:
            if not self.lo <= loc <= self.hi:
                raise ValueError(
                    f"jump ({loc!r}, {size!r}) lies outside [lo, hi] = [{self.lo!r}, {self.hi!r}]"
                )
            if not (size > 0 and math.isfinite(size)):
                raise ValueError(f"jump ({loc!r}, {size!r}) has a size that is not finite and > 0")

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def grid_points(self) -> np.ndarray:
        """Sorted structural abscissae: endpoints, declared breakpoints, jumps."""
        pts = {self.lo, self.hi}
        pts.update(self.breakpoints)
        pts.update(loc for loc, _ in self.jumps)
        return np.array(sorted(pts))


def jump_structure(jumps) -> tuple[float, int, float]:
    """(largest size, number, smallest separation) of (location, size) jumps."""
    locs = sorted(loc for loc, _ in jumps)
    gap = min((b - a for a, b in zip(locs, locs[1:])), default=math.inf)
    return max((sz for _, sz in jumps), default=0.0), len(jumps), gap
