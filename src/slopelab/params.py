"""The regime triple (dimension, integrability p, weight exponent gamma).

The quotient exponent b = gamma / p is always derived, never set directly,
so b * p == gamma holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Params:
    """Regime triple; ``b`` is the derived quotient exponent gamma / p."""

    dim: int
    p: float
    gamma: float
    b: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")
        if not (self.p >= 1 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite with p >= 1, got {self.p}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "b", self.gamma / self.p)
