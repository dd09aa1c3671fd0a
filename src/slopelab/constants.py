"""Exact constants and closed forms used as ground truth by the rest of the lab.

Everything here is evaluated through the log-gamma function and exponentiated
once, so values stay accurate to ~1e-15 relative even for moderately large
``p`` and ``dim`` (no intermediate Gamma overflow).
"""

from __future__ import annotations

import math

__all__ = [
    "kappa",
    "sphere_area",
    "halfline_closed_form",
]


def _check_dim(dim: int) -> None:
    if not (isinstance(dim, (int,)) or float(dim).is_integer()) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim}")


def kappa(p: float, dim: int) -> float:
    """Average of |e . w|^p over the unit sphere S^{dim-1}, times its area.

    Closed form: 2 Gamma((p+1)/2) pi^((dim-1)/2) / Gamma((dim+p)/2).
    For dim == 1 the sphere is the two-point set {-1, +1}, so the value is
    exactly 2 for every p.
    """
    if not p >= 1:
        raise ValueError(f"integrability exponent must satisfy p >= 1, got {p}")
    _check_dim(dim)
    if dim == 1:
        return 2.0
    log_val = (
        math.log(2.0)
        + math.lgamma((p + 1.0) / 2.0)
        + 0.5 * (dim - 1) * math.log(math.pi)
        - math.lgamma((dim + p) / 2.0)
    )
    return math.exp(log_val)


def sphere_area(dim: int) -> float:
    """Surface area of S^{dim-1}: 2 pi^{dim/2} / Gamma(dim/2).

    By convention the zero-sphere carries counting measure, so
    ``sphere_area(1) == 2``; this is what makes the one-dimensional rotation
    method and kappa(p, 1) == 2 consistent.
    """
    _check_dim(dim)
    if dim == 1:
        return 2.0
    return math.exp(math.log(2.0) + 0.5 * dim * math.log(math.pi) - math.lgamma(dim / 2.0))


def halfline_closed_form(gamma: float, lam: float) -> float:
    """Exact weighted level-set measure for the unit step on the half line.

    Equals 2 / (|gamma + 1| * lambda) for every gamma != -1; at gamma == -1
    the measure is genuinely divergent and no closed form exists.  This is the
    primary quadrature oracle for the measure engine.
    """
    if gamma == -1:
        raise ValueError("gamma == -1 is excluded: the half-line measure diverges there")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return 2.0 / (abs(gamma + 1.0) * lam)
