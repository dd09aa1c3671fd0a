"""The library of test functions fed to the level-set functionals.

Every entry carries a vectorized evaluator, a gradient where one exists,
support data, and exact or quadrature-verified gradient norms.  All smooth
transitions (bump plateaus, cutoffs, mollified collars) are built from one
C-infinity step primitive with closed-form derivative, so gradients can be
checked against finite differences without interpolation error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .constants import sphere_area
from .profiles import LineProfile

__all__ = [
    "TestFunction",
    "make_standard",
    "mollified_indicator",
    "get",
    "dilate",
    "negate",
    "reflect",
    "smoothstep",
    "smoothstep_deriv",
    "SMOOTHSTEP_PEAK",
    "gauss_legendre",
    "REGISTRY",
]


# ---------------------------------------------------------------------------
# C-infinity step primitive
# ---------------------------------------------------------------------------

def smoothstep(s):
    """Monotone C-infinity transition: exactly 0 for s <= 0, 1 for s >= 1.

    On (0, 1) it is a / (a + b) with a = exp(-1/s), b = exp(-1/(1-s)).
    NaN entries come back NaN.
    """
    s = np.asarray(s, dtype=float)
    out = np.full_like(s, np.nan)
    out[s <= 0.0] = 0.0
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    with np.errstate(over="ignore"):  # -1/s overflows to -inf for subnormal s
        a = np.exp(-1.0 / sm)
        b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


def smoothstep_deriv(s):
    """Exact derivative of :func:`smoothstep`; a symmetric bump on (0, 1).

    NaN entries come back NaN.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[np.isnan(s)] = np.nan
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    with np.errstate(over="ignore"):  # -1/s overflows to -inf for subnormal s
        a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    # a is 0 below s ~ 1/745, and sm**2 underflows to 0 below s ~ 1.5e-162
    da = np.divide(a, sm**2, out=np.zeros_like(a), where=a > 0)
    db = b / (1.0 - sm) ** 2
    out[mid] = (da * b + a * db) / (a + b) ** 2
    return out


SMOOTHSTEP_PEAK = 2.0  # max of smoothstep_deriv, attained at s = 1/2


@lru_cache(maxsize=None)
def _unit_rule():
    """Nodes and weights on [0, 1]: 32-point Gauss-Legendre on 16 uniform panels.

    The first panel is cut at 2^-1, ..., 2^-49 of its width, so the rule
    also resolves an r^p branch at 0.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.concatenate(([0.0], 2.0 ** np.arange(-49.0, 1.0), np.arange(2.0, 17.0))) / 16.0
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def gauss_legendre(f, lo, hi) -> float:
    """The integral of the vectorized ``f`` over [lo, hi], graded toward ``lo``.

    The gradient norms integrate |u'|^p over a radial collar or a staircase
    step.  Their integrands are smooth inside, flat where a C-infinity
    transition ends, and behave like r^p at a radial centre, where a
    non-integer p leaves a branch point; the geometric panels at ``lo``
    resolve it.  Against mpmath the norms agree to a few ulps.
    """
    t, w = _unit_rule()
    width = hi - lo
    return float(width * np.dot(w, f(lo + width * t)))


# ---------------------------------------------------------------------------
# Catalog entry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A catalog entry: evaluators plus verified metadata.

    ``grad_bv`` is the total-variation mass of the gradient, defined for
    Sobolev and indicator-type entries alike.  ``grad_lp`` maps p to the L^p
    norm of the gradient where finite.  ``breakpoints`` lists the points
    where the entry is not smooth, the kinks of its gradient among them, so
    derivative checks can avoid them.  ``mirror`` is a point c of a line
    entry with u(2c - x) = +-u(x) + const, or None: the line engine then
    refines half of the interior pairs.  Two facts are derived, not stored:
    ``grad_l1`` is ``grad_bv`` where a gradient exists and absent otherwise
    (the two coincide on W^{1,1}), and ``compact_support`` holds when both
    plateaus are 0.  Every radial entry, in every dim, comes from one
    constructor, ``_radial``; the line transforms (``dilate``, ``shift``,
    ``reflect``, ``scale_values``, ``negate``) are one affine map, ``_affine``.
    """

    id: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]]
    support: tuple[tuple[float, float], ...]
    sup_norm: float
    plateau_left: float = 0.0
    plateau_right: float = 0.0
    grad_bv: Optional[float] = None
    grad_lp: Optional[Callable[[float], float]] = None
    lip: Optional[float] = None
    jumps: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()
    mirror: Optional[float] = None
    # slicer(theta, offset): the line profile of a radial entry of dim >= 2 on
    # its chord at that offset from the centre, or None off the support.  A
    # chord depends on neither the direction nor the dim: theta is unused
    # (rotation2d passes 0), and Monte Carlo reads its gamma = 0 slope verdict
    # from slicer(0, 0) in every dim.  A chord is even, so its mirror is 0.
    slicer: Optional[Callable[[float, float], Optional[LineProfile]]] = None
    meta: tuple = ()

    @property
    def compact_support(self) -> bool:
        return self.plateau_left == 0.0 and self.plateau_right == 0.0

    @property
    def grad_l1(self) -> Optional[float]:
        return self.grad_bv if self.grad is not None else None

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    def line_profile(self) -> LineProfile:
        if self.dim != 1:
            raise ValueError(f"{self.id} is {self.dim}-dimensional, not a line function")
        lo, hi = self.support[0]
        return LineProfile(
            f=self.eval,
            lo=lo,
            hi=hi,
            left=self.plateau_left,
            right=self.plateau_right,
            lipschitz=self.lip if self.lip is not None else math.inf,
            sup=self.sup_norm,
            jumps=self.jumps,
            breakpoints=self.breakpoints,
            mirror=self.mirror,
        )

    def descriptor(self) -> dict:
        """JSON-ready summary (id, dim, norms, support)."""
        return {
            "id": self.id,
            "dim": self.dim,
            "support": [list(box) for box in self.support],
            "compact_support": self.compact_support,
            "sup_norm": self.sup_norm,
            "grad_l1": self.grad_l1,
            "grad_bv": self.grad_bv,
            "lip": self.lip,
            "plateaus": [self.plateau_left, self.plateau_right],
        }


# ---------------------------------------------------------------------------
# Standard entries
# ---------------------------------------------------------------------------

def _tent_eval(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(0.0, np.minimum(x, 1.0 - x))


def _tent_grad(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[(x > 0) & (x < 0.5)] = 1.0
    out[(x > 0.5) & (x < 1)] = -1.0
    return out


def _make_tent() -> TestFunction:
    return TestFunction(
        id="tent",
        dim=1,
        eval=_tent_eval,
        grad=_tent_grad,
        support=((0.0, 1.0),),
        sup_norm=0.5,
        grad_bv=1.0,
        grad_lp=lambda p: 1.0,
        lip=1.0,
        breakpoints=(0.0, 0.5, 1.0),
        mirror=0.5,
    )


def _make_linear_ramp(c: float) -> TestFunction:
    if not 0 < c < math.inf:
        raise ValueError(f"linear_ramp slope must be finite and positive, got {c}")
    return _affine(_make_tent(), a=c, id=f"linear_ramp({c:g})")


def _radial(ident, dim, profile, deriv, radius, *, sup, lip, flat_to=0.0, jump=0.0) -> TestFunction:
    """The radial entry u(x) = profile(|x|^2) on R^dim, for every dim >= 1.

    u is nonincreasing in |x|, equal to ``sup`` on |x| <= flat_to and 0 from
    ``radius`` on; the profile itself gives that 0, at every squared radius,
    the sum of squares over every coordinate (so an entry that needs no
    square root takes none).  ``deriv(r)`` is du/d|x| inside the ball.  From
    these come the gradient deriv(|x|) x/|x|, the chord slices, the line
    entry (the chord through the centre) and the gradient norms, radial
    integrals with weight r^(dim-1) over the collar [flat_to, radius].  A
    step (flat_to = radius) drops by ``jump`` = sup at its radius: it has no
    gradient, its variation adds jump times the area of that sphere, and the
    line entry and every slice declare the jump at the ends of their chord.
    """
    dim = _positive_dim(dim)
    area = sphere_area(dim)
    centre = () if jump else (0.0,)  # the peak of every chord; a step is flat across it

    def chord(o2, w):
        """The profile along the chord of half-length w at squared offset o2."""
        if jump:  # |t| <= w: o2 + t^2 <= radius^2 would round across the jump
            return lambda t: sup * (np.abs(t) <= w)
        return lambda t: profile(o2 + np.square(t, dtype=float))

    def points(x):
        """(rows of coordinates, their squared norms); a line takes any shape."""
        x = np.asarray(x, dtype=float)
        if dim == 1:
            return x, x * x
        x = np.atleast_2d(x)
        r2 = x[:, 0] ** 2  # column by column: a reduction along rows of a few columns is far slower
        for k in range(1, dim):
            r2 += x[:, k] ** 2
        return x, r2

    def gr(x):
        x, r2 = points(x)
        r = np.sqrt(r2)
        out = np.zeros_like(x)
        out[np.isnan(r)] = np.nan
        inside = (r > 0.0) & (r < radius)
        ri = r[inside]
        # transposed, the points come last: one broadcast serves every dim
        out[inside] = (deriv(ri) * (x[inside].T / ri)).T
        return out

    def collar(p):
        return gauss_legendre(lambda r: np.abs(deriv(r)) ** p * r ** (dim - 1), flat_to, radius)

    def slicer(theta, offset):
        if abs(offset) >= radius:
            return None
        o2 = offset * offset
        w = math.sqrt(radius * radius - o2)
        f = chord(o2, w)
        return LineProfile(
            f=f, lo=-w, hi=w, left=0.0, right=0.0, lipschitz=lip, sup=float(f(0.0)),
            jumps=((-w, jump), (w, jump)) if jump else (), breakpoints=(-w, *centre, w), mirror=0.0,
        )

    line = dim == 1
    return TestFunction(
        id=ident,
        dim=dim,
        eval=chord(0.0, radius) if line else (lambda x: profile(points(x)[1])),
        grad=None if jump else gr,
        support=((-radius, radius),) * dim,
        sup_norm=sup,
        # a monotone line profile: TV = 2 sup
        grad_bv=2.0 * sup if line else float(area * (collar(1.0) + jump * radius ** (dim - 1))),
        grad_lp=None if jump else (lambda p: float((area * collar(p)) ** (1.0 / p))),
        lip=lip,
        jumps=((-radius, jump), (radius, jump)) if line and jump else (),
        # 0.0 - flat_to is +0.0 when there is no plateau
        breakpoints=tuple(sorted({-radius, 0.0 - flat_to, *centre, flat_to, radius})) if line else (),
        mirror=0.0 if line else None,
        slicer=None if line else slicer,
    )


def _bump_profile(r2):
    # exp(-1/(1 - r2)) inside the unit ball; the floor sends r2 >= 1 to exp(-1e300) = 0
    return np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300))


def _bump_deriv(r):
    d = 1.0 - r * r
    return -2.0 * r / d**2 * np.exp(-1.0 / d)


def _bump_lip() -> float:
    """max |u'| of the bump: |u'(r)| = 2r (1 - r^2)^-2 exp(-1/(1 - r^2)) peaks where 3r^4 = 1.

    near_diagonal reads the Lipschitz constant as an upper bound.  The peak
    evaluated in floating point, here or by the gradient, lies within a few
    ulps of the true maximum, so the value is rounded up by four ulps.
    """
    r = 3.0**-0.25
    d = 1.0 - r * r
    lip = 2.0 * r / d**2 * math.exp(-1.0 / d)
    for _ in range(4):
        lip = math.nextafter(lip, math.inf)
    return lip


def _make_smooth_bump(dim: int) -> TestFunction:
    return _radial(
        "smooth_bump", dim, _bump_profile, _bump_deriv, 1.0,
        sup=math.exp(-1.0), lip=_bump_lip(),
    )


def _make_halfline_step() -> TestFunction:
    def ev(x):
        x = np.asarray(x, dtype=float)
        return (x >= 0).astype(float)

    return TestFunction(
        id="halfline_step",
        dim=1,
        eval=ev,
        grad=None,
        support=((0.0, 0.0),),  # the gradient (a point mass) lives at 0
        sup_norm=1.0,
        plateau_right=1.0,
        grad_bv=1.0,
        lip=0.0,
        jumps=((0.0, 1.0),),
        breakpoints=(0.0,),
    )


def _make_interval_indicator(length: float) -> TestFunction:
    if not 0 < length < math.inf:
        raise ValueError(f"interval length must be finite and positive, got {length}")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return ((x >= 0) & (x <= length)).astype(float)

    return TestFunction(
        id=f"interval_indicator({length:g})",
        dim=1,
        eval=ev,
        grad=None,
        support=((0.0, length),),
        sup_norm=1.0,
        grad_bv=2.0,
        lip=0.0,
        jumps=((0.0, 1.0), (length, 1.0)),
        breakpoints=(0.0, length),
        mirror=0.5 * length,
    )


def _make_ball_indicator(radius: float, dim: int) -> TestFunction:
    if not 0 < radius < math.inf:
        raise ValueError(f"ball radius must be finite and positive, got {radius}")
    rr = radius * radius
    return _radial(
        f"ball_indicator({radius:g})", dim, lambda r2: (r2 <= rr).astype(float), np.zeros_like, radius,
        sup=1.0, lip=0.0, flat_to=radius, jump=1.0,
    )


def mollified_indicator(m: int, dim: int = 1) -> TestFunction:
    """Ball indicator convolved with a mass-2 mollifier at scale 2^-m.

    The plateau value is 2 (the mollifier integrates to 2, an intentionally
    unusual normalization kept from the construction this mirrors), attained
    on |x| <= 1 - 2^-m; the function vanishes for |x| >= 1 + 2^-m, with a
    smooth monotone radial transition across the collar of width 2^(1-m).
    """
    if not (m >= 1 and float(m).is_integer()):  # also rejects nan and inf
        raise ValueError(f"mollification level must be a positive integer, got {m}")
    m = int(m)
    eps = 2.0 ** (-m)
    width = 2.0 * eps
    outer = 1.0 + eps
    return _radial(
        f"mollified_indicator({m})", dim,
        # 2 * smoothstep((outer - r) / width): 2 inside, 0 outside the collar
        lambda r2: 2.0 * smoothstep((outer - np.sqrt(r2)) / width),
        lambda r: -2.0 * smoothstep_deriv((outer - r) / width) / width,
        outer, sup=2.0, lip=2.0 * SMOOTHSTEP_PEAK / width, flat_to=1.0 - eps,
    )


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _affine(tf: TestFunction, t: float = 1.0, c: float = 0.0, a: float = 1.0, *, id: str) -> TestFunction:
    """Return x -> a * u((x - c) / t) (dim 1), with every field mapped here.

    A point x of u moves to t x + c; for t < 0 the support's ends and the
    plateaus trade places.  Values scale by a, the sup norm and the variation
    by |a|, the Lipschitz constant by |a| / |t|, the L^p norm of the gradient
    by |a| |t|^(1/p - 1), and a jump scaled to 0 (by a = 0, or by underflow)
    is dropped.  A mirror point moves as a point does, to c + t c_old.  A
    step the defaults leave is exact (x - 0.0, division by 1, product with
    1), as is t = -1, so a transform rounds only what it changes.
    """
    if tf.dim != 1:
        raise ValueError(f"{id}: the transforms act on one-dimensional entries, not dim {tf.dim}")
    lead = 0.0 - c  # -c, but +0.0 at c = 0, where x * t - lead is x * t exactly, also at -0.0
    gain, stretch = abs(a), abs(t)

    def inner(x):
        return (np.asarray(x, dtype=float) - c) / t

    def place(x):
        return x * t - lead

    lo, hi = map(place, tf.support[0])
    left, right = a * tf.plateau_left, a * tf.plateau_right
    if t < 0:
        lo, hi, left, right = hi, lo, right, left
    return replace(
        tf,
        id=id,
        eval=lambda x: a * tf.eval(inner(x)),
        grad=(None if tf.grad is None else (lambda x: a * tf.grad(inner(x)) / t)),
        support=((lo, hi),),
        sup_norm=gain * tf.sup_norm,
        plateau_left=left,
        plateau_right=right,
        grad_bv=(None if tf.grad_bv is None else gain * tf.grad_bv),
        grad_lp=(None if tf.grad_lp is None else (lambda p: gain * tf.grad_lp(p) * stretch ** (1.0 / p - 1.0))),
        lip=(None if tf.lip is None else gain * tf.lip / stretch),
        jumps=tuple((place(loc), gain * size) for loc, size in tf.jumps if gain * size > 0),
        breakpoints=tuple(map(place, tf.breakpoints)),
        mirror=None if tf.mirror is None else place(tf.mirror),
    )


def dilate(tf: TestFunction, t: float) -> TestFunction:
    """Return x -> u(x / t) (dim 1, t > 0)."""
    if not t > 0:
        raise ValueError(f"dilation factor must be positive, got {t}")
    return _affine(tf, t=t, id=f"{tf.id}~dilate({t:g})")


def shift(tf: TestFunction, c: float) -> TestFunction:
    """Return x -> u(x - c) (dim 1)."""
    return _affine(tf, c=c, id=f"{tf.id}~shift({c:g})")


def scale_values(tf: TestFunction, c: float) -> TestFunction:
    """Return x -> c * u(x) (dim 1)."""
    return _affine(tf, a=c, id=f"{tf.id}~scale({c:g})")


def negate(tf: TestFunction) -> TestFunction:
    return scale_values(tf, -1.0)


def reflect(tf: TestFunction) -> TestFunction:
    """Return x -> u(-x) (dim 1)."""
    return _affine(tf, t=-1.0, id=f"{tf.id}~reflect")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# name -> (builder(argument, dim), the argument of a bare name, radial): a
# line entry takes dim 1 only, a radial one, built by _radial, any positive
# integer dim
REGISTRY = {
    "tent": (lambda _, dim: _make_tent(), None, False),
    "smooth_bump": (lambda _, dim: _make_smooth_bump(dim), None, True),
    "halfline_step": (lambda _, dim: _make_halfline_step(), None, False),
    "interval_indicator": (lambda length, dim: _make_interval_indicator(length), 1.0, False),
    "linear_ramp": (lambda c, dim: _make_linear_ramp(c), 1.0, False),
    "ball_indicator": (_make_ball_indicator, 1.0, True),
    "mollified_indicator": (mollified_indicator, 3, True),
}


def _positive_dim(dim) -> int:
    # bool is an int to Python: True would pass as dim 1
    if isinstance(dim, bool) or not (isinstance(dim, numbers.Real) and dim >= 1 and float(dim).is_integer()):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    return int(dim)


def _parse_id(ident: str) -> tuple[str, Optional[float]]:
    ident = ident.strip()
    if "(" in ident:
        if not ident.endswith(")"):
            raise ValueError(f"malformed catalog id: {ident!r}")
        name, arg = ident[:-1].split("(", 1)
        return name.strip(), float(arg)
    return ident, None


def make_standard(ident: str, dim: int = 1) -> TestFunction:
    """Build a catalog entry from its string id, ``name`` or ``name(value)``.

    A bare name takes the default of ``REGISTRY``: interval_indicator(1),
    linear_ramp(1), ball_indicator(1), mollified_indicator(3).  A line entry
    takes dim 1 only; the radial ones (smooth_bump, ball_indicator,
    mollified_indicator) any positive integer dim.
    """
    name, arg = _parse_id(ident)
    if name not in REGISTRY:
        raise KeyError(f"unknown catalog id {ident!r}; known: {', '.join(REGISTRY)}")
    build, default, radial = REGISTRY[name]
    dim = _positive_dim(dim)
    if dim != 1 and not radial:
        raise ValueError(f"{name} is a line entry: it takes dim 1, got {dim}")
    return build(default if arg is None else arg, dim)


get = make_standard  # the same registry under its older name
