"""The library of test functions fed to the level-set functionals.

Every entry carries a vectorized evaluator, a gradient where one exists,
support data, and exact or quadrature-verified gradient norms.  All smooth
transitions (bump plateaus, cutoffs, mollified collars) are built from one
C-infinity step primitive with closed-form derivative, so gradients can be
checked against finite differences without interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .profiles import LineProfile

__all__ = [
    "TestFunction",
    "make_standard",
    "mollified_indicator",
    "get",
    "dilate",
    "smoothstep",
    "smoothstep_deriv",
    "STANDARD_IDS",
]

STANDARD_IDS = (
    "tent",
    "smooth_bump",
    "halfline_step",
    "interval_indicator",
    "linear_ramp",
    "ball_indicator",
)


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
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    da = a / sm**2
    db = b / (1.0 - sm) ** 2
    out[mid] = (da * b + a * db) / (a + b) ** 2
    return out


_SMOOTHSTEP_PEAK = 2.0  # max of smoothstep_deriv, attained at s = 1/2


# ---------------------------------------------------------------------------
# Catalog entry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A catalog entry: evaluators plus verified metadata.

    ``grad_l1`` is the L1 norm of the gradient for Sobolev entries and absent
    for indicator-type entries; ``grad_bv`` is the total-variation mass and is
    defined for both (they coincide on W^{1,1}).  ``grad_lp`` maps p to the
    L^p norm of the gradient where finite.  ``kinks`` lists points where the
    gradient is undefined so derivative checks can avoid them.
    """

    id: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]]
    support: tuple[tuple[float, float], ...]
    compact_support: bool
    sup_norm: float
    plateau_left: float = 0.0
    plateau_right: float = 0.0
    grad_l1: Optional[float] = None
    grad_bv: Optional[float] = None
    grad_lp: Optional[Callable[[float], float]] = None
    lip: Optional[float] = None
    kinks: tuple[float, ...] = ()
    jumps: tuple[tuple[float, float], ...] = ()
    breakpoints: tuple[float, ...] = ()
    # slicer(theta, offset): the line profile of the 2D slice at that offset,
    # or None off the support.  Every entry is radial, so theta is unused;
    # rotation2d passes 0.
    slicer: Optional[Callable[[float, float], Optional[LineProfile]]] = None
    meta: tuple = ()

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


def _make_tent(scale: float = 1.0, ident: str = "tent") -> TestFunction:
    return TestFunction(
        id=ident,
        dim=1,
        eval=lambda x: scale * _tent_eval(x),
        grad=lambda x: scale * _tent_grad(x),
        support=((0.0, 1.0),),
        compact_support=True,
        sup_norm=0.5 * scale,
        grad_l1=scale,
        grad_bv=scale,
        grad_lp=lambda p: scale,
        lip=scale,
        kinks=(0.0, 0.5, 1.0),
        breakpoints=(0.0, 0.5, 1.0),
    )


def _bump_eval_1d(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def _bump_grad_1d(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    d = 1.0 - xi * xi
    out[inside] = -2.0 * xi / d**2 * np.exp(-1.0 / d)
    return out


@lru_cache(maxsize=None)
def _bump_grad_lp(p: float) -> float:
    val, _ = quad(lambda t: np.abs(_bump_grad_1d(np.array([t]))[0]) ** p, -1.0, 1.0, limit=200)
    return float(val ** (1.0 / p))


@lru_cache(maxsize=None)
def _bump_lip() -> float:
    res = minimize_scalar(
        lambda t: -abs(float(_bump_grad_1d(np.array([t]))[0])), bounds=(0.0, 1.0), method="bounded"
    )
    return float(-res.fun)


def _make_smooth_bump(dim: int) -> TestFunction:
    if dim == 1:
        return TestFunction(
            id="smooth_bump",
            dim=1,
            eval=_bump_eval_1d,
            grad=_bump_grad_1d,
            support=((-1.0, 1.0),),
            compact_support=True,
            sup_norm=math.exp(-1.0),
            grad_l1=2.0 * math.exp(-1.0),  # monotone on each side: TV = 2 max
            grad_bv=2.0 * math.exp(-1.0),
            grad_lp=_bump_grad_lp,
            lip=_bump_lip(),
            kinks=(),
            breakpoints=(-1.0, 0.0, 1.0),
        )
    if dim == 2:

        def ev(xy):
            xy = np.atleast_2d(np.asarray(xy, dtype=float))
            r2 = xy[:, 0] ** 2 + xy[:, 1] ** 2
            out = np.zeros(len(xy))
            inside = r2 < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
            return out

        def gr(xy):
            xy = np.atleast_2d(np.asarray(xy, dtype=float))
            r2 = xy[:, 0] ** 2 + xy[:, 1] ** 2
            out = np.zeros_like(xy)
            inside = r2 < 1.0
            d = 1.0 - r2[inside]
            factor = -2.0 / d**2 * np.exp(-1.0 / d)
            out[inside] = xy[inside] * factor[:, None]
            return out

        lip = _bump2d_lip()

        def slicer(theta, offset):
            if abs(offset) >= 1.0:
                return None
            w = math.sqrt(1.0 - offset * offset)
            o2 = offset * offset

            def f(t):
                t = np.asarray(t, dtype=float)
                r2 = o2 + t * t
                out = np.zeros_like(t)
                inside = r2 < 1.0
                out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
                return out

            return LineProfile(
                f=f, lo=-w, hi=w, left=0.0, right=0.0,
                lipschitz=lip, sup=math.exp(-1.0 / (1.0 - o2)),
                breakpoints=(-w, 0.0, w),
            )

        return TestFunction(
            id="smooth_bump",
            dim=2,
            eval=ev,
            grad=gr,
            support=((-1.0, 1.0), (-1.0, 1.0)),
            compact_support=True,
            sup_norm=math.exp(-1.0),
            grad_l1=_bump2d_grad_l1(),
            grad_bv=_bump2d_grad_l1(),
            grad_lp=_bump2d_grad_lp,
            lip=lip,
            slicer=slicer,
        )
    raise ValueError(f"smooth_bump supports dim 1 or 2, got {dim}")


def _bump2d_radial_grad(r):
    d = 1.0 - r * r
    return -2.0 * r / d**2 * np.exp(-1.0 / d)


@lru_cache(maxsize=None)
def _bump2d_lip() -> float:
    res = minimize_scalar(
        lambda r: -abs(float(_bump2d_radial_grad(r))), bounds=(0.0, 1.0), method="bounded"
    )
    return float(-res.fun)


@lru_cache(maxsize=None)
def _bump2d_grad_l1() -> float:
    val, _ = quad(lambda r: abs(_bump2d_radial_grad(r)) * 2.0 * math.pi * r, 0.0, 1.0, limit=200)
    return float(val)


@lru_cache(maxsize=None)
def _bump2d_grad_lp(p: float) -> float:
    val, _ = quad(
        lambda r: abs(_bump2d_radial_grad(r)) ** p * 2.0 * math.pi * r, 0.0, 1.0, limit=200
    )
    return float(val ** (1.0 / p))


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
        compact_support=False,
        sup_norm=1.0,
        plateau_left=0.0,
        plateau_right=1.0,
        grad_l1=None,
        grad_bv=1.0,
        lip=0.0,
        jumps=((0.0, 1.0),),
        breakpoints=(0.0,),
    )


def _make_interval_indicator(length: float) -> TestFunction:
    if not length > 0:
        raise ValueError(f"interval length must be positive, got {length}")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return ((x >= 0) & (x <= length)).astype(float)

    return TestFunction(
        id=f"interval_indicator({length:g})",
        dim=1,
        eval=ev,
        grad=None,
        support=((0.0, length),),
        compact_support=True,
        sup_norm=1.0,
        grad_l1=None,
        grad_bv=2.0,
        lip=0.0,
        jumps=((0.0, 1.0), (length, 1.0)),
        breakpoints=(0.0, length),
    )


def _make_ball_indicator(radius: float, dim: int) -> TestFunction:
    if not radius > 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    if dim == 1:
        tf = _make_interval_indicator(2 * radius)
        shifted = shift(tf, -radius)
        return replace(shifted, id=f"ball_indicator({radius:g})")
    if dim == 2:

        def ev(xy):
            xy = np.atleast_2d(np.asarray(xy, dtype=float))
            return (xy[:, 0] ** 2 + xy[:, 1] ** 2 <= radius * radius).astype(float)

        def slicer(theta, offset):
            if abs(offset) >= radius:
                return None
            w = math.sqrt(radius * radius - offset * offset)

            def f(t):
                t = np.asarray(t, dtype=float)
                return (np.abs(t) <= w).astype(float)

            return LineProfile(
                f=f, lo=-w, hi=w, left=0.0, right=0.0, lipschitz=0.0, sup=1.0,
                jumps=((-w, 1.0), (w, 1.0)), breakpoints=(-w, w),
            )

        return TestFunction(
            id=f"ball_indicator({radius:g})",
            dim=2,
            eval=ev,
            grad=None,
            support=((-radius, radius), (-radius, radius)),
            compact_support=True,
            sup_norm=1.0,
            grad_l1=None,
            grad_bv=2.0 * math.pi * radius,
            lip=0.0,
            slicer=slicer,
        )
    raise ValueError(f"ball_indicator supports dim 1 or 2, got {dim}")


def mollified_indicator(m: int, dim: int = 1) -> TestFunction:
    """Ball indicator convolved with a mass-2 mollifier at scale 2^-m.

    The plateau value is 2 (the mollifier integrates to 2, an intentionally
    unusual normalization kept from the construction this mirrors), attained
    on |x| <= 1 - 2^-m; the function vanishes for |x| >= 1 + 2^-m, with a
    smooth monotone radial transition across the collar of width 2^(1-m).
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"mollification level must be a positive integer, got {m}")
    eps = 2.0 ** (-m)
    width = 2.0 * eps
    outer = 1.0 + eps
    lip = 2.0 * _SMOOTHSTEP_PEAK / width

    def radial(r):
        # 2 * smoothstep((outer - r) / width): 2 inside, 0 outside the collar
        return 2.0 * smoothstep((outer - np.asarray(r, dtype=float)) / width)

    def radial_deriv(r):
        return -2.0 * smoothstep_deriv((outer - np.asarray(r, dtype=float)) / width) / width

    if dim == 1:

        def ev(x):
            return radial(np.abs(np.asarray(x, dtype=float)))

        def gr(x):
            x = np.asarray(x, dtype=float)
            return radial_deriv(np.abs(x)) * np.sign(x)

        def glp(p):
            val, _ = quad(lambda r: abs(float(radial_deriv(r))) ** p, 1.0 - eps, outer, limit=200)
            return float((2.0 * val) ** (1.0 / p))

        return TestFunction(
            id=f"mollified_indicator({m})",
            dim=1,
            eval=ev,
            grad=gr,
            support=((-outer, outer),),
            compact_support=True,
            sup_norm=2.0,
            grad_l1=4.0,  # up 0->2 and down 2->0
            grad_bv=4.0,
            grad_lp=glp,
            lip=lip,
            kinks=(),
            breakpoints=(-outer, -(1.0 - eps), 0.0, 1.0 - eps, outer),
        )
    if dim == 2:

        def ev2(xy):
            xy = np.atleast_2d(np.asarray(xy, dtype=float))
            return radial(np.hypot(xy[:, 0], xy[:, 1]))

        def gr2(xy):
            xy = np.atleast_2d(np.asarray(xy, dtype=float))
            r = np.hypot(xy[:, 0], xy[:, 1])
            mag = radial_deriv(r)
            with np.errstate(invalid="ignore", divide="ignore"):
                unit = np.where(r[:, None] > 0, xy / np.maximum(r, 1e-300)[:, None], 0.0)
            return mag[:, None] * unit

        def slicer(theta, offset):
            if abs(offset) >= outer:
                return None
            w = math.sqrt(outer * outer - offset * offset)

            def f(t):
                t = np.asarray(t, dtype=float)
                return radial(np.hypot(offset, t))

            return LineProfile(
                f=f, lo=-w, hi=w, left=0.0, right=0.0, lipschitz=lip,
                sup=float(radial(abs(offset))), breakpoints=(-w, 0.0, w),
            )

        g1, _ = quad(lambda r: abs(float(radial_deriv(r))) * 2 * math.pi * r, 1.0 - eps, outer)
        return TestFunction(
            id=f"mollified_indicator({m})",
            dim=2,
            eval=ev2,
            grad=gr2,
            support=((-outer, outer), (-outer, outer)),
            compact_support=True,
            sup_norm=2.0,
            grad_l1=float(g1),
            grad_bv=float(g1),
            lip=lip,
            slicer=slicer,
        )
    raise ValueError(f"mollified_indicator supports dim 1 or 2, got {dim}")


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def dilate(tf: TestFunction, t: float) -> TestFunction:
    """Return x -> u(x / t) with metadata transformed accordingly (dim 1)."""
    if tf.dim != 1:
        raise ValueError("dilate only supports one-dimensional entries")
    if not t > 0:
        raise ValueError(f"dilation factor must be positive, got {t}")
    base_lp = tf.grad_lp
    return replace(
        tf,
        id=f"{tf.id}~dilate({t:g})",
        eval=lambda x, _t=t: tf.eval(np.asarray(x, dtype=float) / _t),
        grad=(None if tf.grad is None else (lambda x, _t=t: tf.grad(np.asarray(x, dtype=float) / _t) / _t)),
        support=((tf.support[0][0] * t, tf.support[0][1] * t),),
        sup_norm=tf.sup_norm,
        grad_l1=tf.grad_l1,
        grad_bv=tf.grad_bv,
        grad_lp=(None if base_lp is None else (lambda p, _t=t: base_lp(p) * _t ** (1.0 / p - 1.0))),
        lip=(None if tf.lip is None else tf.lip / t),
        kinks=tuple(k * t for k in tf.kinks),
        jumps=tuple((loc * t, sz) for loc, sz in tf.jumps),
        breakpoints=tuple(b * t for b in tf.breakpoints),
    )


def shift(tf: TestFunction, c: float) -> TestFunction:
    """Return x -> u(x - c) (dim 1)."""
    if tf.dim != 1:
        raise ValueError("shift only supports one-dimensional entries")
    return replace(
        tf,
        id=f"{tf.id}~shift({c:g})",
        eval=lambda x, _c=c: tf.eval(np.asarray(x, dtype=float) - _c),
        grad=(None if tf.grad is None else (lambda x, _c=c: tf.grad(np.asarray(x, dtype=float) - _c))),
        support=((tf.support[0][0] + c, tf.support[0][1] + c),),
        kinks=tuple(k + c for k in tf.kinks),
        jumps=tuple((loc + c, sz) for loc, sz in tf.jumps),
        breakpoints=tuple(b + c for b in tf.breakpoints),
    )


def scale_values(tf: TestFunction, c: float) -> TestFunction:
    """Return x -> c * u(x) (dim 1)."""
    if tf.dim != 1:
        raise ValueError("scale_values only supports one-dimensional entries")
    a = abs(c)
    base_lp = tf.grad_lp
    return replace(
        tf,
        id=f"{tf.id}~scale({c:g})",
        eval=lambda x, _c=c: _c * tf.eval(x),
        grad=(None if tf.grad is None else (lambda x, _c=c: _c * tf.grad(x))),
        sup_norm=a * tf.sup_norm,
        plateau_left=c * tf.plateau_left,
        plateau_right=c * tf.plateau_right,
        grad_l1=(None if tf.grad_l1 is None else a * tf.grad_l1),
        grad_bv=(None if tf.grad_bv is None else a * tf.grad_bv),
        grad_lp=(None if base_lp is None else (lambda p, _a=a: _a * base_lp(p))),
        lip=(None if tf.lip is None else a * tf.lip),
        jumps=tuple((loc, a * sz) for loc, sz in tf.jumps),
    )


def negate(tf: TestFunction) -> TestFunction:
    return scale_values(tf, -1.0)


def reflect(tf: TestFunction) -> TestFunction:
    """Return x -> u(-x) (dim 1)."""
    if tf.dim != 1:
        raise ValueError("reflect only supports one-dimensional entries")
    lo, hi = tf.support[0]
    return replace(
        tf,
        id=f"{tf.id}~reflect",
        eval=lambda x: tf.eval(-np.asarray(x, dtype=float)),
        grad=(None if tf.grad is None else (lambda x: -tf.grad(-np.asarray(x, dtype=float)))),
        support=((-hi, -lo),),
        plateau_left=tf.plateau_right,
        plateau_right=tf.plateau_left,
        kinks=tuple(-k for k in tf.kinks),
        jumps=tuple((-loc, sz) for loc, sz in tf.jumps),
        breakpoints=tuple(-b for b in tf.breakpoints),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _parse_id(ident: str) -> tuple[str, Optional[float]]:
    ident = ident.strip()
    if "(" in ident:
        if not ident.endswith(")"):
            raise ValueError(f"malformed catalog id: {ident!r}")
        name, arg = ident[:-1].split("(", 1)
        return name.strip(), float(arg)
    return ident, None


def make_standard(ident: str, dim: int = 1) -> TestFunction:
    """Build a standard catalog entry from its string id.

    Parameterized ids take the form ``name(value)``; bare names use the
    defaults interval_indicator(1), linear_ramp(1), ball_indicator(1).
    """
    name, arg = _parse_id(ident)
    if name not in STANDARD_IDS:
        raise KeyError(f"unknown catalog id {ident!r}; known: {', '.join(STANDARD_IDS)}")
    if name in ("tent", "smooth_bump", "halfline_step", "interval_indicator", "linear_ramp"):
        if dim != 1 and name != "smooth_bump":
            raise ValueError(f"{name} is one-dimensional, got dim={dim}")
    if name == "tent":
        return _make_tent()
    if name == "smooth_bump":
        return _make_smooth_bump(dim)
    if name == "halfline_step":
        return _make_halfline_step()
    if name == "interval_indicator":
        return _make_interval_indicator(1.0 if arg is None else arg)
    if name == "linear_ramp":
        c = 1.0 if arg is None else arg
        return _make_tent(scale=c, ident=f"linear_ramp({c:g})")
    if name == "ball_indicator":
        return _make_ball_indicator(1.0 if arg is None else arg, dim)
    raise AssertionError("unreachable")


def get(ident: str, dim: int = 1):
    """Resolve a function id: standard entries plus the constructed families."""
    name, arg = _parse_id(ident)
    if name == "mollified_indicator":
        return mollified_indicator(int(arg) if arg is not None else 3, dim)
    return make_standard(ident, dim)
