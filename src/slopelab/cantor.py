"""Self-similar staircase functions, their localized blocks, and the
divergence-certifying series built from them.

The generation-m staircase g_m rises 0 -> 1 with derivative supported on the
m-th step of a symmetric Cantor construction with contraction ratio
rho = 2^(-1/(1+gamma)), gamma in (-1, 0).  Evaluation unrolls the two-branch
recursion top-down, so the cost is O(m) per point and the self-similarity
identities hold to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .catalog import TestFunction, smoothstep, smoothstep_deriv
from .profiles import LineProfile

__all__ = [
    "CantorSpec",
    "staircase",
    "staircase_deriv",
    "staircase_function",
    "block_function",
    "SeriesBlock",
    "counterexample_series",
    "BlockCapError",
]

DEFAULT_M_CAP = 2**14  # max staircase generations accepted for a series block


class BlockCapError(ValueError):
    """A series block's required generation count exceeds the configured cap."""


@dataclass(frozen=True)
class CantorSpec:
    """Parameters of the staircase family; rho is derived from gamma."""

    gamma: float
    m: int
    rho: float = field(init=False)
    g0: Callable[[np.ndarray], np.ndarray] = None
    g0_deriv: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if not (-1.0 < self.gamma < 0.0):
            raise ValueError(f"gamma must lie in (-1, 0), got {self.gamma}")
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError(f"generation must be a nonnegative integer, got {self.m}")
        rho = 2.0 ** (-1.0 / (1.0 + self.gamma))
        object.__setattr__(self, "rho", rho)
        if self.g0 is None:
            # base profile: C-infinity 0 -> 1 transition supported in (rho, 1 - rho)
            width = 1.0 - 2.0 * rho
            object.__setattr__(
                self, "g0", lambda x: smoothstep((np.asarray(x, dtype=float) - rho) / width)
            )
            object.__setattr__(
                self,
                "g0_deriv",
                lambda x: smoothstep_deriv((np.asarray(x, dtype=float) - rho) / width) / width,
            )
        elif self.g0_deriv is None:
            raise ValueError("a custom base profile must come with its derivative")

    def lip_bound(self, m: Optional[int] = None) -> float:
        """Upper bound for the staircase slope: (2 rho)^-m * max g0'."""
        m = self.m if m is None else m
        width = 1.0 - 2.0 * self.rho
        peak = 2.0 / width  # max of the default base-profile derivative
        try:
            return peak * (2.0 * self.rho) ** (-m)
        except OverflowError:
            return math.inf


def _resolve(spec: CantorSpec, x, want_deriv: bool):
    rho = spec.rho
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    pos = x.astype(float).copy()
    val = np.zeros_like(pos)
    offset = np.zeros_like(pos)
    coeff = np.ones_like(pos)
    dcoeff = np.ones_like(pos)
    active = np.ones(pos.shape, dtype=bool)

    half_inv_rho = 0.5 / rho
    for _ in range(spec.m):
        if not active.any():
            break
        a = active
        p = pos[a]

        done_lo = p <= 0.0
        done_hi = p >= 1.0
        left = (~done_lo) & (~done_hi) & (p <= rho)
        right = (~done_lo) & (~done_hi) & (p >= 1.0 - rho)
        mid = (~done_lo) & (~done_hi) & ~left & ~right

        idx = np.flatnonzero(a)
        if done_lo.any():
            ii = idx[done_lo]
            val[ii] = offset[ii]
            active[ii] = False
        if done_hi.any():
            ii = idx[done_hi]
            val[ii] = offset[ii] + coeff[ii]
            active[ii] = False
        if mid.any():
            ii = idx[mid]
            val[ii] = offset[ii] + 0.5 * coeff[ii]
            active[ii] = False
        if left.any():
            ii = idx[left]
            pos[ii] = pos[ii] / rho
            coeff[ii] *= 0.5
            dcoeff[ii] *= half_inv_rho
        if right.any():
            ii = idx[right]
            pos[ii] = 1.0 - (1.0 - pos[ii]) / rho
            offset[ii] += 0.5 * coeff[ii]
            coeff[ii] *= 0.5
            dcoeff[ii] *= half_inv_rho

    if active.any():
        ii = np.flatnonzero(active)
        base = spec.g0(pos[ii])
        val[ii] = offset[ii] + coeff[ii] * base
        if want_deriv:
            dval = np.zeros_like(val)
            dval[ii] = dcoeff[ii] * spec.g0_deriv(pos[ii])
            return val, dval, ii
        return val, None, ii
    if want_deriv:
        return val, np.zeros_like(val), np.array([], dtype=int)
    return val, None, np.array([], dtype=int)


def staircase(spec: CantorSpec, x):
    """Evaluate g_m; total on R (0 left of 0, 1 right of 1, nondecreasing)."""
    shape = np.shape(x)
    val, _, _ = _resolve(spec, x, want_deriv=False)
    return val.reshape(shape) if shape else float(val[0])


def staircase_deriv(spec: CantorSpec, x):
    """Exact derivative of g_m (chain rule through the unrolled recursion)."""
    shape = np.shape(x)
    _, dval, _ = _resolve(spec, x, want_deriv=True)
    return dval.reshape(shape) if shape else float(dval[0])


def staircase_function(spec: CantorSpec) -> TestFunction:
    """The staircase as a catalog entry (step-like: plateaus 0 and 1)."""
    return TestFunction(
        id=f"cantor_staircase(gamma={spec.gamma:g},m={spec.m})",
        dim=1,
        eval=lambda x: staircase(spec, x),
        grad=lambda x: staircase_deriv(spec, x),
        support=((0.0, 1.0),),
        compact_support=False,
        sup_norm=1.0,
        plateau_left=0.0,
        plateau_right=1.0,
        grad_l1=1.0,  # monotone 0 -> 1
        grad_bv=1.0,
        grad_lp=lambda p: (2.0 * spec.rho) ** ((1.0 / p - 1.0) * spec.m)
        * _base_grad_lp(spec, p),
        lip=spec.lip_bound(),
        breakpoints=_generation_points(spec, max_depth=6),
    )


def _base_grad_lp(spec: CantorSpec, p: float) -> float:
    from scipy.integrate import quad

    val, _ = quad(
        lambda t: abs(float(spec.g0_deriv(np.array([t]))[0])) ** p,
        spec.rho,
        1.0 - spec.rho,
        limit=200,
    )
    return float(val ** (1.0 / p))


def _generation_points(spec: CantorSpec, max_depth: int) -> tuple[float, ...]:
    """Interval endpoints of the first few construction generations."""
    pts = {0.0, 1.0}
    segs = [(0.0, 1.0)]
    for _ in range(min(spec.m, max_depth)):
        nxt = []
        for a, b in segs:
            w = b - a
            nxt.append((a, a + spec.rho * w))
            nxt.append((b - spec.rho * w, b))
        segs = nxt
        pts.update(p for seg in segs for p in seg)
    return tuple(sorted(pts))


# ---------------------------------------------------------------------------
# Localized blocks
# ---------------------------------------------------------------------------

def _cutoff_1d(s):
    # 1 on [-1/2, 3/2], supported in (-1, 2), C-infinity
    s = np.asarray(s, dtype=float)
    return smoothstep(2.0 * (s + 1.0)) * smoothstep(2.0 * (2.0 - s))


def _cutoff_1d_deriv(s):
    s = np.asarray(s, dtype=float)
    a = smoothstep(2.0 * (s + 1.0))
    b = smoothstep(2.0 * (2.0 - s))
    da = 2.0 * smoothstep_deriv(2.0 * (s + 1.0))
    db = -2.0 * smoothstep_deriv(2.0 * (2.0 - s))
    return da * b + a * db

_CUTOFF_LIP = 4.0  # |eta'| <= 2 * smoothstep peak = 4


def block_function(spec: CantorSpec, dim: int = 1, shifted: bool = False) -> TestFunction:
    """Compactly supported staircase block 16 * g_m(x1) * eta(x).

    ``shifted`` moves the block to x1 in (1, 4) (the translate used by the
    divergence series); the unshifted block lives on x1 in (-1, 2).
    """
    if dim != 1:
        raise ValueError("blocks are built in one dimension here")
    c = 2.0 if shifted else 0.0

    def ev(x):
        x = np.asarray(x, dtype=float) - c
        return 16.0 * staircase(spec, x) * _cutoff_1d(x)

    def gr(x):
        x = np.asarray(x, dtype=float) - c
        return 16.0 * (
            staircase_deriv(spec, x) * _cutoff_1d(x) + staircase(spec, x) * _cutoff_1d_deriv(x)
        )

    lip = 16.0 * (spec.lip_bound() + _CUTOFF_LIP)
    inner = _generation_points(spec, max_depth=5)
    bps = tuple(sorted({-1.0 + c, -0.5 + c, 1.5 + c, 2.0 + c} | {p + c for p in inner}))
    name = "shifted_block" if shifted else "block"
    return TestFunction(
        id=f"cantor_{name}(gamma={spec.gamma:g},m={spec.m})",
        dim=1,
        eval=ev,
        grad=gr,
        support=((-1.0 + c, 2.0 + c),),
        compact_support=True,
        sup_norm=16.0,
        lip=lip,
        breakpoints=bps,
    )


# ---------------------------------------------------------------------------
# The truncated divergence series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesBlock:
    n: int
    radius: float          # R_n = 2^(2n)
    lam: float             # lambda_n = R_n^-(N+gamma) * omega(R_{n+1})
    lam_next: float        # lambda_{n+1} (schedule value; block may be truncated away)
    m: int                 # staircase generations for this block
    coef: float            # omega(R_{n+1}) / (R_n^(N-1) n^2)
    spec: CantorSpec


def series_schedule(
    gamma: float,
    n_max: int,
    decay: Optional[Callable[[float], float]] = None,
    m_cap: int = DEFAULT_M_CAP,
    dim: int = 1,
) -> list[SeriesBlock]:
    """Block parameters R_n, lambda_n, m(n) for n = 2 .. n_max.

    m(n) is the smallest integer satisfying the growth requirement
    m(n) >= 4 (lambda_n / lambda_{n+1}) n^3 / omega(R_{n+1}); blocks whose
    m(n) exceeds ``m_cap`` are rejected with a diagnostic.
    """
    if n_max < 2:
        raise ValueError(f"the series needs n_max >= 2, got {n_max}")
    omega = decay if decay is not None else (lambda s: 1.0)

    def radius(n):
        return 2.0 ** (2 * n)

    def lam(n):
        return radius(n) ** (-(dim + gamma)) * omega(radius(n + 1))

    blocks = []
    for n in range(2, n_max + 1):
        need = 4.0 * (lam(n) / lam(n + 1)) * (1.0 / omega(radius(n + 1))) * n**3
        m_n = int(math.ceil(need - 1e-12))
        if m_n > m_cap:
            raise BlockCapError(
                f"block n={n} needs m(n)={m_n} staircase generations, above the cap "
                f"{m_cap}; raise m_cap or lower n_max (the schedule grows superexponentially)"
            )
        blocks.append(
            SeriesBlock(
                n=n,
                radius=radius(n),
                lam=lam(n),
                lam_next=lam(n + 1),
                m=m_n,
                coef=omega(radius(n + 1)) / (radius(n) ** (dim - 1) * n**2),
                spec=CantorSpec(gamma=gamma, m=m_n),
            )
        )
    return blocks


def counterexample_series(
    gamma: float,
    n_max: int,
    decay: Optional[Callable[[float], float]] = None,
    m_cap: int = DEFAULT_M_CAP,
) -> TestFunction:
    """Truncated series of rescaled staircase blocks with disjoint supports.

    Block n occupies (R_n, 4 R_n); consecutive supports touch at endpoints
    only since R_{n+1} = 4 R_n.  The returned entry records the per-block
    schedule in ``meta`` for the divergence certifier.
    """
    if not (-1.0 < gamma < 0.0):
        raise ValueError(f"the staircase series needs gamma in (-1, 0), got {gamma}")
    blocks = series_schedule(gamma, n_max, decay=decay, m_cap=m_cap)
    funcs = [block_function(b.spec, shifted=True) for b in blocks]

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for b, fb in zip(blocks, funcs):
            mask = (x > b.radius) & (x < 4.0 * b.radius)
            if mask.any():
                out[mask] = b.coef * fb.eval(x[mask] / b.radius)
        return out

    def gr(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for b, fb in zip(blocks, funcs):
            mask = (x > b.radius) & (x < 4.0 * b.radius)
            if mask.any():
                out[mask] = b.coef / b.radius * fb.grad(x[mask] / b.radius)
        return out

    lip = 0.0
    for b, fb in zip(blocks, funcs):
        lip = max(lip, b.coef * fb.lip / b.radius)
    bps = []
    for b in blocks:
        bps.extend(
            b.radius * np.array([1.0, 1.5, 2.0, 2.25, 2.5, 2.75, 3.0, 3.5, 4.0])
        )
    lo = blocks[0].radius
    hi = 4.0 * blocks[-1].radius
    sup = max(16.0 * b.coef for b in blocks)
    return TestFunction(
        id=f"counterexample_series(gamma={gamma:g},n_max={n_max})",
        dim=1,
        eval=ev,
        grad=gr,
        support=((lo, hi),),
        compact_support=True,
        sup_norm=sup,
        lip=lip,
        breakpoints=tuple(sorted(set(bps))),
        meta=tuple(blocks),
    )
