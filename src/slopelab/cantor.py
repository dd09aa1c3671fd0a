"""Self-similar staircase functions, their localized blocks, and the
divergence-certifying series built from them.

The generation-m staircase g_m rises 0 -> 1 with derivative supported on the
m-th step of a symmetric Cantor construction with contraction ratio
rho = 2^(-1/(1+gamma)), gamma in (-1, 0).  Evaluation follows each point
down the two-branch recursion, at most m generations, in fixed-size blocks
that keep the temporaries in cache.  At every generation the points that
land on a plateau take their value and are dropped, so later generations
touch only the points still descending.  The result is exact to the last
bit of the plain per-point recursion: every point sees the same
floating-point operations in the same order, and the per-generation
coefficients 2^-k and (0.5/rho)^k, which are the same for every surviving
point, are scalars built by the same repeated products.  The
self-similarity identities therefore hold to the last bit.
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
_BLOCK = 2**15  # points per kernel block; keeps the per-generation temporaries in cache


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
    """Values of g_m at ``x`` (flattened) and, if ``want_deriv``, its derivative.

    Points are taken in blocks of ``_BLOCK``; see :func:`_resolve_block`.
    Returns ``(val, dval)`` with ``dval`` None unless asked for.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    val = np.empty_like(x)
    dval = np.zeros_like(x) if want_deriv else None
    for start in range(0, x.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        _resolve_block(spec, x[block], val[block], None if dval is None else dval[block])
    return val, dval


def _resolve_block(spec: CantorSpec, x, val, dval):
    """Unroll the recursion for one block, writing into ``val`` and ``dval``.

    Only the points still descending are carried: their index ``idx``, their
    position ``pos`` in the current generation's frame, and the value
    ``offset`` that frame starts at.  A point that lands on a plateau (left
    of 0, right of 1, or in the central gap) takes its value and is dropped.
    Every survivor is halved once per generation, so the frame's height
    ``coeff`` = 2^-k and the derivative's chain-rule factor ``dcoeff`` =
    (0.5/rho)^k are scalars.
    """
    rho = spec.rho
    far = 1.0 - rho
    nan = np.isnan(x)
    val[nan] = np.nan
    if dval is not None:
        dval[nan] = np.nan
    idx = np.flatnonzero(~nan)
    pos = x[idx]
    offset = np.zeros_like(pos)
    coeff = 1.0
    dcoeff = 1.0
    half_inv_rho = 0.5 / rho
    for _ in range(spec.m):
        if not idx.size:
            return
        stop = (pos <= 0.0) | (pos >= 1.0) | ((pos > rho) & (pos < far))
        done = np.flatnonzero(stop)
        if done.size:
            p = pos[done]
            step = np.where(p >= 1.0, coeff, 0.5 * coeff)
            step[p <= 0.0] = 0.0
            val[idx[done]] = offset[done] + step
            go = ~stop
            idx, pos, offset = idx[go], pos[go], offset[go]
        right = pos >= far
        pos = np.where(right, 1.0 - (1.0 - pos) / rho, pos / rho)
        offset += right * (0.5 * coeff)
        coeff *= 0.5
        dcoeff *= half_inv_rho
    if idx.size:
        val[idx] = offset + coeff * spec.g0(pos)
        if dval is not None:
            dval[idx] = dcoeff * spec.g0_deriv(pos)


def staircase(spec: CantorSpec, x):
    """Evaluate g_m; total on R (0 left of 0, 1 right of 1, nondecreasing)."""
    shape = np.shape(x)
    val, _ = _resolve(spec, x, want_deriv=False)
    return val.reshape(shape) if shape else float(val[0])


def staircase_deriv(spec: CantorSpec, x):
    """Exact derivative of g_m (chain rule through the unrolled recursion)."""
    shape = np.shape(x)
    _, dval = _resolve(spec, x, want_deriv=True)
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
        val, dval = _resolve(spec, x, want_deriv=True)
        val, dval = val.reshape(np.shape(x)), dval.reshape(np.shape(x))
        return 16.0 * (dval * _cutoff_1d(x) + val * _cutoff_1d_deriv(x))

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
