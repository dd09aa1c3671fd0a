"""Catalog entries: pointwise values, gradients, supports, verified norms."""

import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slopelab.cantor import CantorSpec, block_function, counterexample_series, staircase_function
from slopelab.catalog import (
    REGISTRY,
    dilate,
    get,
    make_standard,
    mollified_indicator,
    negate,
    reflect,
    scale_values,
    shift,
    smoothstep,
    smoothstep_deriv,
)
from slopelab.quadrature import max_slope

RNG = np.random.default_rng(20240817)


def quad_abs_grad(tf, pieces, p=1.0):
    """int |tf'|^p by mpmath.quad over ``pieces``, split at each inner point."""
    return float(mpmath.quad(lambda t: abs(tf.grad(np.array([float(t)]))[0]) ** p, pieces))


def fd_gradient(tf, x, h=1e-6):
    return (tf.eval(x + h) - tf.eval(x - h)) / (2.0 * h)


def interior_points(tf, n=100, margin=1e-3):
    lo, hi = tf.support[0]
    pts = lo + (hi - lo) * RNG.random(4 * n)
    for k in tf.breakpoints:
        pts = pts[np.abs(pts - k) > margin]
    return pts[:n]


class TestSmoothstep:
    S = np.array([0.02, 0.1, 0.25, 0.5, 0.7, 0.98])

    def test_values_pinned(self):
        expected = [
            "0x1.437271fc1cce9p-71",
            "0x1.212f2a770ac2ep-13",
            "0x1.0a1d1c8a7e963p-4",
            "0x1.0000000000000p-1",
            "0x1.bda8f07ecd421p-1",
            "0x1.0000000000000p+0",
        ]
        assert [float(v).hex() for v in smoothstep(self.S)] == expected
        assert smoothstep(np.array([-np.inf, -1.0, -0.0, 0.0])).tolist() == [0.0] * 4
        assert smoothstep(np.array([1.0, 2.0, np.inf])).tolist() == [1.0] * 3

    def test_derivative_pinned(self):
        expected = [
            "0x1.8aff4d38353ffp-60",
            "0x1.c95d9e918fafcp-7",
            "0x1.1478c14ed234bp+0",
            "0x1.0000000000000p+1",
            "0x1.7bb98fb5ee096p+0",
            "0x1.8aff4d383551cp-60",
        ]
        assert [float(v).hex() for v in smoothstep_deriv(self.S)] == expected
        edges = np.array([-np.inf, 0.0, 1.0, np.inf])
        assert smoothstep_deriv(edges).tolist() == [0.0] * 4

    def test_derivative_vanishes_for_tiny_s(self):
        # s^2 underflows to 0 below about 1.5e-162, and -1/s overflows for subnormal s
        assert smoothstep_deriv(np.array([1e-170, 1e-300, 5e-324])).tolist() == [0.0] * 3
        s = np.geomspace(1e-161, 0.5, 400)
        a, b = np.exp(-1.0 / s), np.exp(-1.0 / (1.0 - s))
        plain = (a / s**2 * b + a * (b / (1.0 - s) ** 2)) / (a + b) ** 2
        assert np.array_equal(smoothstep_deriv(s), plain)

    @pytest.mark.parametrize("f", [smoothstep, smoothstep_deriv])
    def test_nan_in_nan_out(self, f):
        s = np.linspace(-0.5, 1.5, 41)
        with_nan = s.copy()
        with_nan[1::2] = np.nan
        out = f(with_nan)
        assert np.all(np.isnan(out[1::2]))
        assert np.array_equal(out[::2], f(s)[::2])
        assert np.isnan(f(np.nan))
        assert f(0.5) == f(np.array([0.5]))[0]


class TestTent:
    def test_values(self):
        tent = make_standard("tent")
        assert tent.eval(np.array([0.25]))[0] == 0.25
        assert tent.grad_l1 == 1.0
        assert tent.lip == 1.0
        assert tent.eval(np.array([-0.5, 1.5])).tolist() == [0.0, 0.0]

    def test_gradient_matches_finite_differences(self):
        tent = make_standard("tent")
        xs = interior_points(tent)
        fd = fd_gradient(tent, xs)
        exact = tent.grad(xs)
        assert np.max(np.abs(fd - exact) / (np.abs(exact) + 1e-12)) < 1e-5

    def test_norms_against_quadrature(self):
        tent = make_standard("tent")
        pieces = [-0.5, 0, 0.5, 1, 1.5]
        assert quad_abs_grad(tent, pieces) == pytest.approx(tent.grad_l1, rel=1e-6)
        for p in (1.5, 2.0):
            vp = quad_abs_grad(tent, pieces, p)
            assert vp ** (1 / p) == pytest.approx(tent.grad_lp(p), rel=1e-6)


class TestHalflineStep:
    def test_values(self):
        step = make_standard("halfline_step")
        assert step.eval(np.array([-1.0]))[0] == 0.0
        assert step.eval(np.array([2.0]))[0] == 1.0
        assert step.grad_l1 is None
        assert step.grad_bv == 1.0
        assert not step.compact_support


class TestSmoothBump:
    def test_total_variation_is_twice_the_peak(self):
        bump = make_standard("smooth_bump")
        assert bump.grad_l1 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert quad_abs_grad(bump, [-1, 0, 1]) == pytest.approx(bump.grad_l1, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        bump = make_standard("smooth_bump")
        xs = interior_points(bump)
        xs = xs[np.abs(np.abs(xs) - 1.0) > 1e-2]
        fd = fd_gradient(bump, xs)
        exact = bump.grad(xs)
        assert np.max(np.abs(fd - exact) / (np.abs(exact) + 1e-9)) < 1e-5

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lipschitz_constant_bounds_the_gradient(self, dim):
        # |u'(r)| = 2r (1 - r^2)^-2 exp(-1/(1 - r^2)) peaks where 3r^4 = 1;
        # near_diagonal reads lip as an upper bound
        bump = get("smooth_bump", dim=dim)
        r = 3.0**-0.25
        d = 1.0 - r * r
        closed = 2.0 * r / d**2 * math.exp(-1.0 / d)
        assert closed < bump.lip <= closed + 4.0 * math.ulp(closed)
        grid = np.linspace(-1.0, 1.0, 1_000_001 if dim == 1 else 1001)
        peak = r + np.linspace(-1e-6, 1e-6, 20_001)
        if dim == 1:
            g = np.abs(bump.grad(np.concatenate([grid, peak, -peak])))
        else:
            theta = np.linspace(0.0, 2.0 * math.pi, 37)
            shell = (peak[:, None, None] * np.stack([np.cos(theta), np.sin(theta)], -1)[None])
            xy = np.concatenate([
                np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2), shell.reshape(-1, 2),
            ])
            g = np.hypot(*bump.grad(xy).T)
        assert g.max() <= bump.lip
        assert g.max() > closed * (1.0 - 1e-12)

    def test_zero_outside_support(self):
        bump = make_standard("smooth_bump")
        assert np.all(bump.eval(np.array([-2.0, 1.0, 3.0])) == 0.0)

    def test_values_pinned(self):
        # the line engine's input: exp(-1/(1 - x*x)) inside, bit for bit
        xs = np.array([-0.95, -0.6, -0.1, 0.0, 0.3, 0.75, 0.999])
        expected = [
            "0x1.26b47ba956b59p-15",
            "0x1.ad48bc25771c7p-3",
            "0x1.74ec2d2b686dbp-2",
            "0x1.78b56362cef38p-2",
            "0x1.553c19b0cd6ccp-2",
            "0x1.a091a39e7818ap-4",
            "0x1.395946d501e87p-722",
        ]
        assert [float(v).hex() for v in make_standard("smooth_bump").eval(xs)] == expected

    def test_slice_pinned(self):
        # the rotation engine's input: the chord at offset 1/2 and its sup
        prof = get("smooth_bump", dim=2).slicer(0.0, 0.5)
        ts = np.array([-0.85, -0.5, -0.2, 0.0, 0.4, 0.8])
        expected = [
            "0x1.73cb6d5316128p-53",
            "0x1.152aaa3bf81ccp-3",
            "0x1.f4c7dbfedc4dep-3",
            "0x1.0dec687e1adf1p-2",
            "0x1.780b07cc9a167p-3",
            "0x1.d8a3388343d19p-14",
        ]
        assert [float(v).hex() for v in prof.f(ts)] == expected
        assert prof.sup.hex() == "0x1.0dec687e1adf1p-2"
        w = math.sqrt(0.75)
        assert (prof.lo, prof.hi, prof.breakpoints) == (-w, w, (-w, 0.0, w))


class TestRadialPlane:
    """The smooth radial entries in dims 2 and 3 against Cartesian oracles."""

    ENTRIES = ["smooth_bump", "mollified_indicator(3)"]

    @pytest.mark.parametrize("fid", ENTRIES)
    def test_gradient_matches_finite_differences(self, fid):
        for dim in (2, 3):
            u = get(fid, dim=dim)
            radius = u.support[0][1]
            x = radius * RNG.uniform(-1.1, 1.1, size=(400, dim))
            h = 1e-6
            fd = np.stack(
                [(u.eval(x + h * e) - u.eval(x - h * e)) / (2.0 * h) for e in np.eye(dim)], axis=1
            )
            assert np.max(np.abs(u.grad(x) - fd)) < 1e-6 * u.lip
            flat = np.zeros((3, dim))
            flat[1, 0], flat[2, dim - 1] = radius, -2.0
            assert u.grad(flat).tolist() == [[0.0] * dim] * 3

    @pytest.mark.parametrize("fid", ENTRIES)
    def test_gradient_norms_against_cartesian_quadrature(self, fid):
        u = get(fid, dim=2)
        radius = u.support[0][1]
        n = 600
        h = 2.0 * radius / n
        c = -radius + h * (np.arange(n) + 0.5)  # midpoints; the integrand is smooth and 0 at the edge
        xy = np.stack(np.meshgrid(c, c), axis=-1).reshape(-1, 2)
        g = np.hypot(*u.grad(xy).T)
        for p in (1.0, 2.0):
            cartesian = (np.sum(g**p) * h * h) ** (1.0 / p)
            assert u.grad_lp(p) == pytest.approx(cartesian, rel=1e-7)
        assert u.grad_l1 == u.grad_bv == u.grad_lp(1.0)

    @pytest.mark.parametrize("fid", ENTRIES)
    def test_slice_is_the_function_on_its_chord(self, fid):
        # the chord at offset s from the centre, in the plane of the first two axes
        for dim in (2, 3):
            u = get(fid, dim=dim)
            radius = u.support[0][1]
            pad = [np.zeros(101)] * (dim - 2)
            for s in (0.0, 0.3, -0.55, 0.9, 0.999):
                prof = u.slicer(0.0, s)
                ts = np.linspace(prof.lo, prof.hi, 101)
                on_chord = u.eval(np.stack([np.full_like(ts, s), ts, *pad], axis=1))
                assert np.array_equal(prof.f(ts), on_chord)
                peak = u.eval(np.array([[s] + [0.0] * (dim - 1)]))[0]
                assert prof.sup == prof.f(np.array([0.0]))[0] == peak
                assert prof.lipschitz == u.lip
            assert u.slicer(0.0, radius) is None
            assert u.slicer(0.0, -1.5 * radius) is None

    def test_slice_sup_is_its_peak_at_the_rotation_offsets(self):
        # the sup is the chord's own value at t = 0; math.exp read 1 ulp above
        # numpy's at s = sqrt(2) * 19 / 32
        u = get("smooth_bump", dim=2)
        for s in np.linspace(0.0, 2.0**0.5, 33):
            prof = u.slicer(0.0, float(s))
            if prof is not None:
                assert prof.sup == np.max(prof.f(np.linspace(prof.lo, prof.hi, 2001)))


EPS = np.finfo(float).eps
RADIAL = tuple(name for name, (_, _, radial) in REGISTRY.items() if radial)


class TestDimensions:
    """A line entry takes dim 1; a radial one any positive integer dim, in which
    it reads every coordinate."""

    def test_the_registry_says_which_names_are_radial(self):
        assert RADIAL == ("smooth_bump", "ball_indicator", "mollified_indicator")
        for name, (_, _, radial) in REGISTRY.items():
            assert make_standard(name).dim == 1
            for dim in (2, 3, 4):
                if radial:
                    assert make_standard(name, dim=dim).dim == dim
                else:
                    with pytest.raises(ValueError, match=f"{name} is a line entry: it takes dim 1"):
                        make_standard(name, dim=dim)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, math.nan, math.inf, True, "2"])
    def test_bad_dims_raise(self, dim):
        # True used to build a 1-D entry
        for name in REGISTRY:
            with pytest.raises(ValueError, match="dim must be a positive integer"):
                make_standard(name, dim=dim)
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            mollified_indicator(3, dim=dim)

    @given(
        fid=st.sampled_from(RADIAL),
        dim=st.sampled_from((2, 3, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_rotation_invariance(self, fid, dim, seed):
        # u(Qx) = u(x) under a random orthogonal Q, up to the rounding of |x|^2
        u = make_standard(fid, dim=dim)
        radius = u.support[0][1]
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        x = radius * rng.uniform(-1.2, 1.2, size=(64, dim))
        qx = x @ q.T
        r = np.linalg.norm(x, axis=1)
        # |Qx| and |x| differ by a few ulps of |x|; a step may flip within them of its radius
        slack = 8.0 * dim * EPS * r
        keep = np.abs(r - radius) > slack if u.grad is None else np.ones_like(r, dtype=bool)
        tol = 8.0 * EPS * u.sup_norm + u.lip * slack[keep]
        assert np.all(np.abs(u.eval(qx[keep]) - u.eval(x[keep])) <= tol)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("fid", RADIAL)
    def test_zero_off_the_first_two_axes_beyond_the_radius(self, fid, dim):
        # the evaluator once read only the first two coordinates: it gave
        # mollified_indicator(3) in dim 3 its centre value 2 at (0, 0, 100)
        u = make_standard(fid, dim=dim)
        radius = u.support[0][1]
        x = np.zeros((3 * (dim - 2), dim))
        for k in range(2, dim):
            x[3 * (k - 2):3 * (k - 1), k] = radius * np.array([1.01, -1.5, 100.0 / radius])
        assert u.eval(x).tolist() == [0.0] * len(x)
        assert mollified_indicator(3, dim=3)(np.array([[0.0, 0.0, 100.0]])).tolist() == [0.0]


class TestGradientNormsAgainstMpmath:
    """The Gauss-Legendre gradient norms against mpmath.quad at 30 digits.

    Each reference integrates the closed form of |u'|^p, written out here in
    mpmath, so it shares no code with the rule it checks.
    """

    RTOL = 1e-13

    @staticmethod
    def step_deriv(s):
        """The derivative of smoothstep, ab (1/s^2 + 1/(1-s)^2) / (a+b)^2."""
        a, b = mpmath.exp(-1 / s), mpmath.exp(-1 / (1 - s))
        return a * b * (1 / s**2 + 1 / (1 - s) ** 2) / (a + b) ** 2

    @staticmethod
    def norm(integral, dim, p):
        area = 2 if dim == 1 else 2 * mpmath.pi ** (mpmath.mpf(dim) / 2) / mpmath.gamma(mpmath.mpf(dim) / 2)
        return float((area * integral) ** (1 / mpmath.mpf(p)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_smooth_bump(self, dim):
        u = make_standard("smooth_bump", dim=dim)
        with mpmath.workdps(30):
            for p in (1.0, 1.5, 2.0, 3.0):
                integral = mpmath.quad(
                    lambda r: (2 * r / (1 - r * r) ** 2 * mpmath.exp(-1 / (1 - r * r))) ** p
                    * r ** (dim - 1),
                    [0, 0.5, 1],
                )
                assert u.grad_lp(p) == pytest.approx(self.norm(integral, dim, p), rel=self.RTOL)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_mollified_indicator(self, m, dim):
        # u = 2 smoothstep((outer - r) / width) on the collar; s = (outer - r) / width
        u = mollified_indicator(m, dim=dim)
        with mpmath.workdps(30):
            eps = mpmath.mpf(2) ** -m
            width, outer = 2 * eps, 1 + eps
            for p in (1.0, 2.0):
                integral = mpmath.quad(
                    lambda s: (2 * self.step_deriv(s) / width) ** p
                    * (outer - width * s) ** (dim - 1) * width,
                    [0, 0.5, 1],
                )
                assert u.grad_lp(p) == pytest.approx(self.norm(integral, dim, p), rel=self.RTOL)

    def test_staircase_base(self):
        # generation 0 is the base step g0 = smoothstep((x - rho) / (1 - 2 rho))
        spec = CantorSpec(gamma=-0.5, m=0)
        u = staircase_function(spec)
        with mpmath.workdps(30):
            width = 1 - 2 * mpmath.mpf(spec.rho)
            for p in (1.0, 2.0):
                integral = mpmath.quad(
                    lambda s: (self.step_deriv(s) / width) ** p * width, [0, 0.5, 1]
                )
                ref = float(integral ** (1 / mpmath.mpf(p)))
                assert u.grad_lp(p) == pytest.approx(ref, rel=self.RTOL)


class TestIndicatorsAndRamps:
    def test_interval_indicator(self):
        ind = make_standard("interval_indicator(2.5)")
        assert ind.eval(np.array([1.0]))[0] == 1.0
        assert ind.eval(np.array([3.0]))[0] == 0.0
        assert ind.grad_bv == 2.0
        assert ind.support[0] == (0.0, 2.5)

    def test_linear_ramp_slope(self):
        ramp = make_standard("linear_ramp(3)")
        assert ramp.lip == 3.0
        assert ramp.grad_lp(2.0) == 3.0
        xs = np.array([0.1, 0.2])
        q = (ramp.eval(xs[1:]) - ramp.eval(xs[:1])) / (xs[1] - xs[0])
        assert q[0] == pytest.approx(3.0)

    def test_ball_indicator_1d(self):
        ball = make_standard("ball_indicator(2)")
        assert ball.eval(np.array([0.0]))[0] == 1.0
        assert ball.eval(np.array([2.5]))[0] == 0.0
        assert ball.grad_bv == 2.0
        # it drops exactly at its declared jumps; 2 + ulp read 1 through (x + 2) <= 4
        assert ball.jumps == ((-2.0, 1.0), (2.0, 1.0))
        ends = np.array([-2.0, 2.0])
        assert ball.eval(ends).tolist() == [1.0, 1.0]
        assert ball.eval(np.nextafter(ends, 2.0 * ends)).tolist() == [0.0, 0.0]

    def test_ball_indicator_2d(self):
        ball = get("ball_indicator(1)", dim=2)
        pts = np.array([[0.0, 0.0], [0.9, 0.0], [0.8, 0.8]])
        assert ball.eval(pts).tolist() == [1.0, 1.0, 0.0]
        assert ball.grad_bv == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_ball_indicator_3d(self):
        # its variation is the area of its boundary sphere, 4 pi R^2
        ball = get("ball_indicator(2)", dim=3)
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.2, 1.2, 1.2], [0.0, 0.0, -2.5]])
        assert ball.eval(pts).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert ball.grad_bv == pytest.approx(16.0 * math.pi, rel=1e-12)
        assert ball.grad is ball.grad_lp is ball.grad_l1 is None
        # a slice does not depend on the dim
        chord, planar = ball.slicer(0.0, 1.0), get("ball_indicator(2)", dim=2).slicer(0.0, 1.0)
        assert replace(chord, f=None) == replace(planar, f=None)
        ts = np.linspace(-2.0, 2.0, 41)
        assert np.array_equal(chord.f(ts), planar.f(ts))

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            make_standard("sawtooth")

    @pytest.mark.parametrize(
        "fid,dim",
        [
            ("linear_ramp(-1)", 1),
            ("linear_ramp(0)", 1),
            ("linear_ramp(nan)", 1),
            ("linear_ramp(inf)", 1),
            ("interval_indicator(inf)", 1),
            ("interval_indicator(nan)", 1),
            ("ball_indicator(inf)", 1),
            ("ball_indicator(inf)", 2),
        ],
    )
    def test_rejects_parameters_out_of_range(self, fid, dim):
        # a negative ramp declared lip = -1 and sup = -0.5; an infinite interval
        # sent NaN into the engine's output
        with pytest.raises(ValueError, match="must be finite and positive"):
            make_standard(fid, dim=dim)

    def test_one_registry(self):
        assert get is make_standard
        assert make_standard("mollified_indicator(4)").id == mollified_indicator(4).id
        assert make_standard("mollified_indicator").id == "mollified_indicator(3)"
        assert make_standard("mollified_indicator(2)", dim=2).dim == 2
        assert make_standard("smooth_bump", dim=2.0).dim == 2


class TestMollifiedIndicator:
    def test_plateau_and_support(self):
        v = mollified_indicator(3, dim=1)
        assert v.eval(np.array([0.0]))[0] == 2.0
        assert v.eval(np.array([1.2]))[0] == 0.0
        lo, hi = v.support[0]
        assert hi == pytest.approx(1.0 + 2.0**-3)

    def test_transition_width(self):
        m = 5
        v = mollified_indicator(m, dim=1)
        inner, outer = 1.0 - 2.0**-m, 1.0 + 2.0**-m
        assert v.eval(np.array([inner]))[0] == pytest.approx(2.0)
        assert v.eval(np.array([outer]))[0] == 0.0
        mid = v.eval(np.array([(inner + outer) / 2.0]))[0]
        assert 0.0 < mid < 2.0

    def test_total_variation_uniform_in_m(self):
        for m in (2, 5, 8):
            v = mollified_indicator(m, dim=1)
            assert v.grad_l1 == 4.0
            pieces = [-1.5, -1 - 2.0**-m, -1 + 2.0**-m, 1 - 2.0**-m, 1 + 2.0**-m, 1.5]
            assert quad_abs_grad(v, pieces) == pytest.approx(4.0, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        v = mollified_indicator(3, dim=1)
        xs = np.linspace(0.88, 1.12, 41)
        fd = (v.eval(xs + 1e-8) - v.eval(xs - 1e-8)) / 2e-8
        assert np.max(np.abs(fd - v.grad(xs))) < 1e-4 * max(1.0, v.lip)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            mollified_indicator(0)

    @pytest.mark.parametrize("level", ["2.5", "0.9", "nan", "inf"])
    def test_registry_rejects_non_integer_levels(self, level):
        # the level is validated, not truncated: 2.5 used to give level 2
        with pytest.raises(ValueError, match=rf"positive integer, got {level}"):
            make_standard(f"mollified_indicator({level})")

    def test_values_pinned(self):
        # the line engine's input across the collar [15/16, 17/16], bit for bit
        xs = np.array([-1.05, -0.95, 0.0, 0.94, 0.97, 1.0, 1.03, 1.06])
        expected = [
            "0x1.212f2a770ab77p-12",
            "0x1.ffeded0d588f5p+0",
            "0x1.0000000000000p+1",
            "0x1.0000000000000p+1",
            "0x1.d8f940d4d34aap+0",
            "0x1.0000000000000p+0",
            "0x1.3835f95965aaep-3",
            "0x1.437271fc1b536p-70",
        ]
        assert [float(v).hex() for v in mollified_indicator(4).eval(xs)] == expected
        assert mollified_indicator(4).breakpoints == (-1.0625, -0.9375, 0.0, 0.9375, 1.0625)

    def test_registry_accepts_integral_float_levels(self):
        u = make_standard("mollified_indicator(4.0)")
        assert u.id == "mollified_indicator(4)"
        assert u.lip == mollified_indicator(4).lip


class TestTransformsAndDescriptors:
    def test_dilate_norms(self):
        tent = make_standard("tent")
        big = dilate(tent, 4.0)
        assert big.support[0] == (0.0, 4.0)
        assert big.lip == pytest.approx(0.25)
        assert big.grad_lp(2.0) == pytest.approx(tent.grad_lp(2.0) * 4.0 ** (1 / 2 - 1))
        assert big.eval(np.array([2.0]))[0] == tent.eval(np.array([0.5]))[0]

    def test_descriptor_round_trips_as_json(self):
        for fid in ("tent", "smooth_bump", "halfline_step", "interval_indicator(1)"):
            d = make_standard(fid).descriptor()
            again = json.loads(json.dumps(d))
            assert again["id"] == d["id"]
            assert again["support"] == d["support"]


# ---------------------------------------------------------------------------
# Declared jumps: the line engine reads the jumps at a profile's support
# edges from its declaration and never searches for them, so every profile
# the engine is handed must declare them.
# ---------------------------------------------------------------------------

LINE_IDS = (
    "tent", "smooth_bump", "halfline_step", "interval_indicator(1)",
    "interval_indicator(2.5)", "linear_ramp(1)", "linear_ramp(3)", "ball_indicator(1)",
    "mollified_indicator(3)", "mollified_indicator(6)",
)
VARIANTS = {
    "dilate": lambda u: dilate(u, 2.5),
    "shift": lambda u: shift(u, -0.7),
    "reflect": reflect,
    "scale": lambda u: scale_values(u, 3.0),
    "negate": negate,
}


def _line_entries():
    for fid in LINE_IDS:
        u = make_standard(fid)
        yield fid, u.line_profile()
        for name, variant in VARIANTS.items():
            yield f"{fid}~{name}", variant(u).line_profile()
    for m in range(7):
        yield f"staircase(m={m})", staircase_function(CantorSpec(gamma=-0.5, m=m)).line_profile()
    yield "block(m=2)", block_function(CantorSpec(gamma=-0.5, m=2)).line_profile()
    yield "series(-0.5, 3)", counterexample_series(-0.5, 3).line_profile()


def _slices():
    for fid in ("smooth_bump", "ball_indicator(1)", "mollified_indicator(3)"):
        u = make_standard(fid, dim=2)
        radius = u.support[0][1]
        offsets = np.concatenate([
            np.linspace(0.0, radius, 33), RNG.uniform(0.0, radius, 40), [radius * (1 - 1e-9)]
        ])
        for s in offsets:
            prof = u.slicer(0.0, float(s))
            if prof is not None:
                yield f"{fid}@{s:.6g}", prof


def edge_mismatches(prof):
    """Where a declared edge jump differs from |f(lo+) - left| or |f(hi-) - right|."""
    eps = 1e-12 * max(prof.span, 1.0)
    tol = 1e-9 * max(prof.sup, 1.0)
    found = []
    for name, x, side, plateau in (
        ("lo", prof.lo, prof.lo + eps, prof.left), ("hi", prof.hi, prof.hi - eps, prof.right)
    ):
        seen = abs(float(prof.f(np.array([side]))[0]) - plateau)
        declared = sum(size for loc, size in prof.jumps if loc == x)
        if abs(seen - declared) > tol:
            found.append(f"{name}: declared {declared!r}, the profile jumps by {seen!r}")
    return found


class TestDeclaredEdgeJumps:
    def test_line_entries(self):
        entries = dict(_line_entries())
        assert len(entries) == 6 * len(LINE_IDS) + 9
        bad = {name: m for name, prof in entries.items() if (m := edge_mismatches(prof))}
        assert bad == {}

    def test_rotation_slices(self):
        slices = dict(_slices())
        assert len(slices) > 200
        bad = {name: m for name, prof in slices.items() if (m := edge_mismatches(prof))}
        assert bad == {}

    def test_the_check_sees_an_undeclared_edge_jump(self):
        prof = make_standard("interval_indicator(1)").line_profile()
        assert edge_mismatches(replace(prof, jumps=((1.0, 1.0),))) == [
            "lo: declared 0, the profile jumps by 1.0"
        ]
        assert edge_mismatches(replace(prof, jumps=((0.0, 0.5), (1.0, 1.0)))) == [
            "lo: declared 0.5, the profile jumps by 1.0"
        ]


def slope_excess(prof):
    """Where the slope the plateau grid shows exceeds the declared Lipschitz constant."""
    slope = max_slope(prof)
    return [f"slope {slope!r} > {prof.lipschitz!r}"] if slope > prof.lipschitz else []


class TestDeclaredLipschitz:
    def test_line_entries(self):
        entries = dict(_line_entries())
        assert len(entries) == 6 * len(LINE_IDS) + 9
        assert {name: m for name, prof in entries.items() if (m := slope_excess(prof))} == {}

    def test_rotation_slices(self):
        slices = dict(_slices())
        assert len(slices) > 200
        assert {name: m for name, prof in slices.items() if (m := slope_excess(prof))} == {}

    def test_the_check_sees_a_constant_below_the_slope(self):
        prof = make_standard("tent").line_profile()
        assert slope_excess(replace(prof, lipschitz=0.5)) != []

    def test_rounding_margin_on_the_finest_intervals(self):
        # the grid's intervals near the kinks are about 3e-15 wide, where
        # rounding alone moves the bare quotient of linear_ramp(3) to 3.03
        slope = max_slope(make_standard("linear_ramp(3)").line_profile())
        assert 3.0 * (1.0 - 1e-11) < slope <= 3.0


class TestJumpValidation:
    BASE = make_standard("interval_indicator(1)").line_profile()

    @pytest.mark.parametrize("loc", [-0.5, 1.0 + 1e-12, math.inf, math.nan])
    def test_jump_outside_the_support_is_rejected(self, loc):
        with pytest.raises(ValueError, match=r"jump \(.*\) lies outside \[lo, hi\]"):
            replace(self.BASE, jumps=((0.0, 1.0), (loc, 1.0)))

    @pytest.mark.parametrize("size", [0.0, -1.0, math.inf, math.nan])
    def test_jump_size_must_be_finite_and_positive(self, size):
        with pytest.raises(ValueError, match=r"jump \(1\.0, .*\) has a size that is not finite"):
            replace(self.BASE, jumps=((0.0, 1.0), (1.0, size)))

    def test_zero_multiple_declares_no_jumps(self):
        prof = scale_values(make_standard("interval_indicator(1)"), 0.0).line_profile()
        assert prof.jumps == () and edge_mismatches(prof) == []

    def test_underflowing_multiple_declares_no_jumps(self):
        # 1e-200 * 1e-200 * u is the zero function: its jumps of size 0 are dropped
        tiny = scale_values(scale_values(make_standard("interval_indicator(1)"), 1e-200), 1e-200)
        assert tiny.jumps == () and tiny.line_profile().sup == 0.0

    def test_jumps_at_both_edges_are_accepted(self):
        assert replace(self.BASE, jumps=((0.0, 2.0), (1.0, 0.5))).jumps == ((0.0, 2.0), (1.0, 0.5))


# ---------------------------------------------------------------------------
# The derived fields, and the transforms as one affine map
# ---------------------------------------------------------------------------

def _all_entries():
    for fid in LINE_IDS:
        u = make_standard(fid)
        yield fid, u
        for name, variant in VARIANTS.items():
            yield f"{fid}~{name}", variant(u)
    for fid in ("smooth_bump", "ball_indicator(1)", "mollified_indicator(3)"):
        yield f"{fid}@2", make_standard(fid, dim=2)
    for m in range(4):
        yield f"staircase(m={m})", staircase_function(CantorSpec(gamma=-0.5, m=m))
    yield "block(m=2)", block_function(CantorSpec(gamma=-0.5, m=2))
    yield "series(-0.5, 3)", counterexample_series(-0.5, 3)


def bits(values):
    """The raw 64-bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


class TestDerivedFields:
    def test_compact_support_and_grad_l1_follow_the_stored_fields(self):
        entries = dict(_all_entries())
        assert len(entries) == 6 * len(LINE_IDS) + 9
        for name, u in entries.items():
            assert u.compact_support == (u.plateau_left == 0.0 and u.plateau_right == 0.0), name
            assert u.grad_l1 == (u.grad_bv if u.grad is not None else None), name

    @pytest.mark.parametrize(
        "u", [make_standard("halfline_step"), staircase_function(CantorSpec(gamma=-0.5, m=2))]
    )
    def test_zero_multiple_of_a_step_is_compactly_supported(self, u):
        # both plateaus of 0 * u are 0; a stored flag used to keep u's False
        assert not u.compact_support
        assert scale_values(u, 0.0).compact_support


class TestAffineComposition:
    GRID = np.concatenate([np.linspace(-4.0, 4.0, 2001), [-0.0, 0.0, 1e-300, -1e-300]])

    @pytest.mark.parametrize("fid", LINE_IDS)
    def test_negate_and_reflect_twice_are_the_identity(self, fid):
        u = make_standard(fid)
        for twice in (negate(negate(u)), reflect(reflect(u))):
            assert np.array_equal(bits(twice.eval(self.GRID)), bits(u.eval(self.GRID)))
            if u.grad is not None:
                assert np.array_equal(bits(twice.grad(self.GRID)), bits(u.grad(self.GRID)))

    @pytest.mark.parametrize("fid", LINE_IDS)
    @pytest.mark.parametrize("t", [0.25, 2.0, 8.0])
    def test_dilation_by_a_power_of_two_is_exact(self, fid, t):
        u = make_standard(fid)
        assert np.array_equal(bits(dilate(u, t).eval(t * self.GRID)), bits(u.eval(self.GRID)))


# ---------------------------------------------------------------------------
# Declared mirrors: u(2c - x) = +-u(x) + const, so that the line engine may
# refine half of the interior pairs
# ---------------------------------------------------------------------------

MIRRORED_IDS = tuple(fid for fid in LINE_IDS if make_standard(fid).mirror is not None)
TRANSFORMS = st.one_of(
    st.tuples(st.just("dilate"), st.floats(0.05, 20.0)),
    st.tuples(st.just("shift"), st.floats(-10.0, 10.0)),
    st.tuples(st.just("scale"), st.floats(-8.0, 8.0)),
    st.tuples(st.just("reflect"), st.none()),
    st.tuples(st.just("negate"), st.none()),
)
APPLY = {
    "dilate": dilate,
    "shift": shift,
    "scale": scale_values,
    "reflect": lambda u, _: reflect(u),
    "negate": lambda u, _: negate(u),
}


def mirror_defect(f, c, x, y):
    """How far |f(2c - x) - f(2c - y)| is from |f(x) - f(y)|."""
    v = f(np.array([x, y, 2.0 * c - x, 2.0 * c - y]))
    return abs(abs(v[2] - v[3]) - abs(v[0] - v[1]))


class TestDeclaredMirrors:
    def test_every_registry_line_entry_but_the_step_declares_one(self):
        names = set(REGISTRY)  # every name builds a line entry at dim 1
        assert names == {fid.split("(")[0] for fid in LINE_IDS}
        assert {fid.split("(")[0] for fid in MIRRORED_IDS} == names - {"halfline_step"}

    @pytest.mark.parametrize(
        "u",
        [block_function(CantorSpec(gamma=-0.5, m=2)), counterexample_series(-0.5, 3)],
        ids=["block", "series"],
    )
    def test_blocks_and_series_declare_none(self, u):
        assert u.mirror is None and u.line_profile().mirror is None

    @given(
        fid=st.sampled_from(MIRRORED_IDS),
        ops=st.lists(TRANSFORMS, max_size=3),
        s=st.floats(-1.25, 1.25),
        r=st.floats(-1.25, 1.25),
    )
    @settings(max_examples=500, deadline=None)
    def test_line_entries_and_their_transforms(self, fid, ops, s, r):
        u = make_standard(fid)
        for name, arg in ops:
            u = APPLY[name](u, arg)
        c = u.line_profile().mirror  # the profile checks that c is the centre
        lo, hi = u.support[0]
        x, y = c + s * (hi - lo), c + r * (hi - lo)
        # 2c - x, the mirror and the transforms' points are each rounded:
        # a few ulps of the abscissae, times the slope, plus a few of sup |u|
        scale = abs(x) + abs(y) + 4.0 * abs(c) + abs(lo) + abs(hi)
        for loc, _ in u.jumps:
            assume(min(abs(x - loc), abs(y - loc)) > 64.0 * EPS * scale)
        tol = 32.0 * EPS * (u.sup_norm + (u.lip or 0.0) * scale)
        assert mirror_defect(u.eval, c, x, y) <= tol

    @given(
        fid=st.sampled_from(("smooth_bump", "ball_indicator(1)", "mollified_indicator(3)")),
        offset=st.floats(0.0, 1.0, exclude_max=True),
        s=st.floats(-1.25, 1.25),
        r=st.floats(-1.25, 1.25),
    )
    @settings(max_examples=300, deadline=None)
    def test_planar_slices(self, fid, offset, s, r):
        # a radial slice is even along its chord: the mirror 0 holds bit for bit
        u = make_standard(fid, dim=2)
        prof = u.slicer(0.0, offset * u.support[0][1])
        assert prof.mirror == 0.0
        assert mirror_defect(prof.f, 0.0, s * prof.hi, r * prof.hi) == 0.0

    @pytest.mark.parametrize("mirror", [0.25, 0.5 + 1e-12, math.nan, math.inf])
    def test_profile_rejects_a_mirror_off_the_centre(self, mirror):
        prof = make_standard("tent").line_profile()
        with pytest.raises(ValueError, match=r"is not the centre of \[lo, hi\]"):
            replace(prof, mirror=mirror)
