"""Catalog entries: pointwise values, gradients, supports, verified norms."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from slopelab.catalog import (
    dilate,
    get,
    make_standard,
    mollified_indicator,
    smoothstep,
    smoothstep_deriv,
)

RNG = np.random.default_rng(20240817)


def fd_gradient(tf, x, h=1e-6):
    return (tf.eval(x + h) - tf.eval(x - h)) / (2.0 * h)


def interior_points(tf, n=100, margin=1e-3):
    lo, hi = tf.support[0]
    pts = lo + (hi - lo) * RNG.random(4 * n)
    for k in tf.kinks:
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
        val, _ = quad(lambda t: abs(tent.grad(np.array([t]))[0]), -0.5, 1.5, points=[0, 0.5, 1])
        assert val == pytest.approx(tent.grad_l1, rel=1e-6)
        for p in (1.5, 2.0):
            vp, _ = quad(
                lambda t: abs(tent.grad(np.array([t]))[0]) ** p, -0.5, 1.5, points=[0, 0.5, 1]
            )
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
        oracle, _ = quad(lambda t: abs(bump.grad(np.array([t]))[0]), -1, 1, limit=200)
        assert oracle == pytest.approx(bump.grad_l1, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        bump = make_standard("smooth_bump")
        xs = interior_points(bump)
        xs = xs[np.abs(np.abs(xs) - 1.0) > 1e-2]
        fd = fd_gradient(bump, xs)
        exact = bump.grad(xs)
        assert np.max(np.abs(fd - exact) / (np.abs(exact) + 1e-9)) < 1e-5

    def test_zero_outside_support(self):
        bump = make_standard("smooth_bump")
        assert np.all(bump.eval(np.array([-2.0, 1.0, 3.0])) == 0.0)


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

    def test_ball_indicator_2d(self):
        ball = get("ball_indicator(1)", dim=2)
        pts = np.array([[0.0, 0.0], [0.9, 0.0], [0.8, 0.8]])
        assert ball.eval(pts).tolist() == [1.0, 1.0, 0.0]
        assert ball.grad_bv == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            make_standard("sawtooth")


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
            oracle, _ = quad(
                lambda t: abs(v.grad(np.array([t]))[0]),
                -1.5, 1.5, limit=400,
                points=[-1 - 2.0**-m, -1 + 2.0**-m, 1 - 2.0**-m, 1 + 2.0**-m],
            )
            assert oracle == pytest.approx(4.0, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        v = mollified_indicator(3, dim=1)
        xs = np.linspace(0.88, 1.12, 41)
        fd = (v.eval(xs + 1e-8) - v.eval(xs - 1e-8)) / 2e-8
        assert np.max(np.abs(fd - v.grad(xs))) < 1e-4 * max(1.0, v.lip)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            mollified_indicator(0)


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
