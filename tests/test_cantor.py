"""Self-similar staircase family: recursion identities, norms, blocks, series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slopelab.cantor import (
    _BLOCK,
    BlockCapError,
    CantorSpec,
    _cutoff_1d,
    _cutoff_1d_deriv,
    _generation_points,
    _resolve,
    block_function,
    counterexample_series,
    series_schedule,
    staircase,
    staircase_deriv,
)
from slopelab.catalog import shift

RNG = np.random.default_rng(7)


def reference_resolve(spec, x, want_deriv):
    """The plain per-point recursion: full-size arrays, one mask per branch.

    The compacted, blocked kernel in ``cantor._resolve`` must match it bit
    for bit on every input that is not NaN.
    """
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

    dval = np.zeros_like(val) if want_deriv else None
    if active.any():
        ii = np.flatnonzero(active)
        val[ii] = offset[ii] + coeff[ii] * spec.g0(pos[ii])
        if want_deriv:
            dval[ii] = dcoeff[ii] * spec.g0_deriv(pos[ii])
    return val, dval


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    same = a.view(np.int64) == b.view(np.int64)
    assert same.all(), f"{np.count_nonzero(~same)} differ, first at {np.flatnonzero(~same)[:5]}"


def kernel_inputs(spec):
    """Uniform points, construction endpoints, edge values and long survivors.

    The array is longer than two kernel blocks, so the block seams are crossed.
    """
    rho = spec.rho
    special = [0.0, -0.0, 1.0, rho, 1.0 - rho, math.inf, -math.inf]
    # a 2-cycle of the two branches in exact arithmetic: 26-27 generations at
    # gamma=-0.5, 74-75 at gamma=-0.2 in floating point
    survivors = [rho / (1.0 + rho), 1.0 / (1.0 + rho)]
    uniform = np.random.default_rng(11).uniform(-0.5, 1.5, 2 * _BLOCK + 1000)
    gen = _generation_points(spec, max_depth=8)
    return np.concatenate([special, survivors, gen, uniform, survivors, special])


def dense_generation_grid(spec, pts_per_segment=60):
    pts = np.array(_generation_points(spec, max_depth=spec.m))
    return np.unique(
        np.concatenate([np.linspace(a, b, pts_per_segment) for a, b in zip(pts, pts[1:])])
    )


class TestStaircase:
    def test_contraction_ratio(self):
        assert CantorSpec(gamma=-0.5, m=0).rho == pytest.approx(0.25)

    def test_base_case_and_plateaus(self):
        spec0 = CantorSpec(gamma=-0.5, m=0)
        assert staircase(spec0, 0.5) == pytest.approx(float(spec0.g0(np.array([0.5]))[0]))
        for m in (0, 3, 7):
            spec = CantorSpec(gamma=-0.5, m=m)
            assert staircase(spec, 1.0) == 1.0
            assert staircase(spec, -0.3) == 0.0

    def test_central_gap_value(self):
        assert staircase(CantorSpec(gamma=-0.5, m=3), 0.5) == 0.5

    @pytest.mark.parametrize("m", [1, 4, 10])
    def test_monotone_on_dense_grid(self, m):
        spec = CantorSpec(gamma=-0.5, m=m)
        xs = np.linspace(0, 1, 10_000)
        assert np.all(np.diff(staircase(spec, xs)) >= 0)

    @given(x=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_self_similarity_left_branch(self, x):
        gamma = -0.5
        rho = CantorSpec(gamma=gamma, m=0).rho
        deep = CantorSpec(gamma=gamma, m=5)
        shallow = CantorSpec(gamma=gamma, m=4)
        assert staircase(deep, x * rho) == 0.5 * staircase(shallow, x)

    def test_variation_is_one(self):
        for m in (1, 4, 6):
            spec = CantorSpec(gamma=-0.5, m=m)
            grid = dense_generation_grid(spec)
            tv = float(np.trapezoid(np.abs(staircase_deriv(spec, grid)), grid))
            assert tv == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_derivative_norm_growth_rate(self, p):
        gamma = -0.5
        rho = CantorSpec(gamma=gamma, m=0).rho
        norms = []
        for m in (3, 4, 5):
            spec = CantorSpec(gamma=gamma, m=m)
            grid = dense_generation_grid(spec, 80)
            norms.append(
                float(np.trapezoid(np.abs(staircase_deriv(spec, grid)) ** p, grid)) ** (1 / p)
            )
        predicted = (2.0 * rho) ** (1.0 / p - 1.0)
        for a, b in zip(norms, norms[1:]):
            assert b / a == pytest.approx(predicted, rel=0.02)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            CantorSpec(gamma=0.2, m=1)
        with pytest.raises(ValueError):
            CantorSpec(gamma=-1.0, m=1)

    def test_specs_compare_by_value(self):
        assert CantorSpec(-0.5, 3) == CantorSpec(-0.5, 3)
        assert hash(CantorSpec(-0.5, 3)) == hash(CantorSpec(-0.5, 3))
        assert CantorSpec(-0.5, 3) != CantorSpec(-0.5, 4)


class TestKernelBits:
    """The compacted, blocked kernel against the plain recursion, bit for bit."""

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, -0.2])
    @pytest.mark.parametrize("m", [0, 1, 2, 6, 60, 1100, 2**14])
    def test_values_and_derivatives(self, gamma, m):
        spec = CantorSpec(gamma=gamma, m=m)
        xs = kernel_inputs(spec)
        val, dval = _resolve(spec, xs, want_deriv=True)
        ref_val, ref_dval = reference_resolve(spec, xs, want_deriv=True)
        assert_same_bits(val, ref_val)
        assert_same_bits(dval, ref_dval)
        assert_same_bits(staircase(spec, xs), ref_val)
        assert_same_bits(staircase_deriv(spec, xs.reshape(-1, 1)), ref_dval.reshape(-1, 1))

    @pytest.mark.parametrize("gamma, depths", [(-0.5, (27, 26)), (-0.2, (75, 74))])
    def test_long_survivors_are_deep(self, gamma, depths):
        # generations each point descends before it lands on a plateau
        rho = CantorSpec(gamma=gamma, m=0).rho
        for x, depth in zip((rho / (1.0 + rho), 1.0 / (1.0 + rho)), depths):
            gens = 0
            while 0.0 < x <= rho or 1.0 - rho <= x < 1.0:
                x = 1.0 - (1.0 - x) / rho if x >= 1.0 - rho else x / rho
                gens += 1
            assert gens == depth

    @pytest.mark.parametrize("m", [0, 2, 60])
    def test_scalar_input(self, m):
        spec = CantorSpec(gamma=-0.5, m=m)
        for x in (0.2, 1.0 / (1.0 + spec.rho), 0.5, -0.0):
            ref_val, ref_dval = reference_resolve(spec, x, want_deriv=True)
            v = staircase(spec, x)
            d = staircase_deriv(spec, x)
            assert isinstance(v, float) and isinstance(d, float)
            assert_same_bits(v, ref_val[0])
            assert_same_bits(d, ref_dval[0])

    @given(
        xs=st.lists(
            st.floats(min_value=-1e300, max_value=1e300)
            | st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1.0]),
            min_size=1,
            max_size=64,
        ),
        gamma=st.floats(min_value=-0.95, max_value=-0.05),
        m=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_inputs(self, xs, gamma, m):
        spec = CantorSpec(gamma=gamma, m=m)
        xs = np.array(xs)
        val, dval = _resolve(spec, xs, want_deriv=True)
        ref_val, ref_dval = reference_resolve(spec, xs, want_deriv=True)
        assert_same_bits(val, ref_val)
        assert_same_bits(dval, ref_dval)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_nan_in_nan_out(self, m):
        spec = CantorSpec(gamma=-0.5, m=m)
        xs = np.linspace(-0.2, 1.2, 2 * _BLOCK + 7)
        with_nan = xs.copy()
        with_nan[1::2] = np.nan
        u = block_function(spec)
        for f in (
            lambda x: staircase(spec, x),
            lambda x: staircase_deriv(spec, x),
            u.eval,
            u.grad,
        ):
            out = f(with_nan)
            assert np.all(np.isnan(out[1::2]))
            assert_same_bits(out[::2], f(xs)[::2])
        assert math.isnan(staircase(spec, math.nan))


class TestBlocks:
    def test_plateau_value_inside_cutoff(self):
        u = block_function(CantorSpec(gamma=-0.5, m=2))
        assert u.eval(np.array([1.0]))[0] == pytest.approx(16.0)

    def test_zero_outside_cutoff(self):
        u = block_function(CantorSpec(gamma=-0.5, m=2))
        assert u.eval(np.array([-1.5]))[0] == 0.0

    def test_central_gap_times_sixteen(self):
        u = block_function(CantorSpec(gamma=-0.5, m=4))
        assert u.eval(np.array([0.5]))[0] == pytest.approx(8.0)

    def test_gradient_matches_finite_differences(self):
        u = block_function(CantorSpec(gamma=-0.5, m=2))
        xs = RNG.uniform(-0.9, 1.9, 100)
        fd = (u.eval(xs + 1e-7) - u.eval(xs - 1e-7)) / 2e-7
        assert np.max(np.abs(fd - u.grad(xs))) < 1e-4 * u.lip

    def test_gradient_is_the_product_rule(self):
        spec = CantorSpec(gamma=-0.5, m=3)
        for u, c in ((block_function(spec), 0.0), (shift(block_function(spec), 2.0), 2.0)):
            xs = np.linspace(-1.0, 2.0, 301) + c
            s = xs - c
            expected = 16.0 * (
                staircase_deriv(spec, s) * _cutoff_1d(s) + staircase(spec, s) * _cutoff_1d_deriv(s)
            )
            assert_same_bits(u.grad(xs), expected)
            assert_same_bits(u.grad(float(xs[100])), expected[100])


class TestSeries:
    def test_schedule_numbers(self):
        blocks = series_schedule(-0.5, 3)
        by_n = {b.n: b for b in blocks}
        assert by_n[2].radius == 16.0
        assert by_n[3].m == 216
        assert by_n[2].m == 64

    def test_supports_disjoint_and_touching(self):
        blocks = series_schedule(-0.5, 4)
        for a, b in zip(blocks, blocks[1:]):
            assert 4.0 * a.radius == b.radius

    def test_zero_outside_block_supports(self):
        u = counterexample_series(-0.5, 3)
        xs = np.array([10.0, 300.0, -5.0, 15.9999])
        assert np.all(u.eval(xs) == 0.0)
        inside = u.eval(np.array([2.5 * 16.0, 2.5 * 64.0]))
        assert np.all(inside > 0.0)

    def test_cap_rejects_oversized_blocks(self):
        with pytest.raises(BlockCapError):
            series_schedule(-0.5, 3, m_cap=100)

    def test_per_block_metadata_recorded(self):
        u = counterexample_series(-0.5, 3)
        assert [b.n for b in u.meta] == [2, 3]
        assert u.meta[0].lam == pytest.approx(0.25)
        assert u.meta[0].lam_next == pytest.approx(0.125)
