"""The measure engine against closed forms, brute force, and its invariants."""

import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slopelab.cantor import CantorSpec, staircase_function
from slopelab.catalog import dilate, get, make_standard, negate, reflect
from slopelab.constants import halfline_closed_form
from slopelab.measure import BudgetExceededError, LevelSetQuery, nu_measure, quotient
from slopelab.params import Params
from slopelab import quadrature
from slopelab.quadrature import (
    MAX_CELLS,
    EngineEstimate,
    UndecidedError,
    measure_line,
    member_window,
    near_diagonal,
    shell_weight,
)
from slopelab import selfsimilar
from slopelab.selfsimilar import box_measure, box_measure_ladder, cross_term
from test_imports import run_fresh


def P(gamma, p=1.0, dim=1):
    return Params(dim=dim, p=p, gamma=gamma)


class TestShellWeight:
    # gamma = 0 is the log; close to it, (b^g - a^g) / g loses digits to cancellation
    GAMMAS = st.one_of(st.just(0.0), st.floats(0.05, 3.0), st.floats(-3.0, -0.05))

    def test_from_zero_diverges_for_negative_gamma(self):
        # a RuntimeWarning from 0 ** gamma would fail the suite
        a = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        b = np.array([1.0, np.inf, 0.0, 4.0, np.inf])
        w = shell_weight(-0.5, a, b)
        assert w.tolist() == [np.inf, np.inf, 0.0, 1.0, 2.0]

    def test_from_zero_for_nonnegative_gamma(self):
        assert shell_weight(0.5, np.array([0.0]), np.array([4.0])).tolist() == [4.0]

    @given(gamma=GAMMAS, a=st.floats(1e-3, 1e2), b=st.floats(1e-3, 1e2))
    @settings(max_examples=300, deadline=None)
    def test_special_cases(self, gamma, a, b):
        lo, hi = min(a, b), max(a, b)
        assert shell_weight(gamma, [hi, lo], [lo, lo]).tolist() == [0.0, 0.0]
        if gamma <= 0.0:
            assert shell_weight(gamma, [0.0], [hi]).tolist() == [math.inf]
        if gamma < 0.0:
            # the tail's closed form, with numpy's power
            tail = np.array([lo]) ** gamma / -gamma
            assert shell_weight(gamma, [lo], [math.inf]).tolist() == tail.tolist()
        elif gamma > 0.0:
            assert shell_weight(gamma, [0.0], [hi])[0] == pytest.approx(hi**gamma / gamma)
            with pytest.raises(quadrature._Divergent):
                shell_weight(gamma, [lo], [math.inf])

    @given(
        gamma=GAMMAS,
        a=st.floats(1e-3, 1e2),
        r1=st.floats(1e-3, 1e3),
        r2=st.floats(1e-3, 1e3),
        to_infinity=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_additive(self, gamma, a, r1, r2, to_infinity):
        m = a * (1.0 + r1)
        b = math.inf if to_infinity and gamma < 0.0 else m * (1.0 + r2)
        parts = shell_weight(gamma, [a, m], [m, b])
        whole = float(shell_weight(gamma, [a], [b])[0])
        assert float(parts.sum()) == pytest.approx(whole, rel=1e-9)


class TestMemberWindow:
    BETAS = st.one_of(st.just(0.0), st.floats(0.05, 4.0), st.floats(-4.0, -0.05))

    @given(
        v=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
        lam=st.floats(1e-3, 1e3),
        beta=BETAS,
        h=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=1000, deadline=None)
    def test_holds_exactly_inside_the_window(self, v, lam, beta, h):
        lo, hi = member_window(v, lam, beta)
        for edge in (lo, hi):
            assume(not (0.0 < edge < math.inf and abs(h - edge) <= 1e-12 * edge))
        assert (v > lam * h**beta) == (lo < h < hi)

    @given(v=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8), beta=BETAS)
    @settings(max_examples=200, deadline=None)
    def test_edges_are_the_plain_powers(self, v, beta):
        # an array's edges are numpy's power of the array, a float's the
        # Python float power, bit for bit; a float gives scalars
        assume(beta != 0.0)
        arr = np.array(v)
        lo, hi = member_window(arr, 0.7, beta)
        assert np.array_equal(hi if beta > 0.0 else lo, (arr / 0.7) ** (1.0 / beta))
        for vk in v:
            slo, shi = member_window(vk, 0.7, beta)
            assert np.ndim(slo) == np.ndim(shi) == 0
            assert float(shi if beta > 0.0 else slo) == (vk / 0.7) ** (1.0 / beta)


class TestCellWeight:
    # cells [x1, x2] x [h1, h2] against the pair domain x + h < 1, and against
    # the mirror line 2x + h < 1.6, which they meet in the same seven ways
    CELLS = {
        "inside": (0.1, 0.3, 0.2, 0.5),
        "full_width_then_ramp": (0.4, 0.6, 0.3, 0.55),
        "ramp_to_h2": (0.5, 0.9, 0.05, 0.3),
        "ramp_closes_inside": (0.7, 0.8, 0.15, 0.5),
        "last_column": (0.9, 1.0, 1e-3, 0.05),
        "near_diagonal": (0.99, 1.0, 1e-8, 1e-6),
        "beyond": (0.6, 0.8, 0.5, 0.7),
    }
    GAMMAS = (-3.0, -1.0, -0.5, 0.0, 1.0)

    @staticmethod
    def _reference(gamma, x1, x2, h1, h2, top=1.0, slope=1):
        """The x-integral of the exact h-integral of h^(gamma-1) over
        [h1, min(h2, top - slope x)]."""
        with mpmath.workdps(30):
            g, lo = mpmath.mpf(gamma), mpmath.mpf(h1)

            def inner(x):
                b = min(mpmath.mpf(h2), top - slope * x)
                if b <= lo:
                    return mpmath.mpf(0)
                return mpmath.log(b / lo) if gamma == 0.0 else (b**g - lo**g) / g

            edges = ((top - h2) / slope, (top - h1) / slope)
            kinks = sorted({x1, x2, *(k for k in edges if x1 < k < x2)})
            return float(mpmath.quad(inner, kinks))

    @pytest.mark.parametrize("slope,top", [(1, 1.0), (2, 1.6)])
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_matches_quadrature(self, cell, gamma, slope, top):
        x1, x2, h1, h2 = (np.array([v]) for v in self.CELLS[cell])
        got = float(quadrature._cell_weight(gamma, x1, x2, h1, h2, top, slope)[0])
        full = float(((x2 - x1) * shell_weight(gamma, h1, h2))[0])
        exact = self._reference(gamma, *self.CELLS[cell], top=top, slope=slope)
        assert 0.0 <= got <= full
        assert got == pytest.approx(exact, rel=1e-9, abs=0.0)
        if float(slope * x2[0] + h2[0]) <= top:  # wholly inside
            assert got == full
        if float(slope * x1[0] + h1[0]) >= top:  # wholly beyond
            assert got == 0.0

    @pytest.mark.parametrize("slope", [1, 2])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_tiling_sums_to_the_triangle(self, gamma, slope):
        # cells over [0, 1] x [1e-3, 1] cover {x >= 0, 1e-3 <= h, slope x + h < 1},
        # whose weight is the integral of (1 - h) / slope h^(gamma-1) over [1e-3, 1]
        x1, x2, h1, h2 = _grid_cells(0.0, 1.0, 16, 1e-3, 1.0, 12)
        got = float(quadrature._cell_weight(gamma, x1, x2, h1, h2, 1.0, slope).sum())
        with mpmath.workdps(30):
            g = mpmath.mpf(gamma)
            exact = float(mpmath.quad(lambda h: (1 - h) / slope * h ** (g - 1), [1e-3, 1.0]))
        assert got == pytest.approx(exact, rel=1e-10)

    def test_no_edge_keeps_the_shell_weight(self):
        x1, x2, h1, h2 = _grid_cells(0.0, 1.0, 8, 1e-3, 1.0, 8)
        got = quadrature._cell_weight(-0.5, x1, x2, h1, h2, math.inf)
        assert np.array_equal(got, (x2 - x1) * shell_weight(-0.5, h1, h2))


class TestGeometricMid:
    def test_no_underflow(self):
        h1 = np.array([1e-200, 1e-250, 3e-170, 1e-300, 0.25])
        h2 = np.array([2e-200, 1e-249, 1e-169, 1e-299, 1.0])
        mid = quadrature._geometric_mid(h1, h2)
        assert np.all(h1 < mid) and np.all(mid < h2)

    def test_same_bits_where_the_product_is_normal(self):
        rng = np.random.default_rng(5)
        h1 = 10.0 ** rng.uniform(-150, 0, 1000)
        h2 = h1 * 10.0 ** rng.uniform(0, 3, 1000)
        assert np.array_equal(quadrature._geometric_mid(h1, h2), np.sqrt(h1 * h2))

    def test_refine_samples_inside_its_cells(self):
        # cells near h = 1e-200, where h1 h2 underflows: every sampled
        # separation lies in the cells' range and none is 0
        cells = _grid_cells(0.0, 1.0, 8, 1e-201, 1e-199, 6)
        seen = []

        def member(x, h):
            seen.append(np.broadcast_to(h, np.broadcast_shapes(x.shape, h.shape)).ravel())
            return np.broadcast_to(x < 0.37, np.broadcast_shapes(x.shape, h.shape))

        quadrature._refine(member, (*cells, None), 0.5, 0.0, 200_000, math.inf)
        h = np.concatenate(seen)
        assert len(seen) > 1 and np.all(h >= 1e-201) and np.all(h <= 1e-199)


class TestQuotient:
    def test_step_jump_over_distance_two(self):
        step = make_standard("halfline_step")
        assert quotient(step, 0.0, 1.0, -1.0) == pytest.approx(0.5)

    def test_tent_slope(self):
        tent = make_standard("tent")
        assert quotient(tent, 0.0, 0.0, 0.5) == pytest.approx(-1.0)

    def test_ramp_constant_slope(self):
        ramp = make_standard("linear_ramp(3)")
        assert abs(quotient(ramp, 0.0, 0.1, 0.3)) == pytest.approx(3.0)

    def test_coincident_points_rejected(self):
        tent = make_standard("tent")
        with pytest.raises(ValueError):
            quotient(tent, 0.0, 0.3, 0.3)


class TestClosedFormOracle:
    # (-0.5, *) and (0, 1) integrate the weight from h = 0 on the zero-width support
    @pytest.mark.parametrize(
        "gamma,p", [(1.0, 1.0), (-2.0, 1.0), (-0.5, 1.0), (-0.5, 2.0), (0.0, 1.0)]
    )
    @pytest.mark.parametrize("lam", [0.25, 4.0])
    def test_halfline_step(self, gamma, p, lam):
        step = make_standard("halfline_step")
        est = nu_measure(LevelSetQuery(u=step, params=P(gamma, p), lam=lam))
        if p == 1.0:
            exact = halfline_closed_form(gamma, lam)
        else:
            beta = 1.0 + gamma / p
            exact = 2.0 * lam ** (-(gamma + 1.0) / beta) / abs(gamma + 1.0)
        assert est.value == pytest.approx(exact, rel=0.01)

    def test_constant_function_measures_zero(self):
        from slopelab.catalog import TestFunction

        const = TestFunction(
            id="const",
            dim=1,
            eval=lambda x: np.full_like(np.asarray(x, dtype=float), 3.0),
            grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            support=((0.0, 1.0),),
            sup_norm=3.0,
            plateau_left=3.0,
            plateau_right=3.0,
            lip=0.0,
        )
        est = nu_measure(LevelSetQuery(u=const, params=P(-2.0), lam=0.5))
        assert est.value == 0.0


class TestExactOracle:
    @pytest.mark.parametrize("lam", [0.2, 0.5])
    def test_indicator_below_its_jump(self, lam):
        # interval_indicator(1) at gamma=-1/2, p=1: nu = 16 - 8 lam for lam <= 1;
        # both support edges jump, so the cells keep their masks there
        ind = make_standard("interval_indicator(1)")
        est = nu_measure(LevelSetQuery(u=ind, params=P(-0.5), lam=lam))
        assert abs(est.value - (16.0 - 8.0 * lam)) <= est.error_bound

    def test_indicator_above_lambda_one_at_gamma_one(self):
        # with no continuous part only pairs across a jump are members, and the
        # interior (0, 1) has none: no interior pair is sampled, and no strip
        # remainder enters the bound
        ind = make_standard("interval_indicator(1)")
        est = nu_measure(LevelSetQuery(u=ind, params=P(1.0), lam=8.0))
        assert est.evaluations == 0
        assert abs(est.value - 0.25) <= est.error_bound < 1e-6


class TestNearDiagonal:
    def test_no_continuous_part_and_no_jump_is_zero(self):
        cut = near_diagonal(1.0, 2.0, 8.0, lipschitz=0.0, sup=1.0, jump=0.0, jump_set=0,
                            gap=math.inf, extent=1.0)
        assert cut.kind == "zero" and cut.h_cut == math.inf

    def test_no_continuous_part_bounds_the_jump_corners(self):
        cut = near_diagonal(1.0, 2.0, 8.0, lipschitz=0.0, sup=1.0, jump=1.0, jump_set=2,
                            gap=1.0, extent=1.0)
        assert cut.kind == "bounded"
        assert cut.remainder(1e-3) == pytest.approx(2.0 * 1e-6 / 2.0)
        assert cut.remainder(cut.cut_for(1e-6)) == pytest.approx(1e-6)


def riemann_with_tail_oracle(u, gamma, b, lam, h_max, n=4096):
    """Independent brute-force (x, h) Riemann sum plus an analytic far field."""
    lo, hi = u.support[0]
    beta = 1.0 + b
    x_lo, x_hi = lo - h_max, hi
    xs = x_lo + (np.arange(n) + 0.5) * (x_hi - x_lo) / n
    dx = (x_hi - x_lo) / n
    dh = h_max / n
    core = 0.0
    ux = u.eval(xs)
    for j in range(0, n, 256):
        hs = (np.arange(j, min(j + 256, n)) + 0.5) * dh
        member = np.abs(u.eval(xs[:, None] + hs[None, :]) - ux[:, None]) > lam * hs[None, :] ** beta
        core += float((member * hs ** (gamma - 1.0)).sum()) * dx * dh
    # far field: the partner of any member pair beyond h_max sits outside the
    # support, so membership is u's own value against lambda h^beta
    grid = np.linspace(lo, hi, 20001)
    v = np.abs(u.eval(grid))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if beta > 0:
            upper = np.where(v > 0, (v / lam) ** (1.0 / beta), h_max)
            w = np.where(upper > h_max, (upper**gamma - h_max**gamma) / gamma, 0.0)
        elif beta == 0:
            w = np.where(v > lam, h_max**gamma / abs(gamma), 0.0)
        else:
            lower = np.where(v > 0, np.maximum((v / lam) ** (1.0 / beta), h_max), np.inf)
            w = np.where(np.isfinite(lower), lower**gamma / abs(gamma), 0.0)
    tail_one_sided = float(np.trapezoid(w, grid))
    return 2.0 * (core + 2.0 * tail_one_sided)


class TestBruteForceOracle:
    def test_tent_far_field_case(self):
        # gamma=-2, p=1, lambda=10: all mass beyond the support diameter
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(-2.0), lam=10.0))
        oracle = riemann_with_tail_oracle(tent, -2.0, -2.0, 10.0, h_max=4.0)
        assert est.value == pytest.approx(oracle, rel=0.02)
        # hand value: both orientations and both sides of integral of u^2/200
        assert est.value == pytest.approx(1.0 / 600.0, rel=0.02)

    def test_tent_core_dominated_case(self):
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(-2.0, p=2.0), lam=0.3))
        oracle = riemann_with_tail_oracle(tent, -2.0, -1.0, 0.3, h_max=4.5)
        assert est.value == pytest.approx(oracle, rel=0.02)

    def test_smooth_bump_case(self):
        bump = make_standard("smooth_bump")
        est = nu_measure(LevelSetQuery(u=bump, params=P(-0.5), lam=0.2))
        oracle = riemann_with_tail_oracle(bump, -0.5, -0.5, 0.2, h_max=5.0)
        assert est.value == pytest.approx(oracle, rel=0.02)


class TestTruncation:
    def test_empty_annulus(self):
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(-2.0), lam=1.0, annulus=(0.5, 0.5)))
        assert est.value == 0.0

    def test_truncation_exhausts_the_full_measure(self):
        tent = make_standard("tent")
        q = LevelSetQuery(u=tent, params=P(-2.0, p=2.0), lam=0.3)
        full = nu_measure(q).value
        wide = nu_measure(dataclasses.replace(q, annulus=(1e-9, 1e6))).value
        assert wide == pytest.approx(full, rel=0.01)

    def test_annulus_cells_start_at_the_zero_cut(self):
        # only pairs across a jump are members, and those with h < 1/sqrt(8)
        # are: 2 directions x 2 jumps x the integral of h over [1e-3, 8^-1/2]
        prof = make_standard("interval_indicator(1)").line_profile()
        est = measure_line(prof, 1.0, 1.0, 8.0, h_window=(1e-3, 0.5))
        assert est.evaluations == 0 and est.diagnostics["h_cut"] == math.inf
        assert abs(est.value - (0.25 - 2e-6)) <= est.error
        # on the tent the rule's cut (lam / L)^2 = 0.04 lies inside (0.01, 2)
        tent = make_standard("tent").line_profile()
        est = measure_line(tent, -0.5, -0.5, 0.2, h_window=(0.01, 2.0))
        assert est.diagnostics["h_cut"] == pytest.approx(0.04, rel=1e-12)

    def test_bounded_cut_stops_at_the_largest_cell_separation(self):
        # at lambda = 1e-20 the bounded cut for a target the size of the
        # plateau pairs lies far beyond the support; clamped at the span it
        # leaves the interior pairs, of area 1, to its remainder.  The plateau
        # pairs give 4 R with R = int_0^1 (sqrt(u(x) / lam) - (1 - x))_+ dx
        lam = 1e-20
        est = measure_line(make_standard("tent").line_profile(), 1.0, 1.0, lam)
        with mpmath.workdps(30):
            r = mpmath.quad(
                lambda x: max(mpmath.sqrt(min(x, 1 - x) / mpmath.mpf(lam)) - (1 - x), 0),
                [0, 0.5, 1],
            )
            exact = float(4 * r + 1)
        assert exact == pytest.approx(18_856_180_830.64, rel=1e-12)
        assert abs(est.value - exact) <= est.error <= 1e-5 * exact

    def test_annulus_monotone_in_width(self):
        tent = make_standard("tent")
        q = LevelSetQuery(u=tent, params=P(0.0), lam=0.5)
        vals = [nu_measure(dataclasses.replace(q, annulus=(2.0**-k, 1.0))).value for k in (4, 6, 8)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("method", ["grid1d", "montecarlo"])
    @pytest.mark.parametrize(
        "annulus", [(math.nan, 1.0), (0.0, math.nan), (-0.1, 1.0), (0.5, 0.25)]
    )
    def test_invalid_annulus_is_rejected(self, method, annulus):
        # a NaN inner radius used to fail inside numpy under grid1d, and
        # montecarlo measured the whole plane as if there were no annulus
        with pytest.raises(ValueError, match="invalid annulus"):
            LevelSetQuery(
                u=make_standard("tent"), params=P(-0.5), lam=0.2, annulus=annulus, method=method
            )

    @pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.nan)])
    def test_the_engine_rejects_a_nan_window(self, window):
        with pytest.raises(ValueError, match="invalid annulus"):
            measure_line(make_standard("tent").line_profile(), -0.5, -0.5, 0.2, h_window=window)


class TestInvariants:
    def test_monotone_in_lambda(self):
        tent = make_standard("tent")
        lams = np.geomspace(0.05, 2.0, 8)
        vals = [
            nu_measure(LevelSetQuery(u=tent, params=P(-2.0), lam=float(l))).value
            for l in lams
        ]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-12

    def test_negation_invariance_is_exact(self):
        tent = make_standard("tent")
        q1 = LevelSetQuery(u=tent, params=P(-0.5), lam=0.1)
        q2 = LevelSetQuery(u=negate(tent), params=P(-0.5), lam=0.1)
        assert nu_measure(q1).value == nu_measure(q2).value

    def test_reflection_invariance_within_quadrature(self):
        tent = make_standard("tent")
        v1 = nu_measure(LevelSetQuery(u=tent, params=P(-0.5), lam=0.1)).value
        v2 = nu_measure(LevelSetQuery(u=reflect(tent), params=P(-0.5), lam=0.1)).value
        assert v2 == pytest.approx(v1, rel=1e-4)

    def test_dilation_identity(self):
        # measure of a rescaled block equals the scale factor to the power
        # 1 + gamma times the unit-scale measure at the transferred threshold
        gamma, t = -0.5, 16.0
        tent = make_standard("tent")
        lam = 0.05
        lhs = nu_measure(LevelSetQuery(u=dilate(tent, t), params=P(gamma), lam=lam)).value
        rhs = t ** (1.0 + gamma) * nu_measure(
            LevelSetQuery(u=tent, params=P(gamma), lam=lam * t ** (1.0 + gamma))
        ).value
        assert lhs == pytest.approx(rhs, rel=0.02)

    def test_repeat_calls_bit_identical(self):
        tent = make_standard("tent")
        q = LevelSetQuery(u=tent, params=P(1.0), lam=3.0)
        assert nu_measure(q).value == nu_measure(q).value


class TestSentinels:
    def test_zero_exponent_below_lipschitz_diverges(self):
        # the slope verdict: a sampled slope above lambda, after no pair evaluation
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(0.0), lam=0.5))
        assert est.infinite
        assert est.diagnostics["reason"] == "lambda=0.5 below the Lipschitz constant 1.0"
        assert est.diagnostics["max_slope"] > 0.5
        assert est.evaluations == 0

    def test_zero_exponent_divergence_under_a_plateau_mass(self):
        # the plateau mass is large here, but the verdict reads only the slopes
        est = nu_measure(
            LevelSetQuery(u=get("mollified_indicator(4)"), params=P(0.0), lam=1.5)
        )
        assert est.infinite
        assert est.diagnostics["max_slope"] > 1.5
        assert est.evaluations == 0

    def test_zero_exponent_above_lipschitz_vanishes(self):
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(0.0), lam=1.5))
        assert est.value == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_step_diverges_at_gamma_minus_one(self, p):
        step = make_standard("halfline_step")
        est = nu_measure(LevelSetQuery(u=step, params=P(-1.0, p), lam=0.5))
        assert est.infinite

    def test_indicator_diverges_at_gamma_minus_one_below_jump(self):
        ind = make_standard("interval_indicator(1)")
        est = nu_measure(LevelSetQuery(u=ind, params=P(-1.0), lam=0.5))
        assert est.infinite
        est2 = nu_measure(LevelSetQuery(u=ind, params=P(-1.0), lam=1.5))
        assert math.isfinite(est2.value)

    def test_jump_at_constant_threshold_is_not_member(self):
        # membership is strict: a jump of 1 is not above lambda = 1 at b = -1
        prof = make_standard("interval_indicator(1)").line_profile()
        est = measure_line(prof, -2.0, -1.0, 1.0, interior=True)
        assert est.value == 0.0

    def test_budget_error_carries_partial(self):
        tent = make_standard("tent")
        with pytest.raises(BudgetExceededError) as err:
            nu_measure(
                LevelSetQuery(u=tent, params=P(1.0), lam=8.0, rel_tol=1e-6, budget=2000)
            )
        assert err.value.partial.value >= 0.0


class TestSlopeVerdict:
    # at gamma = 0 below the declared Lipschitz constant L the slopes of f
    # decide; on these entries the plateau grid shows a slope within 1% of L
    PROFILES = {
        **{
            fid: (lambda fid=fid: get(fid).line_profile())
            for fid in ("tent", "linear_ramp(3)", "smooth_bump", "mollified_indicator(2)",
                        "mollified_indicator(3)", "mollified_indicator(4)")
        },
        **{
            f"staircase(m={m})": (
                lambda m=m: staircase_function(CantorSpec(gamma=-0.5, m=m)).line_profile()
            )
            for m in range(4)
        },
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_infinite_below_the_constant_and_finite_at_it(self, name):
        prof = self.PROFILES[name]()
        lam = (1.0 - 1e-2) * prof.lipschitz
        below = measure_line(prof, 0.0, 0.0, lam)
        assert below.infinite and below.evaluations == 0
        assert lam < below.diagnostics["max_slope"] <= prof.lipschitz
        assert math.isfinite(measure_line(prof, 0.0, 0.0, prof.lipschitz).value)

    def test_unknown_constant_at_b_minus_one_is_undecided(self):
        u = dataclasses.replace(make_standard("tent"), lip=None)
        with pytest.raises(UndecidedError, match=r"undecided: lambda=0\.5 at b=-1"):
            nu_measure(LevelSetQuery(u=u, params=P(-1.0), lam=0.5))


def _reads(est):
    """[value, error bound, evaluations], floats in hex, as a pin holds them."""
    error = est.error_bound if hasattr(est, "error_bound") else est.error
    return [est.value.hex(), error.hex(), est.evaluations]


def _region_with_narrow_window():
    # a region predicate and an annulus only slightly wider than the
    # separations of the staircase witness rectangle [0, a] x [c, 1]
    spec = CantorSpec(gamma=-0.5, m=1)
    a, c = spec.rho**2, 1.0 - spec.rho**2
    est = measure_line(
        staircase_function(spec).line_profile(), -0.5, -0.5, 0.25, interior=True,
        region=lambda x, y: (x <= a) & (y >= c), h_window=((c - a) * (1.0 - 1e-12), 1.0),
        rel_tol=0.05,
    )
    return [(est.value / 2.0).hex()]


def _budget_partial():
    # the partial reflects the sampling order when the budget runs out
    try:
        nu_measure(LevelSetQuery(u=make_standard("tent"), params=P(1.0), lam=3.0, budget=150_000))
    except BudgetExceededError as err:
        return _reads(err.partial)


def _bench_ladder():
    # the bench's staircase ladder op: A(2) plus the bench's own X(3..6) ops
    est = box_measure_ladder(-0.5, 0.25, 6, m0=2, rel_tol=0.05)
    return [est.value.hex(), est.error.hex()]


# numpy's AVX-512 kernels round some array powers differently from the C
# library's pow; with them disabled, numpy's powers match Python's float
# power.  Every hex pin is read in one fresh interpreter that has them
# disabled, so that the pins do not depend on AVX-512.
PORTABLE_DISPATCH = {
    "NPY_DISABLE_CPU_FEATURES":
        "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"
}
PINNED_READS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_measure
print(json.dumps({name: run() for name, run in test_measure.pinned_runs().items()}))
"""


def pinned_runs():
    """Every pinned computation by name, each returning what its test pins."""
    runs = {
        case: (lambda run=run: _reads(run()))
        for case, (run, _) in TestSharedVertexSampling.PINNED.items()
    }
    runs["region_with_narrow_window"] = _region_with_narrow_window
    runs["budget_partial"] = _budget_partial
    runs["bench_ladder"] = _bench_ladder
    return runs


@pytest.fixture(scope="module")
def pinned_reads():
    return run_fresh(PINNED_READS, str(Path(__file__).parent), env_extra=PORTABLE_DISPATCH)


class TestSharedVertexSampling:
    # (value, error_bound, evaluations) from a full 3x3 sampling of every
    # cell; sampling a split cell on its 5x5 half-step grid must not move a
    # bit.  The line entries are mirrored: their cells cover the half domain
    # 2x + h < 2c, clipped at the mirror line, at half the target and half
    # the cell caps, and count twice.  The staircase's interior queries
    # (box_measure, cross_term) keep the whole box [0, 1]^2, since the
    # staircase declares no mirror, with cells clipped to x + h < 1 where
    # the profile is continuous there; jump edges and region predicates keep
    # their masks and their numbers.
    PINNED = {
        "tent": (
            lambda: nu_measure(LevelSetQuery(u=make_standard("tent"), params=P(-0.5), lam=0.1)),
            ("0x1.46414b775734dp+5", "0x1.ad24518691adcp-8", 289287),
        ),
        "smooth_bump": (
            lambda: nu_measure(
                LevelSetQuery(u=make_standard("smooth_bump"), params=P(1.0), lam=0.5)
            ),
            ("0x1.2932f734c45a4p+1", "0x1.721326d08fdc2p-9", 440019),
        ),
        "mollified_indicator": (
            lambda: nu_measure(
                LevelSetQuery(u=get("mollified_indicator(4)"), params=P(-2.0), lam=0.5)
            ),
            ("0x1.c7d1b9be46601p+3", "0x1.759c3a55f6344p-7", 51804),
        ),
        # b = -1 with no Lipschitz part: zero from the near-diagonal cut alone
        "indicator_b=-1": (
            lambda: nu_measure(
                LevelSetQuery(u=make_standard("interval_indicator(1)"), params=P(-1.0), lam=2.0)
            ),
            ("0x0.0p+0", "0x0.0p+0", 0),
        ),
        "indicator_b<0": (
            lambda: nu_measure(
                LevelSetQuery(u=make_standard("interval_indicator(1)"), params=P(-2.0), lam=0.25)
            ),
            ("0x1.c0000a7f3fdb4p+3", "0x1.f7c3e3e300000p-17", 3060),
        ),
        "box_measure": (
            lambda: box_measure(-0.5, 1.0, 0.25, 3, rel_tol=0.05),
            ("0x1.7f7cc2c427ccfp+4", "0x1.a1c62502fdc4cp-5", 8086662),
        ),
        "cross_term": (
            lambda: cross_term(-0.5, 1.0, 0.25, 3, rel_tol=0.05),
            ("0x1.08306c1889cdbp+2", "0x1.6a94bae1c5cb9p-5", 663885),
        ),
        "annulus": (
            lambda: nu_measure(
                LevelSetQuery(
                    u=make_standard("tent"), params=P(0.0), lam=0.5, annulus=(2**-8, 1.0)
                )
            ),
            ("0x1.3dd746a97baa8p+3", "0x1.0d364b84e8c21p-9", 240084),
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_bit_identical(self, case, pinned_reads):
        assert pinned_reads[case] == list(self.PINNED[case][1])

    def test_unknown_lipschitz_constant_without_slope_is_undecided(self):
        # no slope shows between the indicator's jumps, and with the Lipschitz
        # constant unknown nothing bounds the near-diagonal mass
        u = dataclasses.replace(make_standard("interval_indicator(1)"), lip=None)
        with pytest.raises(
            UndecidedError, match=r"undecided at gamma=0: lambda=0\.5 .* slope 0\.0 "
        ):
            nu_measure(LevelSetQuery(u=u, params=P(0.0), lam=0.5))

    def test_region_with_narrow_window_pinned(self, pinned_reads):
        assert pinned_reads["region_with_narrow_window"] == ["0x1.1aa545e8f826bp-8"]

    def test_budget_partial_pinned(self, pinned_reads):
        assert pinned_reads["budget_partial"] == [
            "0x1.1c8f204ae40d2p-1", "0x1.f60989d60c698p-11", 111276
        ]

    def test_profile_points_at_most_stencil_pairs(self):
        # fresh sampling costs 18 profile points per cell (2 per stencil
        # pair); a split samples its 5x5 half-step grid with 5 + 16 points
        # and hands its four children their 36 stencil pairs, about 0.58
        # points per pair on this staircase
        prof = staircase_function(CantorSpec(gamma=-0.5, m=2)).line_profile()
        points = 0

        def counting_f(x):
            nonlocal points
            points += np.size(x)
            return prof.f(x)

        counted = dataclasses.replace(prof, f=counting_f)
        est = measure_line(counted, -0.5, -0.5, 0.25, interior=True, rel_tol=0.05)
        assert est.value == box_measure(-0.5, 1.0, 0.25, 2, rel_tol=0.05).value
        assert 0 < points <= 0.6 * est.evaluations


class TestStaircaseLadder:
    """``box_measure_ladder`` unrolls the corner identity
    A(m, lam) = A(m - 1, s lam) + X(m, lam) from A(m0)."""

    def test_bench_ladder_pinned(self, pinned_reads):
        assert pinned_reads["bench_ladder"] == ["0x1.2df5aea59a154p+5", "0x1.b67e662b7aa8cp-3"]

    @pytest.mark.parametrize("m0, m", [(-1, 3), (4, 3)])
    def test_generations_out_of_order_rejected(self, m0, m):
        with pytest.raises(ValueError):
            box_measure_ladder(-0.5, 0.25, m, m0=m0)

    def test_agrees_with_direct_box_at_p_one(self):
        ladder = box_measure_ladder(-0.5, 0.25, 4, rel_tol=0.05)
        for m, (value, error) in enumerate(ladder.diagnostics["partial_sums"][1:], start=1):
            direct = box_measure(-0.5, 1.0, 0.25, m, rel_tol=0.05)
            assert abs(value - direct.value) <= error + direct.error, m

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: the ladder's X(4) reads 4.4736 where brute force gives 4.574, "
        "so A(4) = 28.4000 +- 0.0178 misses the direct 28.5338 +- 0.0979",
    )
    def test_agrees_with_direct_box_at_default_tolerance(self):
        ladder = box_measure_ladder(-0.5, 0.25, 4)
        direct = box_measure(-0.5, 1.0, 0.25, 4)
        assert abs(ladder.value - direct.value) <= ladder.error + direct.error

    @staticmethod
    def stub_engine(monkeypatch, calls):
        """Box A(m0) = 10 +- 0.5 and every X(j) = 1 +- 0.25, recording thresholds."""

        def box(gamma, p, lam, m, rel_tol):
            calls.append(("box", m, lam))
            return EngineEstimate(10.0, 0.5, 1)

        def cross(gamma, p, lam, j, rel_tol):
            calls.append(("cross", j, lam))
            return EngineEstimate(1.0, 0.25, 1)

        monkeypatch.setattr(selfsimilar, "box_measure", box)
        monkeypatch.setattr(selfsimilar, "cross_term", cross)

    def test_tail_extends_from_a_deep_base(self, monkeypatch):
        calls = []
        self.stub_engine(monkeypatch, calls)
        est = box_measure_ladder(-0.5, 0.25, 20, m0=9)
        assert [j for kind, j, _ in calls if kind == "cross"] == list(range(10, 18))
        assert est.diagnostics["extended_generations"] == 3
        sums = est.diagnostics["partial_sums"]
        assert [v for v, _ in sums] == [10.0 + k for k in range(12)]
        assert sums[-1] == (est.value, est.error)

    def test_thresholds_rescale_above_p_one(self, monkeypatch):
        # s = 2 rho^(1 + gamma/p) = 2^-1/2 at gamma = -1/2, p = 2; no tail extension
        calls = []
        self.stub_engine(monkeypatch, calls)
        est = box_measure_ladder(-0.5, 0.25, 12, p=2.0)
        s = 2.0 * CantorSpec(gamma=-0.5, m=0).rho ** 0.75
        assert [(kind, j) for kind, j, _ in calls] == [("box", 0)] + [
            ("cross", j) for j in range(1, 13)
        ]
        for kind, j, lam in calls:
            assert lam == pytest.approx(s ** (12 - j) * 0.25, rel=1e-12)
        assert "extended_generations" not in est.diagnostics


class TestBudgetPerQuery:
    def test_slope_verdict_spends_no_budget(self):
        # the gamma = 0 verdict below the Lipschitz constant samples no pair
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(0.0), lam=0.5, budget=2000))
        assert est.infinite
        assert est.evaluations == 0

    @pytest.mark.parametrize(
        "budget", [700, 2_000, 50_000, 130_793, 220_679, 220_680, 527_778, 2_000_000]
    )
    def test_evaluations_within_budget_unless_raised(self, budget):
        # unbudgeted, this query takes 220,680 evaluations in three turns of
        # one refinement; 700 is below its first round of 747 pairs
        tent = make_standard("tent")
        q = LevelSetQuery(u=tent, params=P(1.0), lam=3.0, budget=budget)
        try:
            est = nu_measure(q)
        except BudgetExceededError as err:
            assert budget < 220_680
            assert err.partial.evaluations <= budget
            assert err.partial.error < math.inf
            return
        assert est.evaluations <= budget

    def test_first_round_within_budget(self):
        # the first round of this slice alone samples 134,478 pairs; it must
        # not start under a budget of 20,000
        bump = make_standard("smooth_bump", dim=2)
        prof = bump.slicer(0.0, 19 / 32 * math.sqrt(2.0))
        with pytest.raises(BudgetExceededError) as err:
            measure_line(prof, 1.0, 1.0, 4.0, rel_tol=0.2, budget=20_000)
        assert err.value.partial.evaluations <= 20_000


class TestOneRefinement:
    # tent at gamma = 1, p = 1, lambda = 3: a preview and two passes, the
    # second from scratch, took 261,585 evaluations here (6,435 + 58,527 +
    # 196,623); one refinement of the half domain in three turns takes 220,680
    def test_no_work_is_redone(self):
        est = nu_measure(LevelSetQuery(u=make_standard("tent"), params=P(1.0), lam=3.0))
        assert est.evaluations == 220_680 < 261_585
        assert est.error_bound <= 5e-3 * est.value
        # the value, 0.556, is below 1: the near cut is lowered in place to a
        # remainder of rel_tol scale / 4, in the one-sided units of diagnostics
        assert est.diagnostics["near_remainder"] <= 5e-3 * (est.value / 2.0) / 4.0


class TestMirror:
    """A mirrored profile's cells cover the half domain 2x + h < 2c and count twice."""

    ENTRIES = (
        "tent", "smooth_bump", "interval_indicator(1)", "linear_ramp(3)",
        "mollified_indicator(4)", "ball_indicator(1)",
    )
    # (gamma, p, lambda) of each regime that samples pairs (below the
    # Lipschitz constant, gamma = 0 is the slope verdict, which samples none);
    # None is 1.5 L, or 0.5 with no continuous part
    REGIMES = {
        "gamma>0": (1.0, 1.0, 8.0),
        "gamma=0,lam>L": (0.0, 1.0, None),
        "-1<gamma<0,p=1": (-0.5, 1.0, 0.2),
        "-1<gamma<0,p>1": (-0.5, 2.0, 0.2),
        "gamma<-1": (-2.0, 1.0, 0.25),
    }

    @staticmethod
    def agreeing(prof, gamma, b, lam, **controls):
        """The mirrored and the whole-domain run, which must agree within their bounds."""
        half = measure_line(prof, gamma, b, lam, **controls)
        whole = measure_line(dataclasses.replace(prof, mirror=None), gamma, b, lam, **controls)
        assert half.diagnostics["mirror"] == prof.mirror and "mirror" not in whole.diagnostics
        assert abs(half.value - whole.value) <= half.error + whole.error
        return half, whole

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("fid", ENTRIES)
    def test_line_entries(self, fid, regime):
        u = make_standard(fid)
        gamma, p, lam = self.REGIMES[regime]
        self.agreeing(u.line_profile(), gamma, gamma / p, lam or (1.5 * u.lip if u.lip else 0.5))

    def test_annulus(self):
        self.agreeing(make_standard("smooth_bump").line_profile(), 0.0, 0.0, 0.2,
                      h_window=(2.0**-8, 1.0))

    def test_rotation_slice(self):
        prof = make_standard("smooth_bump", dim=2).slicer(0.0, 0.6)
        self.agreeing(prof, 1.0, 1.0, 4.0, rel_tol=0.2)

    def test_uncapped_query_halves_its_evaluations(self):
        # 1,001,898 against 2,003,607 evaluations, with no round capped
        half, whole = self.agreeing(make_standard("smooth_bump").line_profile(), 1.0, 0.5, 64.0)
        assert half.evaluations / whole.evaluations == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("fid", ENTRIES)
    def test_interior_queries(self, fid, regime, request):
        # the pairs in [lo, hi]^2 are symmetric about the mirror point too
        if (fid, regime) == ("mollified_indicator(4)", "gamma>0"):
            request.applymarker(pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 2: the whole domain reads 0.1501643 +- 0.00018 and the "
                "mirrored half 0.1506860 +- 0.00017; at rel_tol 2e-4 both read 0.15063",
            ))
        u = make_standard(fid)
        gamma, p, lam = self.REGIMES[regime]
        self.agreeing(u.line_profile(), gamma, gamma / p, lam or (1.5 * u.lip if u.lip else 0.5),
                      interior=True)

    def test_regions_and_interfaces_keep_the_whole_domain_and_interior_queries_mirror(self):
        prof = make_standard("tent").line_profile()
        for controls, mirrored in (
            (dict(interior=True), True),
            (dict(interior=True, region=lambda x, y: x < 0.5), False),
            (dict(interface_points=1), False),
        ):
            est = measure_line(prof, 1.0, 1.0, 8.0, rel_tol=0.05, **controls)
            assert ("mirror" in est.diagnostics) == mirrored

    def test_tent_brackets_its_plateau_integral(self):
        # at gamma = -2, p = 1, lambda = 1/4 no interior pair is a member
        # (h |u(x) - u(y)| <= 1/4 on [0, 1]), and the plateau pairs give
        # 2 int_0^1 min((1 - x)^-2, 16 u(x)^2) dx = 8/3 (mpmath).  The cells
        # stop at the mirror line 2x + h = 1, short of the edge x + h = 1,
        # where plateau members beyond the edge would mark straddling cells
        # mixed and leave a bound of about 0.0019
        est = measure_line(make_standard("tent").line_profile(), -2.0, -2.0, 0.25)
        exact = 2.0 * mpmath.quad(
            lambda x: min((1 - x) ** -2, 16 * min(x, 1 - x) ** 2), [0, 0.5, 1]
        )
        assert float(exact) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert abs(est.value - 8.0 / 3.0) <= est.error <= 1e-5


class TestRotationBudget:
    QUERY = dict(
        u=make_standard("smooth_bump", dim=2), params=P(1.0, 1.0, dim=2), lam=4.0, rel_tol=0.1
    )

    def test_slices_share_the_budget(self):
        # unbudgeted, the 33 slices take 865,656 evaluations in all, and no
        # single slice reaches 500,000
        with pytest.raises(BudgetExceededError) as err:
            nu_measure(LevelSetQuery(**self.QUERY, budget=500_000))
        partial = err.value.partial
        assert partial.evaluations <= 500_000
        assert math.isfinite(partial.value) and partial.value > 0.0
        assert partial.error == math.inf
        assert 0 < partial.diagnostics["slices_done"] < partial.diagnostics["slices"]

    @pytest.mark.parametrize("budget", [50_000, 500_000, 2_000_000, 3_600_000, 40_000_000])
    def test_evaluations_within_budget_unless_raised(self, budget):
        try:
            est = nu_measure(LevelSetQuery(**self.QUERY, budget=budget))
        except BudgetExceededError as err:
            assert budget < 865_656
            assert err.partial.evaluations <= budget
            return
        assert est.evaluations <= budget


class TestInputValidation:
    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_rejected(self, lam):
        tent = make_standard("tent")
        with pytest.raises(ValueError):
            LevelSetQuery(u=tent, params=P(-2.0), lam=lam)
        with pytest.raises(ValueError):
            measure_line(tent.line_profile(), -2.0, -2.0, lam)

    @pytest.mark.parametrize(
        "controls,field",
        [
            (dict(rel_tol=0.0), "rel_tol"),
            (dict(rel_tol=math.nan), "rel_tol"),
            (dict(rel_tol=math.inf), "rel_tol"),
            (dict(budget=-5), "budget"),
            (dict(budget=1e6), "budget"),
        ],
    )
    def test_unusable_controls_rejected_at_both_entries(self, controls, field):
        tent = make_standard("tent")
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LevelSetQuery(u=tent, params=P(1.0), lam=8.0, **controls)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            measure_line(tent.line_profile(), 1.0, 1.0, 8.0, **controls)

    def test_region_needs_an_interior_query(self):
        # the plateau pairs do not see a region: on the whole line this one,
        # which admits no pair, read 0.16674 +- 7.1e-5
        tent = make_standard("tent").line_profile()

        def nowhere(x, y):
            return x > 2.0

        with pytest.raises(ValueError, match="region"):
            measure_line(tent, 1.0, 1.0, 2.0, region=nowhere)
        assert measure_line(tent, 1.0, 1.0, 2.0, interior=True, region=nowhere).value == 0.0

    @pytest.mark.parametrize("samples", [0, -3, 2.5])
    def test_monte_carlo_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="^mc_samples must be"):
            LevelSetQuery(u=make_standard("tent"), params=P(1.0), lam=8.0, mc_samples=samples)

    def test_zero_budget_is_a_budget_error_not_a_config_error(self):
        with pytest.raises(BudgetExceededError):
            measure_line(make_standard("tent").line_profile(), 1.0, 1.0, 8.0, budget=0)

    def test_non_finite_cell_weight_raises_before_sampling(self):
        # at lambda = 1e-300 the cells start at h = 1e-250, where h^-2
        # overflows: the engine must stop, not drop those cells
        bump = make_standard("smooth_bump").line_profile()
        calls = 0

        def counting_f(x):
            nonlocal calls
            calls += 1
            return bump.f(x)

        counted = dataclasses.replace(bump, f=counting_f)
        with pytest.raises(ValueError, match="non-finite"):
            measure_line(counted, -2.0, -2.0, 1e-300, interior=True)
        assert calls == 0


def _reference_refine(member, cells, gamma, target, budget_left, top=math.inf, slope=1,
                      min_rounds=2, reached=None):
    """``quadrature._refine`` before blocked sampling, one round at a time.

    Every round samples and concatenates whole arrays and compacts them
    after each weight computation; the children wholly beyond
    slope x + h = ``top`` are compacted away before they are counted, and a
    domain of slope 2 takes half of each cell count.  ``reached`` collects
    the branches taken, so a test can show that its cases cover them.
    """
    max_cells = MAX_CELLS // slope
    reached = set() if reached is None else reached
    x1, x2, h1, h2 = cells
    ok = None
    inside = 0.0
    unresolved = 0.0
    evals = 0
    rounds = 0
    while len(x1):
        w = quadrature._cell_weight(gamma, x1, x2, h1, h2, top, slope)
        if not np.isfinite(w).all():
            raise ValueError("non-finite interior cell weight")
        if (slope * x2 + h2 > top).any():
            reached.add("straddle")
        live = w > 0
        if ok is not None and not live.all():
            reached.add("underflow")
        x1, x2, h1, h2, w = x1[live], x2[live], h1[live], h2[live], w[live]
        if not len(x1):
            break
        if ok is None:
            if evals + 9 * len(x1) > budget_left:
                reached.add("budget_first")
                return inside, unresolved + float(w.sum()), evals, rounds, True
            xs = np.stack([x1, 0.5 * (x1 + x2), x2])
            hs = np.stack([h1, quadrature._geometric_mid(h1, h2), h2])
            ok = member(xs[:, None], hs[None, :])
        else:
            ok = ok[:, :, live]
        evals += ok.size
        counts = ok.sum(axis=(0, 1))
        full = counts == 9
        rounds += 1
        if rounds <= min_rounds and len(x1) <= 40_000 // slope:
            reached.add("explore")
            mixed = ~full
        else:
            mixed = (counts > 0) & ~full
        inside += float(w[full].sum())

        sel = np.flatnonzero(mixed)
        mw = w[sel]
        total_mixed = float(mw.sum())
        if rounds > min_rounds and total_mixed <= target:
            unresolved += total_mixed
            break

        keep = mw > target / (2.0 * max_cells)
        if rounds > min_rounds:
            unresolved += float(mw[~keep].sum())
        else:
            unresolved += float(mw[~keep & (counts[sel] > 0)].sum())
        sel, mw = sel[keep], mw[keep]
        cutoff = max_cells // 4
        if len(sel) > cutoff:
            reached.add("cap")
            order = np.argsort(mw, kind="stable")[::-1]
            unresolved += float(mw[order[cutoff:]].sum())
            sel = sel[order[:cutoff]]
        if not len(sel):
            break
        mx1, mx2, mh1, mh2 = x1[sel], x2[sel], h1[sel], h2[sel]
        xm = 0.5 * (mx1 + mx2)
        hm = quadrature._geometric_mid(mh1, mh2)
        x1 = np.concatenate([mx1, xm, mx1, xm])
        x2 = np.concatenate([xm, mx2, xm, mx2])
        h1 = np.concatenate([mh1, mh1, hm, hm])
        h2 = np.concatenate([hm, hm, mh2, mh2])
        made = slope * x1 + h1 < top
        if evals + 9 * int(made.sum()) > budget_left:
            reached.add("budget_split")
            return inside, unresolved + float(w[sel].sum()), evals, rounds, True
        if len(sel) > 2 * quadrature._BLOCK:
            reached.add("three_blocks")
        xg = np.stack([mx1, 0.5 * (mx1 + xm), xm, 0.5 * (xm + mx2), mx2])
        hg = np.stack([
            mh1, quadrature._geometric_mid(mh1, hm), hm, quadrature._geometric_mid(hm, mh2), mh2
        ])
        g = np.empty((5, 5, len(sel)), dtype=bool)
        g[::2, ::2] = ok[:, :, sel]
        g[1::2] = member(xg[1::2, None], hg[None, :])
        g[::2, 1::2] = member(xg[::2, None], hg[None, 1::2])
        quarters = ((0, 0), (1, 0), (0, 1), (1, 1))
        ok = np.concatenate([g[2 * a:2 * a + 3, 2 * b:2 * b + 3] for a, b in quarters], axis=2)
        if not made.all():
            reached.add("beyond")
            x1, x2, h1, h2, ok = x1[made], x2[made], h1[made], h2[made], ok[:, :, made]
    return inside, unresolved, evals, rounds, False


def _grid_cells(x_lo, x_hi, nx, h_lo, h_hi, nh):
    edges = np.linspace(x_lo, x_hi, nx + 1)
    shells = np.geomspace(h_lo, h_hi, nh + 1)
    return (
        np.repeat(edges[:-1], nh),
        np.repeat(edges[1:], nh),
        np.tile(shells[:-1], nx),
        np.tile(shells[1:], nx),
    )


def _band(x, h):
    # a curved band in (x, log h)
    return np.abs(np.log(h) + 2.0 + np.sin(6.0 * x)) < 0.7


def _stripes(x, h):
    # slanted stripes narrower than the initial cells: almost every cell is mixed
    return np.sin(400.0 * x + 3.0 * np.log(h)) > 0.0


def _x_stripes(x, h):
    # stripes in x alone on the left half, for separations too small for log h
    return (np.sin(400.0 * x) > 0.0) & (x < 0.5) & (h > 0.0)


class TestBlockedRefine:
    # (member, cells, gamma, target, budget, edge of the pair domain, its slope)
    CASES = {
        "band": (_band, (0.0, 1.0, 64, 1e-3, 1.0, 24), 0.5, 1e-7, 10**9, math.inf, 1),
        "band_gamma<0": (_band, (0.0, 1.0, 48, 1e-3, 1.0, 16), -0.5, 1e-5, 10**9, math.inf, 1),
        "stripes_capped": (
            _stripes, (0.0, 1.0, 200, 1e-2, 1.0, 200), -0.5, 1e-9, 12_000_000, math.inf, 1
        ),
        # tiny cells at small h are dropped in the explore rounds, sampled empty or not
        "x_stripes_drop": (
            _x_stripes, (0.0, 1.0, 64, 1e-12, 1.0, 40), 1.0, 1e-4, 3_000_000, math.inf, 1
        ),
        "stripes_first_round_budget": (
            _stripes, (0.0, 1.0, 200, 1e-2, 1.0, 200), 1.0, 1e-3, 1000, math.inf, 1
        ),
        # h^2 underflows below 1.5e-162: cells die in the first and later rounds
        "underflow": (
            _x_stripes, (0.0, 1.0, 16, 1e-165, 1e-130, 12), 2.0, 0.0, 3_000_000, math.inf, 1
        ),
        # the domain ends at x + h = 1: cells straddle it, children beyond it are not made
        "band_edge": (_band, (0.0, 1.0, 64, 1e-3, 1.0, 24), -0.5, 1e-7, 10**9, 1.0, 1),
        # a half domain 2x + h < 1, capped at half the cells
        "band_mirror": (_band, (0.0, 1.0, 64, 1e-3, 1.0, 24), -0.5, 1e-7, 10**9, 1.0, 2),
        "stripes_capped_mirror": (
            _stripes, (0.0, 1.0, 200, 1e-2, 1.0, 200), -0.5, 1e-9, 12_000_000, 1.0, 2
        ),
    }

    @staticmethod
    def _run(case):
        member, grid, gamma, target, budget, top, slope = TestBlockedRefine.CASES[case]
        cells = _grid_cells(*grid)
        reached = set()
        expected = _reference_refine(
            member, cells, gamma, target, budget, top, slope, reached=reached
        )
        inside, _, _, unresolved, evals, rounds, exhausted = quadrature._refine(
            member, (*cells, None), gamma, target, budget, top, slope
        )
        return (inside, unresolved, evals, rounds, exhausted), expected, reached

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_reference(self, case):
        got, expected, _ = self._run(case)
        assert got == expected

    @pytest.mark.parametrize("case", ["band", "underflow", "band_edge", "band_mirror"])
    def test_block_size_does_not_matter(self, case, monkeypatch):
        expected = self._run(case)[1]
        monkeypatch.setattr(quadrature, "_BLOCK", 97)
        assert self._run(case)[0] == expected

    def test_resumed_refinement_is_the_straight_one(self):
        # stopped at 10^4 target and resumed from its frontier at target, the
        # band is refined as in one call at target: the same rounds (the stop
        # round is read twice), evaluations and masses, no pair sampled twice
        member, grid, gamma, target, budget, top, _ = self.CASES["band"]
        cells = (*_grid_cells(*grid), None)
        in1, lost, frontier, un1, ev1, ro1, _ = quadrature._refine(
            member, cells, gamma, 1e4 * target, budget, top
        )
        weight = float(quadrature._cell_weight(gamma, *frontier[:4], top).sum())
        assert un1 == pytest.approx(lost + weight, rel=1e-12)
        in2, _, _, un2, ev2, ro2, _ = quadrature._refine(member, frontier, gamma, target, budget, top)
        straight = quadrature._refine(member, cells, gamma, target, budget, top)
        assert (ev1 + ev2, ro1 + ro2 - 1) == (straight[4], straight[5])
        assert (in1 + in2, lost + un2) == pytest.approx((straight[0], straight[3]), rel=1e-12)

    @pytest.mark.parametrize(
        "case", ["band", "band_edge", "band_gamma<0", "x_stripes_drop", "band_mirror"]
    )
    def test_resumed_refinement_agrees_with_the_straight_one(self, case):
        # resumed from a frontier left at 10 target, with the cells parked
        # below 10 target / (2 MAX_CELLS); the mass dropped past a round's
        # cap stays unresolved
        member, grid, gamma, target, budget, top, slope = self.CASES[case]
        cells = (*_grid_cells(*grid), None)
        in1, lost, frontier, _, ev1, _, _ = quadrature._refine(
            member, cells, gamma, 10 * target, budget, top, slope
        )
        in2, _, _, un2, _, _, _ = quadrature._refine(
            member, frontier, gamma, target, budget - ev1, top, slope
        )
        in_s, _, _, un_s, _, _, _ = quadrature._refine(
            member, cells, gamma, target, budget, top, slope
        )
        un2 += lost
        assert abs(in1 + in2 + un2 / 2.0 - in_s - un_s / 2.0) <= (un2 + un_s) / 2.0

    def test_resume_at_the_stop_samples_nothing(self):
        member, grid, gamma, target, budget, top, _ = self.CASES["band"]
        _, lost, frontier, unresolved, _, _, _ = quadrature._refine(
            member, (*_grid_cells(*grid), None), gamma, 1e4 * target, budget, top
        )

        def unsampled(x, h):
            raise AssertionError("a resumed frontier at its own target samples nothing")

        inside, _, again, same, evals, rounds, exhausted = quadrature._refine(
            unsampled, frontier, gamma, 1e4 * target, budget, top
        )
        assert (inside, evals, rounds, exhausted) == (0.0, 0, 1, False)
        assert lost + same == pytest.approx(unresolved, rel=1e-12)
        assert all(np.array_equal(a, b) for a, b in zip(again, frontier))

    def test_cases_reach_every_branch(self):
        reached = set()
        for case in self.CASES:
            reached |= self._run(case)[2]
        assert reached == {
            "explore", "cap", "three_blocks", "budget_first", "budget_split", "underflow",
            "straddle", "beyond",
        }
