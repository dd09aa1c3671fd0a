"""The measure engine against closed forms, brute force, and its invariants."""

import dataclasses
import math

import numpy as np
import pytest

from slopelab.analysis import rectangle_floor_measure
from slopelab.cantor import CantorSpec, staircase_function
from slopelab.catalog import dilate, get, make_standard, negate, reflect
from slopelab.constants import halfline_closed_form
from slopelab.measure import BudgetExceededError, LevelSetQuery, nu_measure, quotient
from slopelab.params import Params
from slopelab.quadrature import _weight_vec, measure_line
from slopelab.selfsimilar import box_measure, cross_term


def P(gamma, p=1.0, dim=1):
    return Params(dim=dim, p=p, gamma=gamma)


class TestWeightVec:
    def test_from_zero_diverges_for_negative_gamma(self):
        # a RuntimeWarning from 0 ** gamma would fail the suite
        a = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        b = np.array([1.0, np.inf, 0.0, 4.0, np.inf])
        w = _weight_vec(-0.5, a, b)
        assert w.tolist() == [np.inf, np.inf, 0.0, 1.0, 2.0]

    def test_from_zero_for_nonnegative_gamma(self):
        assert _weight_vec(0.5, np.array([0.0]), np.array([4.0])).tolist() == [4.0]


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
            compact_support=False,
            sup_norm=3.0,
            plateau_left=3.0,
            plateau_right=3.0,
            lip=0.0,
        )
        est = nu_measure(LevelSetQuery(u=const, params=P(-2.0), lam=0.5))
        assert est.value == 0.0


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

    def test_annulus_monotone_in_width(self):
        tent = make_standard("tent")
        q = LevelSetQuery(u=tent, params=P(0.0), lam=0.5)
        vals = [nu_measure(dataclasses.replace(q, annulus=(2.0**-k, 1.0))).value for k in (4, 6, 8)]
        assert vals[0] < vals[1] < vals[2]


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
        tent = make_standard("tent")
        est = nu_measure(LevelSetQuery(u=tent, params=P(0.0), lam=0.5))
        assert est.infinite
        assert "probe" in est.diagnostics or "reason" in est.diagnostics

    def test_zero_exponent_divergence_under_a_plateau_mass(self):
        # a logarithmic divergence raises the total by under 10% per halving
        # here, because the plateau mass is large; the increments stay level
        est = nu_measure(
            LevelSetQuery(u=get("mollified_indicator(4)"), params=P(0.0), lam=1.5)
        )
        assert est.infinite
        assert est.diagnostics["probe"] == "confirmed divergent"

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
        est = measure_line(prof, -2.0, -1.0, 1.0, pair_box=(0.0, 1.0))
        assert est.value == 0.0

    def test_budget_error_carries_partial(self):
        tent = make_standard("tent")
        with pytest.raises(BudgetExceededError) as err:
            nu_measure(
                LevelSetQuery(u=tent, params=P(1.0), lam=8.0, rel_tol=1e-6, budget=2000)
            )
        assert err.value.partial.value >= 0.0


class TestSharedVertexSampling:
    # (value, error_bound, evaluations) from a full 3x3 sampling of every
    # cell; sampling a split cell on its 5x5 half-step grid must not move a bit
    PINNED = {
        "tent": (
            lambda: nu_measure(LevelSetQuery(u=make_standard("tent"), params=P(-0.5), lam=0.1)),
            ("0x1.4641027c1075fp+5", "0x1.7b271ef149a34p-8", 2134422),
        ),
        "smooth_bump": (
            lambda: nu_measure(
                LevelSetQuery(u=make_standard("smooth_bump"), params=P(1.0), lam=0.5)
            ),
            ("0x1.29314c079a715p+1", "0x1.93467f1573462p-9", 1112508),
        ),
        "mollified_indicator": (
            lambda: nu_measure(
                LevelSetQuery(u=get("mollified_indicator(4)"), params=P(-2.0), lam=0.5)
            ),
            ("0x1.c7c73e2e31763p+3", "0x1.185e06e877454p-7", 1742346),
        ),
        # the probe path where it stabilizes: with the Lipschitz constant
        # unknown the probe runs, and its increments are exactly 0
        "stabilized": (
            lambda: nu_measure(
                LevelSetQuery(
                    u=dataclasses.replace(make_standard("interval_indicator(1)"), lip=None),
                    params=P(0.0),
                    lam=0.5,
                )
            ),
            ("0x1.b172d46a504b0p+2", "0x1.e0e3712840000p-14", 28917),
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
            ("0x1.c0000a7f3fdb4p+3", "0x1.f7c3e3e300000p-17", 9639),
        ),
        "box_measure": (
            lambda: box_measure(-0.5, 1.0, 0.25, 3, rel_tol=0.05),
            ("0x1.7f7c7d53d777ap+4", "0x1.c06006efa9590p-5", 8717598),
        ),
        "cross_term": (
            lambda: cross_term(-0.5, 1.0, 0.25, 3, rel_tol=0.05),
            ("0x1.082dc1221c961p+2", "0x1.68b85471fadb6p-5", 754524),
        ),
        "annulus": (
            lambda: nu_measure(
                LevelSetQuery(
                    u=make_standard("tent"), params=P(0.0), lam=0.5, annulus=(2**-8, 1.0)
                )
            ),
            ("0x1.3dd4f3a7bd6d3p+3", "0x1.e9a262c8115a0p-10", 1736568),
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_bit_identical(self, case):
        run, (value, error, evaluations) = self.PINNED[case]
        est = run()
        error_bound = est.error_bound if hasattr(est, "error_bound") else est.error
        assert est.value == float.fromhex(value)
        assert error_bound == float.fromhex(error)
        assert est.evaluations == evaluations

    def test_region_with_narrow_window_pinned(self):
        # a region predicate and an annulus only slightly wider than the
        # witness rectangle's separations
        value = rectangle_floor_measure(-0.5, 1.0, 0.25, rel_tol=0.05)
        assert value == float.fromhex("0x1.1ade0819ce4f1p-8")

    def test_budget_partial_pinned(self):
        # the partial reflects the sampling order when the budget runs out
        tent = make_standard("tent")
        with pytest.raises(BudgetExceededError) as err:
            nu_measure(LevelSetQuery(u=tent, params=P(1.0), lam=3.0, budget=250_000))
        partial = err.value.partial
        assert partial.value == float.fromhex("0x1.427c61c78e9bcp+0")
        assert partial.error == float.fromhex("0x1.a112a1f27cfc6p-1")
        assert partial.evaluations == 247644

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
        est = measure_line(counted, -0.5, -0.5, 0.25, pair_box=(0.0, 1.0), rel_tol=0.05)
        assert est.value == box_measure(-0.5, 1.0, 0.25, 2, rel_tol=0.05).value
        assert 0 < points <= 0.6 * est.evaluations


class TestBudgetPerQuery:
    def test_probe_exhaustion_raises_with_partial(self):
        # 2,000 evaluations cannot settle divergence: the probe must say
        # so rather than return inf
        tent = make_standard("tent")
        with pytest.raises(BudgetExceededError) as err:
            nu_measure(LevelSetQuery(u=tent, params=P(0.0), lam=0.5, budget=2000))
        partial = err.value.partial
        assert math.isfinite(partial.value) and partial.value > 0.0
        assert partial.diagnostics["probe"] == "budget exhausted"

    @pytest.mark.parametrize("budget", [2_000, 50_000, 250_000, 527_778, 2_000_000])
    def test_evaluations_within_budget_unless_raised(self, budget):
        # unbudgeted, this query takes 1,055,556 evaluations over a preview
        # and two passes; at 2,000 the preview alone spends the budget
        tent = make_standard("tent")
        q = LevelSetQuery(u=tent, params=P(1.0), lam=3.0, budget=budget)
        try:
            est = nu_measure(q)
        except BudgetExceededError as err:
            assert budget < 1_055_556
            assert err.partial.evaluations <= budget
            assert err.partial.error < math.inf
            return
        assert est.evaluations <= budget

    def test_first_round_within_budget(self):
        # the first round of this slice alone samples 151,632 pairs; it must
        # not start under a budget of 20,000
        bump = make_standard("smooth_bump", dim=2)
        prof = bump.slicer(0.0, 19 / 32 * math.sqrt(2.0))
        with pytest.raises(BudgetExceededError) as err:
            measure_line(prof, 1.0, 1.0, 4.0, rel_tol=0.2, budget=20_000)
        assert err.value.partial.evaluations <= 20_000


class TestRotationBudget:
    QUERY = dict(
        u=make_standard("smooth_bump", dim=2), params=P(1.0, 1.0, dim=2), lam=4.0, rel_tol=0.1
    )

    def test_slices_share_the_budget(self):
        # unbudgeted, the 33 slices take 3,523,698 evaluations in all, and no
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
            assert budget <= 3_523_698
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
            measure_line(counted, -2.0, -2.0, 1e-300, pair_box=(-1.0, 1.0))
        assert calls == 0
