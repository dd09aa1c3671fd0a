"""Experiment layer: classification, sweeps, recovery, growth, energy."""

import dataclasses
import math

import numpy as np
import pytest

from slopelab import analysis
from slopelab.analysis import (
    InconclusiveError,
    bbm_functional,
    cantor_growth,
    detect_divergence,
    estimate_lipschitz,
    geometric_grid,
    mollified_indicator_growth,
    sweep,
    weak_norm,
)
from slopelab import catalog
from slopelab.catalog import make_standard
from slopelab.params import Params
from slopelab.quadrature import UndecidedError


def P(gamma, p=1.0):
    return Params(dim=1, p=p, gamma=gamma)


CONST = catalog.TestFunction(
    id="const",
    dim=1,
    eval=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0),
    grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    support=((0.0, 1.0),),
    sup_norm=1.0,
    plateau_left=1.0,
    plateau_right=1.0,
    grad_bv=0.0,
    grad_lp=lambda p: 0.0,
    lip=0.0,
)


class TestDetectDivergence:
    def test_constant_values_converge(self):
        lams = np.geomspace(1, 2**-10, 8)
        assert detect_divergence(lams, np.full(8, 2.0)) == "converged"

    def test_growing_values_diverge(self):
        lams = np.geomspace(1, 2**-10, 8)
        vals = np.linspace(1, 10, 8)
        assert detect_divergence(lams, vals) == "diverging"

    def test_all_zero_converges(self):
        lams = np.geomspace(1, 2**-10, 8)
        assert detect_divergence(lams, np.zeros(8)) == "converged"

    def test_infinities_diverge(self):
        lams = np.geomspace(1, 2**-10, 6)
        vals = np.array([1.0, 2.0, math.inf, math.inf, math.inf, math.inf])
        assert detect_divergence(lams, vals) == "diverging"

    def test_needs_six_points(self):
        with pytest.raises(ValueError):
            detect_divergence([1, 2, 3], [1, 1, 1])


class TestSweep:
    def test_constant_function_sweeps_to_zero(self):
        s = sweep(CONST, P(1.0), geometric_grid(1, 64, 7))
        assert s.classification == "converged"
        assert s.limit_estimate == 0.0
        assert s.sup_estimate == 0.0

    def test_sandwich_limit_below_sup(self):
        tent = make_standard("tent")
        s = sweep(tent, P(1.0), geometric_grid(4, 4096, 11))
        assert s.classification == "converged"
        assert s.limit_estimate <= s.sup_estimate * (1.0 + 1e-9)

    def test_wrong_direction_decays_to_zero(self):
        tent = make_standard("tent")
        s = sweep(tent, P(1.0), geometric_grid(1.0, 2.0**-10, 6))
        assert s.values[-1] < 0.05 * max(s.values[0], 1e-30)

    def test_sup_estimate_keeps_infinite_points(self):
        tent = make_standard("tent")
        s = sweep(tent, P(0.0), geometric_grid(0.5, 2.0, 6))
        assert np.isinf(s.values[:3]).all() and np.all(s.values[3:] == 0.0)
        assert s.sup_estimate == math.inf

    def test_measure_monotone_along_grid(self):
        tent = make_standard("tent")
        s = sweep(tent, P(-2.0, p=2.0), geometric_grid(1.0, 2.0**-6, 8))
        raw = s.values / s.lambdas ** 2.0
        assert np.all(np.diff(raw) >= -1e-9 * raw[:-1] - 1e-12)

    def test_step_sweep_is_constant_hence_converged(self):
        step = make_standard("halfline_step")
        s = sweep(step, P(-2.0), geometric_grid(1.0, 2.0**-8, 7))
        assert s.classification == "converged"
        assert s.limit_estimate == pytest.approx(2.0, rel=1e-6)

    def test_analytic_tail_never_exceeds_value(self):
        from slopelab.measure import LevelSetQuery, nu_measure

        tent = make_standard("tent")
        for gamma, lam in ((-2.0, 0.3), (1.0, 2.0), (-3.0, 0.05)):
            est = nu_measure(LevelSetQuery(u=tent, params=P(gamma), lam=lam))
            assert est.tail_analytic <= est.value + 1e-15


class TestLipschitzRecovery:
    def test_constant_is_zero(self):
        assert estimate_lipschitz(CONST) == 0.0

    def test_scaled_ramp(self):
        ramp = make_standard("linear_ramp(3)")
        assert estimate_lipschitz(ramp) == pytest.approx(3.0, rel=0.10)

    @pytest.mark.parametrize(
        "fid,iterations,expected",
        [
            ("linear_ramp(3)", 10, 3.0010122724324346),
            ("linear_ramp(3)", 3, 2.953652291878999),
            ("smooth_bump", 10, 0.7984605136406973),
            ("mollified_indicator(2)", 10, 7.9972928519699495),
            ("mollified_indicator(3)", 10, 15.994585703939899),
        ],
    )
    def test_bisection_on_the_engine_verdict(self, fid, iterations, expected):
        assert estimate_lipschitz(make_standard(fid), iterations=iterations) == expected

    def test_tent_brackets_from_below(self):
        # every lambda below the declared constant 1 reads infinite
        assert 0.999 <= estimate_lipschitz(make_standard("tent")) <= 1.0

    def test_a_constant_below_the_sampled_slope_fails_loudly(self):
        tent = dataclasses.replace(make_standard("tent"), lip=0.5)
        with pytest.raises(
            ValueError, match=r"sampled slope 0\.99999.* exceeds the declared Lipschitz constant 0\.5"
        ) as excinfo:
            estimate_lipschitz(tent)
        assert not isinstance(excinfo.value, UndecidedError)  # a faulty declaration

    def test_a_loose_constant_leaves_its_band_undecided(self):
        # lambda = 1 lies in [max_slope, 1.25): the engine says so at once
        tent = dataclasses.replace(make_standard("tent"), lip=1.25)
        with pytest.raises(UndecidedError, match=r"undecided at gamma=0: lambda=1\.0 "):
            estimate_lipschitz(tent)

    @pytest.mark.parametrize("fid", ["interval_indicator(1)", "halfline_step"])
    def test_jumps_are_rejected(self, fid):
        with pytest.raises(ValueError, match="jumps at x"):
            estimate_lipschitz(make_standard(fid))

    def test_no_threshold_below_the_cap(self):
        with pytest.raises(InconclusiveError):
            estimate_lipschitz(make_standard("linear_ramp(1000000)"))


class TestTruncation:
    @pytest.mark.parametrize(
        "fid,lam", [("tent", 0.5), ("smooth_bump", 0.5), ("linear_ramp(3)", 2.0)]
    )
    def test_shells_add_up_to_the_nested_annuli(self, fid, lam):
        from slopelab.measure import LevelSetQuery, nu_measure

        u = make_standard(fid)
        ks = list(range(4, 15))
        vals = analysis.truncated_zero_weight_values(u, lam, ks)
        direct = np.array([
            nu_measure(
                LevelSetQuery(u=u, params=P(0.0), lam=lam, annulus=(2.0**-k, 1.0), rel_tol=1e-2)
            ).value
            for k in ks
        ])
        assert vals[0] == direct[0]
        assert np.all(np.abs(vals - direct) <= 2e-3 * direct)

    @pytest.mark.parametrize("ks", [[4, 4], [6, 5], [-1, 2]])
    def test_depths_must_increase_from_zero(self, ks):
        with pytest.raises(ValueError):
            analysis.truncated_zero_weight_values(make_standard("tent"), 0.5, ks)


class TestWeakNorm:
    def test_step_is_exactly_flat(self):
        step = make_standard("halfline_step")
        wn = weak_norm(step, P(-2.0), count=17)
        assert wn == pytest.approx(2.0, rel=1e-6)

    def test_constant_gives_zero(self):
        assert weak_norm(CONST, P(1.0), count=9) == 0.0

    def test_needs_six_grid_points(self):
        with pytest.raises(ValueError):
            weak_norm(CONST, P(1.0), count=5)

    @pytest.mark.parametrize("fid,gamma,p", [("tent", 1.0, 2.0), ("smooth_bump", -2.0, 1.0)])
    def test_is_the_sweeps_supremum(self, fid, gamma, p):
        u = make_standard(fid)
        grid = geometric_grid(2.0**-14, 2.0**14, 9)
        swept = sweep(u, P(gamma, p=p), grid, rel_tol=1e-2).sup_estimate
        assert weak_norm(u, P(gamma, p=p), count=9, rel_tol=1e-2) == swept

    def test_infinite_at_gamma_zero(self):
        tent = make_standard("tent")
        assert weak_norm(tent, P(0.0), lam_lo=0.5, lam_hi=2.0, count=6) == math.inf

    def test_gate_bounds_for_smooth_entries(self):
        tent = make_standard("tent")
        for gamma in (2.0, -3.0):
            wn = weak_norm(tent, P(gamma), count=17)
            limit = 2.0 / abs(gamma) * tent.grad_l1
            assert math.isfinite(wn)
            assert wn >= 0.95 * limit
            assert wn <= 100.0 * tent.grad_l1


class TestGrowthFamilies:
    def test_cantor_floor_matches_closed_form(self):
        from slopelab.cantor import CantorSpec, staircase_function
        from slopelab.quadrature import measure_line
        from slopelab.selfsimilar import corner_rectangle_weight

        # the engine over the one-sided witness rectangle [0, a] x [c, 1],
        # where every pair is a member
        spec = CantorSpec(gamma=-0.5, m=1)
        a, c = spec.rho**2, 1.0 - spec.rho**2
        engine = measure_line(
            staircase_function(spec).line_profile(), -0.5, -0.5, 0.25, interior=True,
            region=lambda x, y: (x <= a) & (y >= c), h_window=((c - a) * (1.0 - 1e-12), 1.0),
        ).value / 2.0
        closed = corner_rectangle_weight(-0.5, 0.25)
        assert engine == pytest.approx(closed, rel=0.02)

    def test_cantor_growth_small_range(self):
        seq = cantor_growth(-0.5, 1.0, range(1, 4))
        assert np.all(np.diff(seq.values) > 0)
        for r in seq.records:
            assert r.value >= 0.98 * r.floor

    def test_cantor_growth_from_a_deep_generation(self):
        # at p = 1 one ladder from A(0) runs to the deepest generation asked
        # for, so the shallower generations in the range change nothing
        deep = cantor_growth(-0.5, 1.0, [5], rel_tol=0.1).records[0]
        both = cantor_growth(-0.5, 1.0, [4, 5], rel_tol=0.1).records[1]
        assert (deep.m, deep.value.hex(), deep.error.hex()) == (
            both.m, both.value.hex(), both.error.hex()
        )

    def test_cantor_growth_reads_the_extended_tail(self, monkeypatch):
        # past LADDER_STABLE_AFTER the records are the ladder's extended
        # partial sums; engine stubbed: A(0) = 10, every X(j) = 1
        from slopelab import selfsimilar
        from slopelab.quadrature import EngineEstimate

        monkeypatch.setattr(selfsimilar, "box_measure", lambda *a, **k: EngineEstimate(10.0, 0.5))
        monkeypatch.setattr(selfsimilar, "cross_term", lambda *a, **k: EngineEstimate(1.0, 0.25))
        seq = cantor_growth(-0.5, 1.0, [3, 12])
        assert seq.values.tolist() == [13.0, 22.0]

    @pytest.mark.parametrize("m_range", [[], [-1, 2]])
    def test_cantor_growth_needs_generations(self, m_range):
        with pytest.raises(ValueError):
            cantor_growth(-0.5, 1.0, m_range)

    def test_cantor_growth_nondecreasing_above_p_one(self):
        seq = cantor_growth(-0.2, 2.0, range(1, 4))
        assert np.all(np.diff(seq.values) >= 0)

    @pytest.mark.parametrize(
        "m, value, error", [(1, 420.2447, 0.069), (2, 843.1155, 0.600), (3, 1686.4179, 4.98)]
    )
    def test_cantor_growth_above_p_one_matches_direct_box(self, m, value, error):
        # direct box_measure(-0.5, 2.0, GROWTH_LAMBDA, m) at the default tolerance
        rec = cantor_growth(-0.5, 2.0, [m]).records[0]
        assert abs(rec.value - value) <= rec.error + error

    def test_admissibility_guard_for_p_above_one(self):
        with pytest.raises(ValueError):
            cantor_growth(-0.5, 2.0, range(1, 8))

    def test_mollified_cap_for_p_above_one(self):
        with pytest.raises(ValueError):
            mollified_indicator_growth(2.0, range(2, 9))

    def test_mollified_witness_region_membership(self):
        from slopelab.catalog import mollified_indicator
        from slopelab.measure import quotient

        m = 4
        v = mollified_indicator(m, dim=1)
        rng = np.random.default_rng(31)
        xs = rng.uniform(-(1 - 2.0**-m), 1 - 2.0**-m, 100)
        ys = rng.uniform(1 + 2.0**-m, 2.0, 100) * rng.choice([-1, 1], 100)
        for x, y in zip(xs, ys):
            assert abs(quotient(v, -1.0, x, y)) > 1.0


class TestEnergyCurve:
    def test_constant_is_zero(self):
        curve = bbm_functional(CONST, 1.0, 2.0, [0.2, 0.1])
        assert curve.values == (0.0, 0.0)

    def test_indicator_diverges_for_p_two(self):
        ind = make_standard("interval_indicator(1)")
        curve = bbm_functional(ind, 2.0, 2.0, [0.2, 0.1])
        assert all(math.isinf(v) for v in curve.values)

    def test_s_domain_validated(self):
        with pytest.raises(ValueError):
            bbm_functional(make_standard("tent"), 1.0, 2.0, [0.2, 1.5])

    @pytest.mark.parametrize(
        "p, radius, field",
        [(0.5, 2.0, "p"), (math.inf, 2.0, "p"), (math.nan, 2.0, "p"),
         (1.0, 0.0, "radius"), (1.0, math.inf, "radius"), (1.0, math.nan, "radius")],
    )
    def test_p_and_radius_validated(self, p, radius, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            bbm_functional(make_standard("tent"), p, radius, [0.2, 0.1])


class TestRegimeGate:
    def test_unbounded_family_ratio_grows(self):
        # the weak-type ratio against the gradient mass grows along the
        # mollified family (total variation stays 4 while the measure grows)
        seq = mollified_indicator_growth(1.0, (2, 5))
        ratios = seq.values / 4.0
        assert ratios[1] > ratios[0]
