"""Cross-method consistency: line grid, rotation slicing, Monte Carlo."""

import math

import numpy as np
import pytest

from slopelab.catalog import get, make_standard, mollified_indicator, scale_values
from slopelab.constants import sphere_area
from slopelab.measure import LevelSetQuery, nu_measure
from slopelab.params import Params
from slopelab.quadrature import max_slope, measure_line


def P(gamma, p=1.0, dim=1):
    return Params(dim=dim, p=p, gamma=gamma)


class TestRotation:
    # rotation2d integrates one direction over offsets s >= 0 only; that is
    # exact when the slice at (theta, s) measures the same as the one at (0, -s)
    @pytest.mark.parametrize(
        "fid", ["smooth_bump", "ball_indicator(1)", "mollified_indicator(3)"]
    )
    def test_slices_depend_only_on_the_offset_magnitude(self, fid):
        u = get(fid, dim=2)
        for theta, s in [(0.3, 0.0), (2.1, 0.3), (1.2, 0.7)]:
            a = measure_line(u.slicer(theta, s), 1.0, 1.0, 2.0)
            b = measure_line(u.slicer(0.0, -s), 1.0, 1.0, 2.0)
            assert (a.value, a.error) == (b.value, b.error)

    def test_disc_value_pinned(self):
        # no pair inside a slice is a member: the slices' values are their
        # plateau interactions, with no near-diagonal remainder
        ball = get("ball_indicator(1)", dim=2)
        est = nu_measure(LevelSetQuery(u=ball, params=P(1.0, dim=2), lam=2.0))
        assert est.value == pytest.approx(6.215976452427306, rel=1e-12)
        assert est.error_bound == pytest.approx(0.10701524999691919, rel=1e-6)
        assert est.evaluations == 0

    def test_rotation_matches_montecarlo_on_the_disc(self):
        ball = get("ball_indicator(1)", dim=2)
        rot = nu_measure(LevelSetQuery(u=ball, params=P(1.0, dim=2), lam=2.0))
        mc = nu_measure(
            LevelSetQuery(
                u=ball, params=P(1.0, dim=2), lam=2.0,
                method="montecarlo", seed=7, mc_samples=300_000,
            )
        )
        assert abs(rot.value - mc.value) <= rot.error_bound + mc.error_bound

    def test_rotation_matches_montecarlo_on_radial_smooth(self):
        bump = get("smooth_bump", dim=2)
        q = dict(u=bump, params=P(-2.0, dim=2), lam=0.1)
        rot = nu_measure(LevelSetQuery(**q))
        mc = nu_measure(
            LevelSetQuery(**q, method="montecarlo", seed=11, mc_samples=300_000)
        )
        assert abs(rot.value - mc.value) <= rot.error_bound + mc.error_bound

    def test_requires_a_slicer(self):
        tent = make_standard("tent")
        with pytest.raises(ValueError):
            nu_measure(LevelSetQuery(u=tent, params=P(1.0), lam=1.0, method="rotation2d"))


def random_cases(n=20):
    """Deterministic roster of (function, gamma, p, lambda) in finite regimes."""
    rng = np.random.default_rng(991)
    smooth = ["tent", "smooth_bump", "mollified_indicator(2)"]
    cases = []
    while len(cases) < n:
        fid = smooth[rng.integers(len(smooth))] if rng.random() < 0.8 else "interval_indicator(1)"
        gamma = float(rng.choice([1.0, 1.7, 2.4, -1.4, -2.2, -3.1]))
        p = float(rng.choice([1.0, 2.0]))
        if fid.startswith("interval") and gamma < 0:
            p = 1.0  # jump corners diverge for p > 1 at gamma <= -1
            if 1.0 + gamma / p >= 0.0:
                continue
        lam = float(2.0 ** rng.uniform(-3, 1))
        cases.append((fid, gamma, p, lam))
    return cases


class TestCrossMethod1D:
    @pytest.mark.parametrize("fid,gamma,p,lam", random_cases())
    def test_grid_and_montecarlo_agree(self, fid, gamma, p, lam):
        u = get(fid)
        grid = nu_measure(LevelSetQuery(u=u, params=P(gamma, p), lam=lam))
        mc = nu_measure(
            LevelSetQuery(
                u=u, params=P(gamma, p), lam=lam,
                method="montecarlo", seed=5, mc_samples=160_000,
            )
        )
        assert math.isfinite(grid.value)
        slack = grid.error_bound + mc.error_bound + 1e-9
        assert abs(grid.value - mc.value) <= slack

    def test_cells_at_the_precision_floor(self):
        # at gamma=0.01 the near-diagonal cut is clamped to PRECISION_FLOOR:
        # cells reach h = 1e-250, where the product of two separations
        # underflows, and their midpoints must not
        tent = make_standard("tent")
        q = dict(u=tent, params=P(0.01), lam=0.5)
        grid = nu_measure(LevelSetQuery(**q))
        assert grid.diagnostics["near_floor_clamped"]
        mc = nu_measure(LevelSetQuery(**q, method="montecarlo", seed=3, mc_samples=200_000))
        assert abs(grid.value - mc.value) <= grid.error_bound + mc.error_bound


class TestVerdicts:
    # both engines take their divergence verdict from one near-diagonal rule
    FUNCTIONS = {
        "tent": lambda: make_standard("tent"),
        "interval_indicator(1)": lambda: make_standard("interval_indicator(1)"),
        "interval_indicator(1)*3": lambda: scale_values(
            make_standard("interval_indicator(1)"), 3.0
        ),
        "smooth_bump": lambda: make_standard("smooth_bump"),
        "mollified_indicator(3)": lambda: get("mollified_indicator(3)"),
    }
    CASES = [(-2, 1, 0.25), (-1, 1, 0.5), (-1, 1, 2), (-1, 1, 4),
             (-0.5, 1, 0.2), (0, 1, 0.3), (0, 1, 5), (1, 1, 8)]

    @pytest.mark.parametrize("gamma,p,lam", CASES)
    @pytest.mark.parametrize("fid", sorted(FUNCTIONS))
    def test_grid_and_montecarlo_agree_on_divergence(self, fid, gamma, p, lam):
        u = self.FUNCTIONS[fid]()
        q = dict(u=u, params=P(float(gamma), float(p)), lam=float(lam))
        grid = nu_measure(LevelSetQuery(**q))
        mc = nu_measure(LevelSetQuery(**q, method="montecarlo", seed=1, mc_samples=50_000))
        assert grid.infinite == mc.infinite


class TestVerdicts2D:
    # the indicator's jump of size 1 meets lambda < 1 at gamma = -1: one
    # divergent slice makes the whole rotation2d query inf, and Monte Carlo
    # takes the same verdict from the near-diagonal rule
    @pytest.mark.parametrize("method", ["rotation2d", "montecarlo"])
    @pytest.mark.parametrize("lam,infinite", [(0.5, True), (2.0, False)])
    def test_disc_indicator_at_gamma_minus_one(self, method, lam, infinite):
        disc = make_standard("ball_indicator(1)", dim=2)
        est = nu_measure(LevelSetQuery(u=disc, params=P(-1.0, 1.0, dim=2), lam=lam,
                                       method=method, seed=1))
        if infinite:
            assert est.value == est.error_bound == math.inf
            assert "diverges" in est.diagnostics["reason"]
        else:
            assert est.value == est.error_bound == 0.0


class TestSlopeVerdict2D:
    # at gamma = 0 rotation2d reads the slope of its central slice first, and
    # Monte Carlo reads the same slice
    @pytest.mark.parametrize("method", ["rotation2d", "montecarlo"])
    @pytest.mark.parametrize("factor,infinite", [(0.5, True), (1.5, False)])
    def test_smooth_bump(self, method, factor, infinite):
        bump = make_standard("smooth_bump", dim=2)
        est = nu_measure(LevelSetQuery(u=bump, params=P(0.0, 1.0, dim=2), lam=factor * bump.lip,
                                       method=method, seed=1))
        if infinite:
            assert est.value == est.error_bound == math.inf
            assert "below the Lipschitz constant" in est.diagnostics["reason"]
            # both report the slope that decided, that of the central slice
            assert est.diagnostics["max_slope"] == max_slope(bump.slicer(0.0, 0.0))
        else:
            assert est.value == est.error_bound == 0.0

    @pytest.mark.parametrize("dim", [3, 4])
    def test_monte_carlo_reads_the_same_chord_in_higher_dims(self, dim):
        # a radial chord depends on neither direction nor dim
        bump = make_standard("smooth_bump", dim=dim)
        est = nu_measure(LevelSetQuery(u=bump, params=P(0.0, 1.0, dim=dim), lam=0.5 * bump.lip))
        assert est.method == "montecarlo" and est.value == est.error_bound == math.inf
        planar = make_standard("smooth_bump", dim=2)
        assert est.diagnostics["max_slope"] == max_slope(planar.slicer(0.0, 0.0))


class TestMonteCarloInThreeDimensions:
    # a radial u has measure (1/2) |S^(N-1)| |S^(N-2)| int_0^R s^(N-2) nu(s) ds
    # over the line measures nu(s) of its chords at offset s; rotation2d is
    # N = 2.  At N = 3 that integral, on 33 offsets, is a reference for Monte
    # Carlo independent of its sampling
    @pytest.mark.parametrize(
        "fid,gamma,p,lam",
        [
            ("smooth_bump", 1.0, 1.0, 8.0),
            ("mollified_indicator(3)", 1.0, 2.0, 64.0),
            ("ball_indicator(1)", 1.0, 1.0, 4.0),
        ],
    )
    def test_agrees_with_the_chord_integral(self, fid, gamma, p, lam):
        u = make_standard(fid, dim=3)
        s = np.linspace(0.0, u.support[0][1], 33)
        values, errors = np.zeros_like(s), np.zeros_like(s)
        for j, offset in enumerate(s[:-1]):  # the chord at s = R is a point
            est = measure_line(u.slicer(0.0, float(offset)), gamma, gamma / p, lam, rel_tol=1e-2)
            values[j], errors[j] = est.value, est.error
        c = 0.5 * sphere_area(3) * sphere_area(2)
        ref = c * np.trapezoid(s * values, s)
        ref_error = abs(ref - c * np.trapezoid((s * values)[::2], s[::2]))
        ref_error += c * np.trapezoid(s * errors, s)
        mc = nu_measure(LevelSetQuery(u=u, params=P(gamma, p, dim=3), lam=lam, seed=1,
                                      mc_samples=100_000))
        assert mc.method == "montecarlo"
        assert abs(mc.value - ref) <= mc.error_bound + ref_error


class TestMonteCarlo:
    def test_seed_reproducibility(self):
        tent = make_standard("tent")
        q = dict(u=tent, params=P(-2.0), lam=0.3, method="montecarlo", mc_samples=50_000)
        a = nu_measure(LevelSetQuery(**q, seed=3))
        b = nu_measure(LevelSetQuery(**q, seed=3))
        c = nu_measure(LevelSetQuery(**q, seed=4))
        assert a.value == b.value
        assert a.value != c.value

    def test_mc_samples_is_a_target_not_a_cap(self):
        # the strata share the target by weight, and each draws at least 64
        est = nu_measure(LevelSetQuery(u=make_standard("tent"), params=P(1.0), lam=8.0,
                                       method="montecarlo", mc_samples=1))
        assert est.diagnostics["strata"] == 6
        assert est.evaluations == 6 * 64

    def test_jump_at_constant_threshold_is_not_member(self):
        # membership is strict: a jump of 1 is not above lambda = 1 at b = -1
        ball = get("ball_indicator(1)", dim=2)
        est = nu_measure(
            LevelSetQuery(
                u=ball, params=P(-2.0, 2.0, dim=2), lam=1.0,
                method="montecarlo", seed=3, mc_samples=20_000,
            )
        )
        assert est.value == 0.0

    def test_rejects_noncompact_support(self):
        step = make_standard("halfline_step")
        with pytest.raises(ValueError):
            nu_measure(LevelSetQuery(u=step, params=P(-2.0), lam=1.0, method="montecarlo"))

    def test_mollified_level_sets(self):
        v = mollified_indicator(3, dim=1)
        grid = nu_measure(LevelSetQuery(u=v, params=P(-1.0), lam=1.0))
        mc = nu_measure(
            LevelSetQuery(
                u=v, params=P(-1.0), lam=1.0,
                method="montecarlo", seed=13, mc_samples=200_000,
            )
        )
        assert abs(grid.value - mc.value) <= grid.error_bound + mc.error_bound
