"""Calibrated stopping-time intervals."""

import math

import mpmath
import numpy as np
import pytest

from slopelab.catalog import make_standard, mollified_indicator
from slopelab.stopping import stopping_intervals


def unit_indicator(t):
    return ((0.0 <= t) & (t <= 1.0)).astype(float)


def smooth_density(t):
    return np.maximum(0.0, 1.0 - np.abs(t)) ** 2


class TestUnitIndicator:
    def test_two_intervals_with_exact_endpoints(self):
        # defining equation solved by hand: first |I|^2 = 1/2, then
        # (a3 - a2)(1 - a2) = 1/2
        dec = stopping_intervals(unit_indicator, (0.0, 1.0), -2.0, breakpoints=(0.0, 1.0))
        assert dec.k == 2
        expected = (0.0, math.sqrt(0.5), math.sqrt(0.5) + 0.5 / (1.0 - math.sqrt(0.5)))
        for a, b in zip(dec.endpoints, expected):
            assert a == pytest.approx(b, abs=1e-13)

    def test_residuals_meet_the_defining_equation(self):
        dec = stopping_intervals(unit_indicator, (0.0, 1.0), -2.0, breakpoints=(0.0, 1.0))
        assert len(dec.residuals) == dec.k
        assert max(abs(r) for r in dec.residuals) < 1e-10

    def test_cover_reaches_past_the_support(self):
        dec = stopping_intervals(unit_indicator, (0.0, 1.0), -2.0, breakpoints=(0.0, 1.0))
        assert dec.endpoints[0] == 0.0
        assert dec.endpoints[-1] >= 1.0


class TestEdgeCases:
    def test_tiny_support_single_interval(self):
        eps = 1e-3
        f = lambda t: ((0.0 <= t) & (t <= eps)).astype(float)
        dec = stopping_intervals(f, (0.0, eps), -2.0, breakpoints=(0.0, eps))
        assert dec.k == 1
        # |I| * eps = 1/2 forces |I| = 500, far beyond the support
        assert dec.endpoints[1] == pytest.approx(0.5 / eps, rel=1e-9)

    def test_smooth_density(self):
        dec = stopping_intervals(smooth_density, (-1.0, 1.0), -1.5, breakpoints=(-1.0, 0.0, 1.0))
        assert dec.endpoints[-1] >= 1.0
        assert max(abs(r) for r in dec.residuals) < 1e-10

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            stopping_intervals(unit_indicator, (0.0, 1.0), -0.5)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            stopping_intervals(np.zeros_like, (0.0, 1.0), -2.0)

    @pytest.mark.parametrize(
        "height,length,gamma,start",
        [
            # the first interval: (1/2 / 1/4)^(1/0.0001) = 2^10000
            (0.25, 1.0, -1.0001, "0"),
            # the third: after two intervals of about 1/2, a mass of 0.0986 is
            # left, and (1/2 / 0.0986)^500 exceeds the double range
            (1.0, 1.1, -1.002, "1.00138"),
        ],
    )
    def test_interval_past_the_double_range_is_rejected(self, height, length, gamma, start):
        def f(t):
            return np.full_like(t, height)

        with pytest.raises(ValueError, match=f"interval from {start} is longer than the double range"):
            stopping_intervals(f, (0.0, length), gamma, breakpoints=(0.0, length))


class TestNearGammaMinusOne:
    # at gamma = -1.001 the least interval length (1/2 / mass)^1000 underflows
    # to 0 once the mass exceeds 1/2; the step cap used to divide by it
    @pytest.mark.parametrize(
        "fid,k",
        [
            ("interval_indicator(2.5)", 5),
            ("ball_indicator(1)", 4),
            ("mollified_indicator(3)", 8),
            ("mollified_indicator(6)", 8),
        ],
    )
    def test_mass_above_one_half(self, fid, k):
        u = make_standard(fid)
        lo, hi = u.support[0]
        dec = stopping_intervals(u.eval, (lo, hi), -1.001, breakpoints=u.breakpoints)
        assert dec.k == k
        assert dec.endpoints[0] == lo and dec.endpoints[-1] >= hi
        assert max(abs(r) for r in dec.residuals) <= 1e-15


MOLLIFIED = mollified_indicator(3)
ORACLE_CASES = {
    "mollified_indicator(3)": (MOLLIFIED.eval, MOLLIFIED.support[0], -1.1, MOLLIFIED.breakpoints),
    "smooth_density": (smooth_density, (-1.0, 1.0), -1.5, (-1.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_residuals_against_mpmath(case):
    """Each interval's calibration, integrated by mpmath between the breakpoints."""
    f, support, gamma, breakpoints = ORACLE_CASES[case]
    dec = stopping_intervals(f, support, gamma, breakpoints=breakpoints)
    g = lambda t: float(f(np.array([float(t)]))[0])
    with mpmath.workdps(30):
        for a, b in zip(dec.endpoints, dec.endpoints[1:]):
            pieces = [a, *sorted(p for p in breakpoints if a < p < b), b]
            mass = mpmath.quad(g, pieces)
            residual = (mpmath.mpf(b) - a) ** -(gamma + 1) * mass - mpmath.mpf(0.5)
            assert abs(residual) <= 1e-14, (a, b, float(residual))
