"""Exact constants against independent numerical oracles."""

import math

import mpmath
import numpy as np
import pytest

from slopelab.constants import halfline_closed_form, kappa, sphere_area

RTOL = 1e-12


def sphere_average_oracle_2d(p: float) -> float:
    """Direct angular integral of |cos t|^p over the unit circle."""
    pieces = [0, mpmath.pi / 2, 3 * mpmath.pi / 2, 2 * mpmath.pi]
    return float(mpmath.quad(lambda t: abs(mpmath.cos(t)) ** p, pieces))


class TestKappa:
    def test_two_point_sphere(self):
        assert kappa(1.0, 1) == 2.0

    def test_plane_p1(self):
        assert kappa(1.0, 2) == pytest.approx(4.0, rel=RTOL)
        assert kappa(1.0, 2) == pytest.approx(sphere_average_oracle_2d(1.0), rel=1e-10)

    def test_plane_p2(self):
        assert kappa(2.0, 2) == pytest.approx(math.pi, rel=RTOL)
        assert kappa(2.0, 2) == pytest.approx(sphere_average_oracle_2d(2.0), rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 5.0, 17.0])
    def test_dim_one_is_two_for_every_p(self, p):
        assert kappa(p, 1) == 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa(0.5, 2)
        with pytest.raises(ValueError):
            kappa(2.0, 0)


class TestSphereArea:
    def test_small_dimensions(self):
        assert sphere_area(1) == 2.0
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=RTOL)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=RTOL)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_consistency_with_kappa_at_p2(self, dim):
        # the mean of a squared coordinate over the sphere is 1/dim
        assert kappa(2.0, dim) == pytest.approx(sphere_area(dim) / dim, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sphere_area(0)


class TestHalflineClosedForm:
    @pytest.mark.parametrize(
        "gamma,lam,expected",
        [(1.0, 1.0, 1.0), (-2.0, 1.0, 2.0), (-3.0, 0.1, 10.0)],
    )
    def test_values(self, gamma, lam, expected):
        assert halfline_closed_form(gamma, lam) == pytest.approx(expected, rel=RTOL)

    def test_homogeneity_in_lambda(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            gamma = float(rng.uniform(-4, 4))
            if abs(gamma + 1.0) < 1e-3:
                continue
            lam = float(2.0 ** rng.uniform(-8, 8))
            assert lam * halfline_closed_form(gamma, lam) == pytest.approx(
                halfline_closed_form(gamma, 1.0), rel=1e-14
            )

    def test_excluded_exponent(self):
        with pytest.raises(ValueError):
            halfline_closed_form(-1.0, 1.0)
        with pytest.raises(ValueError):
            halfline_closed_form(1.0, 0.0)
