"""Regime triple: derived quotient exponent and validation."""

import math

import pytest

from slopelab.params import Params


class TestParams:
    def test_derived_exponent_exact(self):
        pr = Params(dim=1, p=2.0, gamma=-3.0)
        assert pr.b * pr.p == pr.gamma

    def test_validation(self):
        with pytest.raises(ValueError):
            Params(dim=0, p=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            Params(dim=1, p=0.5, gamma=1.0)

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("gamma", math.inf), ("gamma", -math.inf),
        ("p", math.nan), ("p", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"dim": 1, "p": 1.0, "gamma": 1.0, field: value}
        with pytest.raises(ValueError):
            Params(**kwargs)
