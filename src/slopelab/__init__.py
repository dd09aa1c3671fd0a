"""Numerical laboratory for recovering gradient norms from weighted level
sets of difference quotients: exact constants, a catalog of test functions
including self-similar staircase constructions, a singular-quadrature measure
engine with rotation and Monte Carlo backends, and experiment drivers for
limits, weak-type quasi-norms, and divergence certification.
"""

from .analysis import (
    Sweep,
    bbm_functional,
    bv_indicator_limit,
    cantor_growth,
    detect_divergence,
    estimate_lipschitz,
    mollified_indicator_growth,
    series_divergence,
    sweep,
    weak_norm,
)
from .cantor import CantorSpec, block_function, counterexample_series, staircase, staircase_deriv
from .catalog import TestFunction, dilate, get, make_standard, mollified_indicator
from .constants import halfline_closed_form, kappa, sphere_area
from .measure import (
    BudgetExceededError,
    LevelSetQuery,
    MeasureEstimate,
    nu_measure,
    quotient,
)
from .params import Params
from .stopping import StoppingDecomposition, stopping_intervals

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CantorSpec",
    "LevelSetQuery",
    "MeasureEstimate",
    "Params",
    "StoppingDecomposition",
    "Sweep",
    "TestFunction",
    "bbm_functional",
    "block_function",
    "bv_indicator_limit",
    "cantor_growth",
    "counterexample_series",
    "detect_divergence",
    "dilate",
    "estimate_lipschitz",
    "get",
    "halfline_closed_form",
    "kappa",
    "make_standard",
    "mollified_indicator",
    "mollified_indicator_growth",
    "nu_measure",
    "quotient",
    "series_divergence",
    "sphere_area",
    "staircase",
    "staircase_deriv",
    "stopping_intervals",
    "sweep",
    "weak_norm",
    "__version__",
]
