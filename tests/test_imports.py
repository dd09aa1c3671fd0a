"""slopelab runs without scipy.

The line engine, the staircases, the radial entries in dims 2 and 3, both
planar engines, Monte Carlo in dim 3, the gradient norms and the stopping
decomposition (both on a numpy Gauss-Legendre rule) and kappa (math.lgamma)
load none of it.  Each check runs in a fresh interpreter, so that nothing
the test process has loaded counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# the last line of every check: the scipy modules loaded, as JSON
SCIPY_LOADED = """
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def run_fresh(script: str, *args: str, env_extra: dict | None = None):
    """Run ``script`` in a new interpreter, with ``env_extra`` added to the
    environment; its last output line is JSON, returned decoded."""
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LINE_WORK = """
import json, sys
import slopelab
from slopelab import catalog, cli, selfsimilar
from slopelab.cantor import CantorSpec, staircase_function
from slopelab.measure import LevelSetQuery, nu_measure
from slopelab.params import Params

for fid in catalog.REGISTRY:
    u = catalog.make_standard(fid)
    nu_measure(LevelSetQuery(u=u, params=Params(dim=1, p=1.0, gamma=1.0), lam=4.0,
                             method="grid1d", rel_tol=0.05))
for m in range(7):
    staircase_function(CantorSpec(gamma=-0.5, m=m)).line_profile()
selfsimilar.box_measure(-0.5, 1.0, 0.3, 1, rel_tol=0.05)
selfsimilar.cross_term(-0.5, 1.0, 0.3, 2, rel_tol=0.05)
selfsimilar.box_measure_ladder(-0.5, 0.3, 3, m0=1, rel_tol=0.05)
code = cli.main(["measure", "--fn", "tent", "--gamma", "-2", "--p", "1", "--lambda", "0.25",
                 "--out", sys.argv[1]])
assert code == 0, code
""" + SCIPY_LOADED


def test_line_engine_staircases_and_cli_measure_load_no_scipy(tmp_path):
    assert run_fresh(LINE_WORK, str(tmp_path / "measure.csv")) == []


PLANAR_WORK = """
import json, math, sys
import numpy as np
from slopelab import catalog, constants
from slopelab.cantor import CantorSpec, staircase_function
from slopelab.measure import LevelSetQuery, nu_measure
from slopelab.params import Params

for dim in (2, 3):
    for p in (1.0, 1.5, 2.0):
        assert math.isfinite(constants.kappa(p, dim))
assert abs(constants.sphere_area(3) - 4.0 * math.pi) < 1e-12
for u in (catalog.make_standard("smooth_bump", dim=2), catalog.mollified_indicator(3, dim=2)):
    assert u.grad_l1 == u.grad_lp(1.0)
    assert all(0.0 < u.grad_lp(p) < math.inf for p in (1.0, 1.5, 2.0))
ball = catalog.make_standard("ball_indicator", dim=2)
assert ball.grad_l1 is None and ball.grad_lp is None
assert 0.0 < catalog.make_standard("smooth_bump").grad_lp(2.0) < math.inf
assert 0.0 < staircase_function(CantorSpec(gamma=-0.5, m=2)).grad_lp(2.0) < math.inf
params = Params(dim=2, p=1.0, gamma=1.0)
for method in ("rotation2d", "montecarlo"):
    est = nu_measure(LevelSetQuery(u=ball, params=params, lam=4.0, method=method,
                                   rel_tol=0.1, mc_samples=20_000))
    assert np.isfinite(est.value), est
# N = 3: every radial entry builds, and auto sends the query to Monte Carlo
solids = [catalog.make_standard(name, dim=3) for name, (_, _, radial) in catalog.REGISTRY.items()
          if radial]
assert [u.dim for u in solids] == [3, 3, 3]
est = nu_measure(LevelSetQuery(u=solids[0], params=Params(dim=3, p=1.0, gamma=1.0), lam=64.0,
                               mc_samples=20_000))
assert est.method == "montecarlo" and np.isfinite(est.value), est
""" + SCIPY_LOADED


def test_planar_entries_norms_constants_and_engines_load_no_scipy():
    assert run_fresh(PLANAR_WORK) == []


STOPPING_WORK = """
import json, sys
from slopelab import acceptance, cli

code = cli.main(["stopping", "--fn", "interval_indicator(1)", "--gamma", "-2",
                 "--out", sys.argv[1]])
assert code == 0, code
assert acceptance.run_one(11)["passed"]
""" + SCIPY_LOADED


def test_stopping_command_and_criterion_load_no_scipy(tmp_path):
    assert run_fresh(STOPPING_WORK, str(tmp_path / "stopping.csv")) == []
