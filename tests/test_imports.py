"""The line engine, the staircases and the 1-D CLI commands start without scipy.

scipy serves only the reference sides of the formulas (gradient norms by
adaptive quadrature, kappa(p, N >= 2) through log-gamma) and the stopping
decomposition, and each of those loads it where it is called.  Each check
runs in a fresh interpreter, because the rest of the suite imports scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_PARTS = ("scipy.integrate", "scipy.optimize", "scipy.special")


def run_fresh(script: str, *args: str) -> list[str]:
    """Run ``script`` in a new interpreter; its last output line is a JSON list."""
    env = dict(os.environ)
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

for fid in catalog.STANDARD_IDS + ("mollified_indicator(3)",):
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
print(json.dumps(sorted(m for m in %r if m in sys.modules)))
""" % (SCIPY_PARTS,)


def test_line_engine_staircases_and_cli_measure_load_no_scipy(tmp_path):
    assert run_fresh(LINE_WORK, str(tmp_path / "measure.csv")) == []


ON_DEMAND = """
import json, math, sys
from slopelab import catalog, constants

before = sorted(m for m in %r if m in sys.modules)
assert abs(constants.kappa(2, 2) - math.pi) < 1e-12
bump = catalog.make_standard("smooth_bump", dim=2)
assert 0.0 < bump.grad_l1 < math.inf
print(json.dumps([before, sorted(m for m in %r if m in sys.modules)]))
""" % (SCIPY_PARTS, SCIPY_PARTS)


def test_planar_norms_and_kappa_load_scipy_on_demand():
    before, after = run_fresh(ON_DEMAND)
    assert before == []
    assert {"scipy.special", "scipy.integrate"} <= set(after)
