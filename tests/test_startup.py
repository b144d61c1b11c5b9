"""Start-up: the package imports, builds and solves one-control problems without scipy."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from trajopt.envs import build_problem
from trajopt.linesearch import StopCriteria, solve

ROOT = Path(__file__).resolve().parents[1]

# Builds every env under every discretizer, solves a pendulum and a
# cart-pole, records the scipy modules loaded so far, then solves a
# bicycle-car (two controls, so its stages factor with LAPACK).
CHILD = """
import dataclasses, json, sys
import numpy as np
import trajopt, trajopt.envs
from trajopt.envs import ENV_DISCRETIZERS, build_problem
from trajopt.linesearch import StopCriteria, solve

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for env, schemes in ENV_DISCRETIZERS.items():
    for scheme in schemes:
        build_problem(env, 5, scheme)
for env in ("pendulum", "cartpole"):
    problem = build_problem(env, 10)
    solve(problem, np.zeros((10, problem.n_u)), "gn", stop=StopCriteria(max_iters=3))
before = scipy_modules()
problem = build_problem("bicycle-car", 10)
_, trace = solve(problem, np.zeros((10, problem.n_u)), "ddp-lq", stop=StopCriteria(max_iters=3))
rows = [[float(v).hex() for k, v in dataclasses.asdict(row).items() if k != "time_ms"]
        for row in trace.rows]
print(json.dumps({"before": before, "after": scipy_modules(), "rows": rows}))
"""


def test_one_control_work_loads_no_scipy_and_cars_load_it_at_the_first_solve():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["before"] == []
    assert "scipy.linalg" in child["after"]

    problem = build_problem("bicycle-car", 10)
    _, trace = solve(problem, np.zeros((10, problem.n_u)), "ddp-lq", stop=StopCriteria(max_iters=3))
    rows = [[float(v).hex() for k, v in dataclasses.asdict(row).items() if k != "time_ms"]
            for row in trace.rows]
    assert child["rows"] == rows
