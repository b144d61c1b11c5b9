"""Smoke runs of the experiment drivers under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

from trajopt.oracles import ORACLE_KINDS

ROOT = Path(__file__).resolve().parents[1]


def test_horizon_scaling_prints_one_row_per_oracle_kind():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "horizon_scaling.py"),
         "--horizons", "20,40", "--reps", "1"],
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(ORACLE_KINDS)
