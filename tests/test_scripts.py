"""Smoke runs of the experiment drivers under scripts/."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trajopt.envs import ENV_DISCRETIZERS, build_problem
from trajopt.errors import DivergenceError, DomainError, ParameterError, ShapeError
from trajopt.oracles import ORACLE_KINDS, forward

from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]


def _horizon_scaling(*args):
    """The kind rows and the ratio rows of one ``horizon_scaling.py`` run, split into cells."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "horizon_scaling.py"), *args, "--reps", "1"],
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [row.split() for row in proc.stdout.splitlines()[1:]]
    return rows[:len(ORACLE_KINDS)], rows[len(ORACLE_KINDS):]


def _peaks(row):
    return [float(cell.removesuffix("KiB")) for cell in row[2::2]]


def test_horizon_scaling_prints_one_row_per_oracle_kind():
    rows, _ = _horizon_scaling("--horizons", "20,40")
    assert [row[0] for row in rows] == list(ORACLE_KINDS)
    for row in rows:  # per horizon: a time, then the peak of one oracle call
        assert [cell[-2:] for cell in row[1::2]] == ["ms", "ms"]
        peaks = _peaks(row)
        assert len(peaks) == 2 and 0.0 < peaks[0] < peaks[1]


def test_horizon_scaling_prints_the_criterion_3_ratios_of_an_env():
    rows, ratios = _horizon_scaling("--env", "pendulum", "--horizons", "10")
    peaks = {row[0]: _peaks(row)[0] for row in rows}
    assert [row[0] for row in ratios] == ["ne/gn", "ddp-q/gn"]
    for (label, ratio), kind in zip(ratios, ("ne", "ddp-q")):
        assert float(ratio) == pytest.approx(peaks[kind] / peaks["gn"], abs=0.01)
    # from zero controls every bicycle-car sweep but gd's stops early at its
    # start ridge: its row names the stage in place of a time and a peak
    rows, ratios = _horizon_scaling("--env", "bicycle-car", "--horizons", "10")
    assert [row[1:] for row in rows[1:]] == [["stop@7"], ["stop@8"], ["stop@7"], ["stop@8"]]
    assert ratios == [["ne/gn", "-"], ["ddp-q/gn", "-"]]


def _compare_traces(dir_a, dir_b):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_traces.py"), str(dir_a), str(dir_b)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def test_compare_traces_ignores_only_time_ms(tmp_path):
    from trajopt.cli import main as cli_main

    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = cli_main(["benchmark", "--env", "pendulum", "--algo", "gn,ne",
                         "--linesearch", "directional,regularized", "--horizon", "10",
                         "--max-iters", "3", "--out", str(d / "pendulum")])
        assert code == 0
    same = _compare_traces(*dirs)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "5 CSV files agree" in same.stdout

    # a time_ms change is not a difference
    cell = dirs[1] / "pendulum" / "pendulum_ne_directional_h10.csv"
    lines = cell.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index("time_ms")] = "123456.0"
    lines[2] = ",".join(row)
    cell.write_text("\n".join(lines) + "\n")
    assert _compare_traces(*dirs).returncode == 0

    # a last-bit change in a cost is, and the first differing row is printed
    row[header.index("cost")] = repr(float(row[header.index("cost")]) * (1 + 2**-52))
    lines[2] = ",".join(row)
    cell.write_text("\n".join(lines) + "\n")
    diff = _compare_traces(*dirs)
    assert diff.returncode == 1
    assert "pendulum_ne_directional_h10.csv line 3" in diff.stdout
    assert row[header.index("cost")] in diff.stdout

    # so is a cell present on one side only
    cell.unlink()
    missing = _compare_traces(*dirs)
    assert missing.returncode == 1
    assert "only under" in missing.stdout


def test_oracle_hashes_reads_an_error_as_its_family_and_stage():
    hashes = load_script("oracle_hashes")
    assert hashes._error(DivergenceError(3, "one wording")) == "NumericError t=3"
    assert hashes._error(DivergenceError(3, "another")) == "NumericError t=3"
    assert hashes._error(DomainError("log", -1.0)) == "NumericError t=None"
    assert hashes._error(ShapeError("u")) == "ShapeError t=None"
    assert hashes._error(ParameterError("nu")) == "ParameterError t=None"


def test_oracle_hashes_feeds_the_curvature_over_every_pair():
    hashes = load_script("oracle_hashes")
    bundle = forward(build_problem("pendulum", 100), np.zeros((100, 1)), 2, 2)
    assert bundle.curvature_pairs.tolist() == [0, 3, 5]
    full = np.zeros((100, 2, 6))
    full[..., [0, 3, 5]] = bundle.curvature
    digests = []
    for b in (bundle, dataclasses.replace(bundle, curvature=full, curvature_pairs=None)):
        digest = hashlib.sha256()
        hashes._feed_bundle(digest, b)
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]


def test_oracle_hashes_prints_two_hashes_per_cell():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oracle_hashes.py"), "pendulum"],
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    # one coefficient digest per bundled track comes first
    tracks, cells = lines[:2], lines[2:]
    assert [name for name, _ in tracks] == ["track/simple", "track/complex"]
    assert tracks[0][1] != tracks[1][1]
    # each allowed discretizer x horizons 7 and 30 x seeds 0 and 1
    assert [name for name, _, _ in cells] == [
        f"pendulum/{scheme}/h{h}/seed{seed}"
        for scheme in ENV_DISCRETIZERS["pendulum"] for h in (7, 30) for seed in (0, 1)
    ]
    # an oracle digest and a solve digest per cell
    digests = [digest for _, *pair in cells for digest in pair]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests)
    assert len(set(digests)) == len(digests)
