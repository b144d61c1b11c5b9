"""The benchmark's tracer wraps package functions by name; they must exist and be hit."""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from trajopt.envs import build_problem
from trajopt.linesearch import LineSearchConfig, StopCriteria, solve

from conftest import counted_problem

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def layers():
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(layers):
    names = [(module, attr) for module, attr, _ in layers.SPANS + layers.COUNTS]
    assert names
    for module, attr in names:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize(
    "kind, rule", [("ne", "directional"), ("ddp-q", "regularized"), ("ddp-lq", "regularized")]
)
def test_every_layer_of_a_solve_is_traced(layers, kind, rule):
    problem = build_problem("pendulum", 20)
    u0 = 0.01 * np.random.default_rng(1).standard_normal((20, problem.n_u))
    tracer = layers.LayerTracer(time.perf_counter)
    with tracer:
        _, trace = tracer.solve(
            solve, problem, u0, kind, LineSearchConfig(rule=rule), StopCriteria(max_iters=3)
        )
    assert trace.iterations >= 1
    for layer in (
        "oracles.forward.expand",
        "oracles.objective_value",
        "oracles.run_backward",
        "lqsolve.check_subproblem",
        "lqsolve.stage",
        "oracles.rollout",
    ):
        assert tracer.calls[layer] > 0, layer
    searches = tracer.calls["linesearch.directional_search"]
    assert (searches > 0) == (rule == "directional")


def test_the_trial_formula_counts_the_trial_rolls(layers):
    """perfbench counts a directional solve's trials as objective_value calls less
    searches; each is one roll, and the roll of the start is the only other one."""
    horizon = 20
    problem, counts = counted_problem(build_problem("pendulum", horizon))
    u0 = 0.01 * np.random.default_rng(1).standard_normal((horizon, problem.n_u))
    tracer = layers.LayerTracer(time.perf_counter)
    with tracer:
        _, trace = tracer.solve(solve, problem, u0, "ne", LineSearchConfig(),
                                StopCriteria(max_iters=3))
    assert trace.iterations >= 1
    trials = tracer.calls["oracles.objective_value"] - tracer.calls["linesearch.directional_search"]
    assert trials > 0
    assert counts["cost", 0] == (1 + trials) * (horizon + 1)
