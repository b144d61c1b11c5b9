"""The benchmark's tracer wraps package functions by name; they must exist and be hit."""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from trajopt.envs import build_problem
from trajopt.linesearch import LineSearchConfig, StopCriteria, solve

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
