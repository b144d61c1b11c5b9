"""The input contract of every public entry point, as one table.

Each row of :data:`TABLE` is an entry point called with valid arguments,
and one argument of it replaced by a drawn value: NaN, +-inf, zero,
negatives, floats where integers belong, bools, complex numbers, strings,
objects of the wrong type, and arrays of wrong, transposed or ragged
shapes or with non-finite entries.  The property: the call returns, or
raises an error from :mod:`trajopt.errors`.  The rows call only the
package's own models, so no model exception is exempt.  New boundary
cases extend the table rather than adding one-off tests.
"""

from __future__ import annotations

import dataclasses
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import (
    ORACLE_KINDS,
    STEP_RULES,
    LineSearchConfig,
    StopCriteria,
    TrajectoryProblem,
    dense_gauss_newton_matrix,
    dense_gradient,
    dense_hessian,
    directional_search,
    forward,
    linear_dynamics,
    objective_value,
    oracle,
    oracle_step,
    quadratic_cost,
    quadratic_state_cost,
    regularized_search,
    rollout,
    run_backward,
    smoothness_bounds,
    solve,
    stationarity_residual,
    trajectory_jacobian,
)
from trajopt import linesearch
from trajopt.autodiff import block_jacobian, lambda_hessian, smoothmax
from trajopt.cli import RunConfig
from trajopt.dense import dense_costates
from trajopt.oracles import bundle_gradient
from trajopt.envs import (
    DISCRETIZERS,
    ENV_KINDS,
    BicycleParams,
    CartPoleParams,
    PendulumParams,
    SimpleCarParams,
    build_problem,
    euler_step,
    rk4_step,
    rk4_varying_step,
    track_build,
    track_eval,
    track_loads,
)
from trajopt.envs.build import env_discretizer
from trajopt.errors import ConfigError, ParameterError, ShapeError, TrajoptError

HORIZON = 4
PROBLEM = build_problem("pendulum", HORIZON)  # n_x = 2, n_u = 1
U = np.full((HORIZON, 1), 0.1)
BUNDLE = forward(PROBLEM, U, 1, 2)
SWEEP = run_backward(BUNDLE, "gn", 0.0)
assert SWEEP.feasible and SWEEP.c0_zero < 0.0
BUNDLE_5 = forward(build_problem("pendulum", 5), np.zeros((5, 1)), 1, 2)
TRACK_TEXT = "width=0.5\n0,0\n1,0\n2,1\n"
TRACK = track_loads(TRACK_TEXT)

SPECIAL = [
    math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -2.5, 1.5, True, False, 1j,
    complex(2.0, 0.0), "a", "", "1", None, np.float64(math.nan), np.int64(2), np.float32(0.5),
]
NUMBERS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),
    st.integers(-5, 40),
    st.complex_numbers(max_magnitude=1e3),
    st.text(max_size=3),
)
NAMES = st.one_of(
    NUMBERS, st.sampled_from(ENV_KINDS + DISCRETIZERS + ORACLE_KINDS + STEP_RULES)
)
OBJECTS = st.one_of(
    NUMBERS,
    st.sampled_from([object(), [], {}, (), PendulumParams(), LineSearchConfig(), StopCriteria()]),
)
TEXTS = st.one_of(
    st.text(max_size=30),
    st.sampled_from([
        "", "# only a comment\n", "width=0.5\n0,0\n", "width=0.5\n0,0\n0,0\n",
        *(f"width={w}\n0,0\n1,0\n" for w in ("nan", "inf", "-inf", "0", "-1", "1j", "True", "")),
        *(f"width=0.5\n{p}\n1,0\n" for p in ("nan,0", "0,inf", "1e999,0", "0,0,0", "1j,0", "0")),
    ]),
)


def callables(good):
    """Sequences of stage callables for an argument whose valid value is ``good``."""
    return st.one_of(
        OBJECTS,
        st.sampled_from([good[:1], good[:-1] + (None,), ("a",) * len(good), list(good),
                         {"f": good[0]}, abs]),
    )


def arrays(shape):
    """Arrays for an argument of ``shape``: every other shape, bad dtypes and entries."""
    good = np.zeros(shape)
    return st.one_of(
        st.sampled_from([
            good.T, good[None], good.ravel()[1:], good * 1j, good.astype(str),
            [[0.0], [0.0, 0.0]], None, "a", 1.5, True, [],
        ]),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                   elements=st.floats()),
        hnp.arrays(np.float64, shape, elements=st.floats()),
    )


def _params(cls):
    return (cls, {}, {f.name: NUMBERS for f in dataclasses.fields(cls)})


def _controls(fn, name="u"):
    return (fn, {"problem": PROBLEM, name: U}, {name: arrays(U.shape)})


def _validate(**kwargs):
    return RunConfig(**kwargs).validate()


_BACKWARD = ({"bundle": BUNDLE, "kind": "gn", "nu": 0.0}, {"kind": NAMES, "nu": NUMBERS})
# a ladder of ridges: a list, tuple or 1-D array of them, and other shapes
LADDERS = st.one_of(
    st.lists(NUMBERS, max_size=4),
    st.lists(NUMBERS, max_size=4).map(tuple),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
               elements=st.floats()),
)

# entry point -> (callable, valid arguments, strategy of each argument drawn)
TABLE = {
    "build_problem": (
        build_problem, {"env": "simple-car", "horizon": HORIZON},
        {"env": NAMES, "horizon": NUMBERS, "discretizer": NAMES, "track": OBJECTS,
         "params": OBJECTS},
    ),
    "env_discretizer": (
        env_discretizer, {"env": "bicycle-car"}, {"env": NAMES, "discretizer": NAMES},
    ),
    "PendulumParams": _params(PendulumParams),
    "CartPoleParams": _params(CartPoleParams),
    "SimpleCarParams": _params(SimpleCarParams),
    "BicycleParams": _params(BicycleParams),
    "track_build": (
        track_build, {"waypoints": [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)], "width": 0.5},
        {"waypoints": arrays((3, 2)), "width": NUMBERS},
    ),
    "track_loads": (track_loads, {"text": TRACK_TEXT}, {"text": TEXTS}),
    # a model quantity: a real float or a block of them (hyper-dual numbers carry one)
    "track_eval": (
        track_eval, {"track": TRACK, "s": 0.5},
        {"s": st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -0.0]),
                        st.floats(), hnp.arrays(np.float64, (3, 1), elements=st.floats()))},
    ),
    "TrajectoryProblem": (
        TrajectoryProblem,
        {"dynamics": PROBLEM.dynamics, "running_costs": PROBLEM.running_costs,
         "final_cost": PROBLEM.final_cost, "x0": [0.0, 0.0], "n_x": 2, "n_u": 1},
        {"dynamics": callables(PROBLEM.dynamics),
         "running_costs": callables(PROBLEM.running_costs), "final_cost": OBJECTS,
         "x0": arrays((2,)), "n_x": NUMBERS, "n_u": NUMBERS},
    ),
    "linear_dynamics": (
        linear_dynamics, {"A": np.eye(2), "B": np.ones((2, 1))},
        {"A": arrays((2, 2)), "B": arrays((2, 1))},
    ),
    "quadratic_cost": (
        quadratic_cost,
        {"H": np.eye(2), "Q": np.eye(1), "R": np.zeros((2, 1)), "p": np.zeros(2),
         "q": np.zeros(1)},
        {"H": arrays((2, 2)), "Q": arrays((1, 1)), "R": arrays((2, 1)), "p": arrays((2,)),
         "q": arrays((1,))},
    ),
    "quadratic_state_cost": (
        quadratic_state_cost, {"H": np.eye(2), "p": np.zeros(2)},
        {"H": arrays((2, 2)), "p": arrays((2,))},
    ),
    "forward": (
        forward, {"problem": PROBLEM, "u": U},
        {"u": arrays(U.shape), "o_f": NUMBERS, "o_h": NUMBERS},
    ),
    "objective_value": _controls(objective_value),
    "bundle_gradient": (bundle_gradient, {"bundle": BUNDLE}, {"bundle": OBJECTS}),
    "rollout": (
        rollout, {"bundle": BUNDLE, "kind": "gn", "K": SWEEP.K, "k": SWEEP.k},
        {"bundle": OBJECTS, "kind": NAMES, "K": arrays(SWEEP.K.shape),
         "k": arrays(SWEEP.k.shape)},
    ),
    "oracle": (
        oracle, {"problem": PROBLEM, "u": U, "kind": "gn"},
        {"u": arrays(U.shape), "kind": NAMES, "nu": NUMBERS},
    ),
    "oracle_step": (oracle_step, *_BACKWARD),
    "run_backward": (run_backward, *_BACKWARD),
    "run_backward ladder": (
        run_backward, {"bundle": BUNDLE, "kind": "gn", "nu": [0.0, 1.0]},
        {"kind": NAMES, "nu": st.one_of(LADDERS, NUMBERS)},
    ),
    "solve": (
        solve, {"problem": PROBLEM, "u0": U, "kind": "gn", "stop": StopCriteria(max_iters=3)},
        {"u0": arrays(U.shape), "kind": NAMES, "cfg": OBJECTS, "stop": OBJECTS},
    ),
    "directional_search": (
        directional_search,
        {"bundle": BUNDLE, "kind": "gn", "K": SWEEP.K, "k": SWEEP.k, "c0_zero": SWEEP.c0_zero,
         "cfg": LineSearchConfig()},
        {"kind": NAMES, "K": arrays(SWEEP.K.shape), "k": arrays(SWEEP.k.shape),
         "c0_zero": NUMBERS},
    ),
    "regularized_search": (
        regularized_search, {"bundle": BUNDLE, "kind": "gn", "gamma": 1.0,
                             "cfg": LineSearchConfig()},
        {"kind": NAMES, "gamma": NUMBERS},
    ),
    "stationarity_residual": _controls(stationarity_residual),
    "dense_gradient": _controls(dense_gradient),
    "dense_hessian": _controls(dense_hessian),
    "dense_gauss_newton_matrix": _controls(dense_gauss_newton_matrix),
    "dense_costates": _controls(dense_costates),
    "trajectory_jacobian": _controls(trajectory_jacobian),
    "smoothness_bounds": (
        smoothness_bounds,
        {"l_f_x": 0.5, "l_f_u": 1.0, "l_f_xx": 1.0, "l_f_xu": 1.0, "l_f_uu": 1.0, "tau": 3},
        dict.fromkeys(("l_f_x", "l_f_u", "l_f_xx", "l_f_xu", "l_f_uu", "tau"), NUMBERS),
    ),
    "LineSearchConfig": (
        LineSearchConfig, {},
        {"rule": NAMES, **dict.fromkeys(("rho_dec", "rho_inc", "gamma_min", "nu_init"), NUMBERS)},
    ),
    "StopCriteria": (
        StopCriteria, {}, dict.fromkeys(("max_iters", "cost_rel_tol", "min_step"), NUMBERS),
    ),
    "RunConfig": (
        _validate, {},
        {**dict.fromkeys(("env", "algo", "linesearch", "discretizer"), NAMES),
         **dict.fromkeys(("horizon", "max_iters", "rel_tol", "min_step", "seed", "parallel"),
                         NUMBERS)},
    ),
}

ROWS = [(entry, arg) for entry, (_, _, args) in TABLE.items() for arg in args]


@pytest.mark.parametrize("entry,arg", ROWS, ids=[f"{entry}-{arg}" for entry, arg in ROWS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_returns_or_raises_a_package_error(entry, arg, data):
    fn, valid, args = TABLE[entry]
    value = data.draw(args[arg], label=arg)
    try:
        fn(**{**valid, arg: value})
    except TrajoptError:
        pass


# Inputs that escaped as raw Python errors, or were accepted, before the
# checks moved to the two checkers of trajopt.core; each error names its
# argument.
@pytest.mark.parametrize("call,error,match", [
    (lambda: PendulumParams(gravity=math.nan), ParameterError, "gravity"),
    (lambda: BicycleParams(mass="1"), ParameterError, "mass"),
    (lambda: smoothness_bounds(math.nan, 1, 1, 1, 1, 3), ParameterError, "l_f_x"),
    (lambda: smoothness_bounds(1, 1, 1, 1, 1, True), ParameterError, "tau"),
    (lambda: smoothness_bounds(1e200, 1, 1, 1, 1, 3), ParameterError, "overflow"),
    (lambda: smoothness_bounds(1.5, 1, 0, 0, 0, 10**12), ParameterError, "overflow"),
    (lambda: track_build([(0, 0), (1, 0)], True), ShapeError, "track width"),
    (lambda: TrajectoryProblem(PROBLEM.dynamics, PROBLEM.running_costs, PROBLEM.final_cost,
                               [1j, 0.0], 2, 1), ShapeError, "x0"),
    (lambda: linear_dynamics([[1j]], [[1.0]]), ShapeError, r"\bA\b"),
    (lambda: quadratic_state_cost([[1.0]], ["a"]), ShapeError, r"\bp\b"),
    (lambda: build_problem("simple-car", 5, track="x"), ParameterError, "track"),
    (lambda: env_discretizer("nope"), ConfigError, "env"),
    (lambda: solve(PROBLEM, U, "gn", cfg="x"), ParameterError, "cfg"),
    (lambda: solve(PROBLEM, U, "gn", stop=0), ParameterError, "stop"),
    (lambda: regularized_search(BUNDLE, "gn", -1.0, LineSearchConfig()), ParameterError,
     r"\bgamma\b"),
    (lambda: stationarity_residual(PROBLEM, np.full(U.shape, math.nan)), ShapeError,
     "must be finite; step t=0"),
    (lambda: smoothmax(0.5, math.nan), ParameterError, "sharpness"),
    (lambda: euler_step(lambda z, u: z, [1.0], [0.0], math.nan), ParameterError, "step size"),
    (lambda: RunConfig(horizon="5").validate(), ConfigError, "horizon"),
    (lambda: TrajectoryProblem(5, (), None, [0.0], 1, 1), ShapeError, "dynamics"),
    (lambda: TrajectoryProblem(PROBLEM.dynamics, ("a",) * HORIZON, PROBLEM.final_cost,
                               [0.0, 0.0], 2, 1), ShapeError, "running_costs"),
    (lambda: TrajectoryProblem(PROBLEM.dynamics, PROBLEM.running_costs, None, [0.0, 0.0], 2, 1),
     ShapeError, "final_cost"),
    (lambda: rollout(BUNDLE, "gn", np.zeros((HORIZON, 2, 2)), SWEEP.k), ShapeError, r"\bK\b"),
    (lambda: rollout(BUNDLE_5, "gn", np.zeros((7, 1, 2)), np.zeros((7, 1))), ShapeError,
     r"\bK\b"),
    (lambda: rollout(BUNDLE_5, "gn", np.zeros((5, 1, 3)), np.zeros((5, 1))), ShapeError,
     r"\bK\b"),
    (lambda: rollout(BUNDLE_5, "ddp-lq", np.zeros((5, 2, 2)), np.zeros((5, 2))), ShapeError,
     r"\bK\b"),
    (lambda: oracle_step(BUNDLE, "gn", [0.0, 1.0]), ParameterError, r"\bnu\b"),
    (lambda: rollout(object(), "gn", SWEEP.K, SWEEP.k), ParameterError, "bundle"),
    (lambda: rollout(BUNDLE, "newton", SWEEP.K, SWEEP.k), ParameterError, "oracle kind"),
    (lambda: rollout(forward(PROBLEM, U, 0, 0), "gn", SWEEP.K, SWEEP.k), ParameterError,
     "order-1 dynamics"),
    (lambda: run_backward(forward(PROBLEM, U, 1, 1), "gn", 0.0), ParameterError,
     "order-2 cost"),
    (lambda: track_build([(0.0, 0.0)], 0.5), ShapeError, "two"),
    (lambda: rk4_step(lambda z, u: z, [1.0], [0.0], 0.0), ParameterError, "step size"),
    (lambda: rk4_varying_step(lambda z, u: z, [1.0], [0.0, 0.0], 0.1), ParameterError,
     "3 stacked control blocks"),
    (lambda: block_jacobian(lambda z: z, np.zeros(3)), ParameterError, r"\(B, m\)"),
    (lambda: lambda_hessian(lambda z: [z[0]], [1.0], [math.nan]), ParameterError, "finite"),
    (lambda: lambda_hessian(lambda z: [z[0]], [1.0], [1.0, 2.0]), ParameterError,
     "expected 1 outputs"),
], ids=[
    "params-nan", "params-string", "bounds-nan", "bounds-bool-tau", "bounds-overflow",
    "bounds-overflow-long-horizon", "track-bool-width", "complex-x0", "complex-A", "string-p",
    "track-object", "unknown-env",
    "cfg-object", "stop-object", "negative-gamma", "nan-residual-controls", "nan-sharpness",
    "nan-step-size", "string-horizon", "int-dynamics", "string-costs", "none-final-cost",
    "rollout-gains-shape", "rollout-seven-stages", "rollout-three-states",
    "rollout-two-controls", "oracle-step-ladder", "rollout-non-bundle",
    "rollout-unknown-kind", "rollout-order-0-gn", "backward-order-1-costs",
    "track-one-waypoint", "rk4-zero-step", "rk4-varying-two-controls", "block-of-1d-points",
    "nan-contraction", "contraction-size",
])
def test_named_refusal(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_oracle_refuses_a_bad_ridge_before_any_model():
    calls = []

    def counted(fn):
        def model(*args):
            calls.append(fn)
            return fn(*args)
        return model

    problem = TrajectoryProblem(
        dynamics=(counted(lambda x, u: [x[0] + u[0]]),) * 3,
        running_costs=(counted(lambda x, u: u[0] * u[0]),) * 3,
        final_cost=counted(lambda x: x[0] * x[0]),
        x0=[1.0], n_x=1, n_u=1,
    )
    for kind in ORACLE_KINDS:
        for nu in ("a", math.nan, math.inf, -1.0):
            with pytest.raises(ParameterError, match=r"\bnu\b"):
                oracle(problem, np.zeros((3, 1)), kind, nu)
    assert calls == []
    oracle(problem, np.zeros((3, 1)), "gn")
    assert calls


def test_regularized_search_takes_an_infinite_stepsize_as_ridge_zero(monkeypatch):
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return run_backward(*args)

    monkeypatch.setattr(linesearch, "run_backward", counted)
    u, gamma, c0 = regularized_search(BUNDLE, "gn", math.inf, LineSearchConfig())
    assert gamma > 0.0 and c0 < 0.0 and objective_value(PROBLEM, u) < BUNDLE.cost
    # a rejected ridge 0 goes on from the ladder's first nonzero rung, 1 / nu_init
    assert len(sweeps) <= 30
