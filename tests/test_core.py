"""Model-building helpers, increment maps, curvature contraction, problem checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import autodiff
from trajopt.core import (
    TrajectoryProblem,
    linear_dynamics,
    quadratic_cost,
)
from trajopt.errors import NumericError, ShapeError
from trajopt.linesearch import solve
from trajopt.oracles import forward, rollout

small = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestEvaluateQuadratic:
    """A stage cost built by ``quadratic_cost``, evaluated on floats."""

    def test_zero_model(self):
        h = quadratic_cost(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((2, 1)),
                           np.zeros(2), np.zeros(1))
        assert h([1.3, -0.2], [0.7]) == 0.0

    def test_identity_blocks(self):
        # 0.5*1 + 0.5*4 = 2.5
        h = quadratic_cost(np.eye(2), np.eye(1), np.zeros((2, 1)), np.zeros(2), np.zeros(1))
        assert h([1.0, 0.0], [2.0]) == pytest.approx(2.5)

    def test_linear_part_only(self):
        h = quadratic_cost(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), [1.0], [1.0])
        assert h([3.0], [4.0]) == pytest.approx(7.0)

    def test_shape_error(self):
        # H is 2x2 but p has one entry
        with pytest.raises(ShapeError, match="inconsistent quadratic model shapes"):
            quadratic_cost(np.eye(2), np.eye(1), np.zeros((2, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(ShapeError, match="H must be finite"):
            quadratic_cost([[np.inf]], np.eye(1), np.zeros((1, 1)), np.zeros(1), np.zeros(1))

    @given(small, small, small, small)
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_symmetrization(self, a, b, y0, y1):
        asym = np.array([[1.0, a], [b, 2.0]])
        h = quadratic_cost(asym, np.eye(1), np.zeros((2, 1)), np.zeros(2), np.zeros(1))
        h_sym = quadratic_cost(0.5 * (asym + asym.T), np.eye(1), np.zeros((2, 1)),
                               np.zeros(2), np.zeros(1))
        y, v = [y0, y1], [0.3]
        assert h(y, v) == pytest.approx(h_sym(y, v))


def visited(f, x, u, horizon=1, o_f=0):
    """The bundle of ``horizon`` stages of dynamic f from x, all under controls u."""
    problem = TrajectoryProblem(
        dynamics=(f,) * horizon,
        running_costs=(lambda x, u: 0.0,) * horizon,
        final_cost=lambda x: 0.0,
        x0=x,
        n_x=len(x),
        n_u=len(u),
    )
    return forward(problem, [u] * horizon, o_f, 0)


def ddp_rolled(f, x, u, k):
    """Controls of the ddp-lq roll-out of offsets ``k`` on the stages of f visited from x under u.

    Every gain is 0 but the last, 1, so the last control reads the state
    increment y_tau-1 the earlier stages' increments led to.
    """
    horizon = len(k)
    K = np.zeros((horizon, 1, 1))
    K[-1] = 1.0
    return rollout(visited(f, x, u, horizon), "ddp-lq", K, np.reshape(k, (horizon, 1)))


class TestFiniteDifferenceDynamic:
    """The DDP increment map f(x+y, u+v) - f(x, u) around a bundle's visited points."""

    def test_zero_increment(self):
        rolled = ddp_rolled(lambda x, u: [x[0] * x[0] + u[0]], [1.5], [0.2], [0.0, 0.0])
        np.testing.assert_array_equal(rolled, [[0.0], [0.0]])

    def test_linear_dynamic_equals_linear_map(self):
        f = linear_dynamics([[1.0]], [[1.0]])
        bundle = visited(f, [1.0], [1.0], horizon=2, o_f=1)
        K, k = np.array([[[0.0]], [[1.0]]]), np.array([[2.0], [3.0]])
        original = rollout(bundle, "ddp-lq", K, k)
        np.testing.assert_array_equal(original, rollout(bundle, "gn", K, k))
        np.testing.assert_array_equal(original, [[2.0], [5.0]])  # y_1 = 2, v_1 = y_1 + 3

    def test_square_dynamic(self):
        # y_1 = f(1, 1) - f(1, 0) = 1, then y_2 = f(1 + 1, 0) - f(1, 0) = 3
        rolled = ddp_rolled(lambda x, u: [x[0] * x[0] + u[0]], [1.0], [0.0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(rolled, [[1.0], [0.0], [3.0]])

    def test_model_arithmetic_error_is_a_numeric_error_naming_t(self):
        with pytest.raises(NumericError, match="dynamic evaluation failed at t=2"):
            ddp_rolled(lambda x, u: [x[0] + autodiff.exp(u[0])], [0.0], [5.0], [0.0, 0.0, 1e3])

    def test_non_finite_increment_is_a_numeric_error_naming_t(self):
        with pytest.raises(NumericError, match="non-finite value while stepping dynamics at t=1"):
            ddp_rolled(lambda x, u: [1e300 * u[0]], [0.0], [1.0], [0.0, 1e10])

    @given(small, small, small, small)
    @settings(max_examples=30, deadline=None)
    def test_linear_f_matches_jacobian_application_exactly(self, x, u, y, v):
        # stage 0 moves the state by y = 2 * (y / 2), stage 1 by 0.5 y + 2 v
        rolled = ddp_rolled(linear_dynamics([[0.5]], [[2.0]]), [x], [u], [0.5 * y, v, 0.0])
        assert rolled[2, 0] == pytest.approx(0.5 * y + 2.0 * v, abs=1e-9, rel=1e-12)


class TestDynTensor:
    """The packed dynamics curvature of one stage, contracted against a vector."""

    @given(small, small)
    @settings(max_examples=25, deadline=None)
    def test_contraction_linear_in_lambda(self, l1, l2):
        rng = np.random.default_rng(3)
        d12 = rng.standard_normal((2, 15))  # two outputs, m = 5
        contract = autodiff.contract_curvature
        a = contract(d12, np.array([l1, 0.0])) + contract(d12, np.array([l2, 1.0]))
        b = contract(d12, np.array([l1 + l2, 1.0]))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_zero_tensor_contracts_to_zero(self):
        w = autodiff.contract_curvature(np.zeros((1, 6)), np.array([2.0]))
        np.testing.assert_array_equal(w, np.zeros(6))  # packed over the 6 pairs of m = 3

    def test_contraction_is_symmetric(self):
        f = lambda z: [z[0] * z[1] * z[2], autodiff.sin(z[0]) * z[2] + z[1] * z[1]]
        w = autodiff.lambda_hessian(f, [0.4, -0.7, 1.3], [0.3, -1.2])
        assert w.shape == (3, 3)
        np.testing.assert_array_equal(w, w.T)


class TestValueTypes:
    def test_linear_map_apply(self):
        f = linear_dynamics([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])
        problem = TrajectoryProblem((f,), (lambda x, u: u[0] * u[0],), lambda x: x[0],
                                    [0.0, 0.0], 2, 1)
        bundle = forward(problem, [[0.0]], o_f=1, o_h=0)
        np.testing.assert_allclose(bundle.A[0] @ [1.0, 2.0] + bundle.B[0] @ [3.0], [3.0, 5.0])

    def test_problem_validation(self):
        f = lambda x, u: [x[0]]
        h = lambda x, u: u[0] * u[0]
        final = lambda x: x[0]
        with pytest.raises(ShapeError):
            TrajectoryProblem((), (), final, [0.0], 1, 1)
        with pytest.raises(ShapeError):
            TrajectoryProblem((f,), (h, h), final, [0.0], 1, 1)
        with pytest.raises(ShapeError):
            TrajectoryProblem((f,), (h,), final, [0.0, 0.0], 1, 1)


def _user_problem(dynamics=lambda x, u: [x[0] + u[0]], running=lambda x, u: u[0] * u[0],
                  final=lambda x: x[0] * x[0], n_u=1):
    return TrajectoryProblem((dynamics,) * 3, (running,) * 3, final, [1.0], 1, n_u)


def _raise_type_error(x, u):
    raise TypeError("raised inside the dynamics")


@pytest.mark.parametrize("entry", ["forward", "solve"])
@pytest.mark.parametrize("parts,error,match", [
    ({"n_u": 0}, ShapeError, "n_u must be an integer >= 1, got 0"),
    ({"n_u": -1}, ShapeError, "n_u must be an integer >= 1, got -1"),
    ({"n_u": 1.5}, ShapeError, "n_u must be an integer >= 1, got 1.5"),
    ({"n_u": True}, ShapeError, "n_u must be an integer >= 1, got True"),
    ({"dynamics": lambda x, u: [x[0], u[0]]}, ShapeError, "dynamics at t=0 gave 2 entries"),
    ({"running": lambda x, u: [u[0] * u[0]]}, ShapeError, "cost at t=0 gave a list"),
    ({"final": lambda x: [x[0]]}, ShapeError, "cost at t=3 gave a list"),
    ({"dynamics": _raise_type_error}, TypeError, "raised inside the dynamics"),
], ids=["n_u=0", "n_u=-1", "n_u=1.5", "n_u=True", "long-state", "list-cost", "list-final", "model-error"])
def test_problem_shape_contract(entry, parts, error, match):
    """Bad problem parts raise a named error at construction or at the stage they reach."""
    with pytest.raises(error, match=match) as caught:
        problem = _user_problem(**parts)
        u = np.zeros((3, 1))
        if entry == "forward":
            forward(problem, u, 1, 2)
        else:
            solve(problem, u, "gn")
    if error is TypeError:  # the model's own error is not relabelled
        assert not isinstance(caught.value, ShapeError)
