"""Dense reference assemblies against finite differences and structure checks."""

import sys
import time

import numpy as np
import pytest

from trajopt import autodiff
from trajopt.core import TrajectoryProblem
from trajopt.dense import (
    dense_costates,
    dense_gauss_newton_matrix,
    dense_gradient,
    dense_hessian,
    smoothness_bounds,
    trajectory_jacobian,
)
from trajopt.envs.build import build_problem
from trajopt.errors import DivergenceError, ParameterError, ShapeError
from trajopt.oracles import forward, objective_value

from conftest import random_lq_problem, random_smooth_problem


def fd_objective_gradient(problem, u, h=1e-6):
    u = np.asarray(u, dtype=float)
    g = np.zeros(u.size)
    flat = u.ravel()
    for i in range(flat.size):
        up, um = flat.copy(), flat.copy()
        up[i] += h
        um[i] -= h
        g[i] = (objective_value(problem, up) - objective_value(problem, um)) / (2 * h)
    return g


class TestDenseGradientHessian:
    def test_single_step_jacobian_is_input_block(self, rng):
        problem = random_smooth_problem(rng, 1, 2, 2)
        u = rng.standard_normal((1, 2)) * 0.3
        T = trajectory_jacobian(problem, u)
        from trajopt.oracles import forward

        bundle = forward(problem, u, 1, 0)
        np.testing.assert_allclose(T, bundle.B[0])

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(3):
            problem = random_smooth_problem(rng, 4, 2, 2)
            u = rng.standard_normal((4, 2)) * 0.2
            g = dense_gradient(problem, u)
            np.testing.assert_allclose(g, fd_objective_gradient(problem, u), rtol=1e-5, atol=1e-6)

    def test_hessian_matches_finite_differences_of_gradient(self, rng):
        problem = random_smooth_problem(rng, 3, 2, 1)
        u = rng.standard_normal((3, 1)) * 0.2
        hess = dense_hessian(problem, u)
        h = 1e-5
        flat = u.ravel()
        fd = np.zeros((3, 3))
        for i in range(3):
            up, um = flat.copy(), flat.copy()
            up[i] += h
            um[i] -= h
            fd[:, i] = (
                dense_gradient(problem, up.reshape(3, 1))
                - dense_gradient(problem, um.reshape(3, 1))
            ) / (2 * h)
        np.testing.assert_allclose(hess, fd, rtol=1e-4, atol=1e-5)

    def test_linear_dynamics_have_no_tensor_term(self, rng):
        from trajopt.dense import dense_gauss_newton_matrix

        problem, _ = random_lq_problem(rng, 3, 2, 2)
        u = rng.standard_normal((3, 2))
        np.testing.assert_allclose(
            dense_hessian(problem, u), dense_gauss_newton_matrix(problem, u), atol=1e-10
        )

    def test_size_guard(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        import dataclasses

        big = dataclasses.replace(problem, dynamics=problem.dynamics * 40,
                                  running_costs=problem.running_costs * 40)
        with pytest.raises(ParameterError):
            dense_gradient(big, np.zeros((160, 1)))


def broken_model(x0, dynamics=lambda x, u: [x[0] + u[0]], cost=lambda x, u: 0.5 * u[0] * u[0]):
    """Three stages of one state and one control that break the model contract somewhere."""
    return TrajectoryProblem((dynamics,) * 3, (cost,) * 3, lambda x: 0.5 * x[0] * x[0],
                             [x0], 1, 1)


# model -> (the error forward raises, its stage or None)
BROKEN = {
    "two-entry-dynamics": (broken_model(0.0, dynamics=lambda x, u: [x[0] + u[0], 0.0]),
                           ShapeError, None),
    "overflow-at-t1": (broken_model(1.0, dynamics=lambda x, u: [1e300 * x[0] + u[0]]),
                       DivergenceError, 1),
    "list-cost": (broken_model(0.0, cost=lambda x, u: [u[0] * u[0]]), ShapeError, None),
    "log-outside-domain": (broken_model(-1.0, dynamics=lambda x, u: [autodiff.log(x[0]) + u[0]]),
                           DivergenceError, 0),
    "sqrt-slope-at-0": (broken_model(0.0, cost=lambda x, u: autodiff.sqrt(x[0] * x[0]) + u[0]),
                        DivergenceError, 0),
}
DENSE = (dense_gradient, dense_hessian, trajectory_jacobian, dense_gauss_newton_matrix,
         dense_costates)


@pytest.mark.parametrize("dense", DENSE, ids=[fn.__name__ for fn in DENSE])
@pytest.mark.parametrize("model", BROKEN)
def test_dense_references_meet_the_model_contract(model, dense):
    """A model that breaks the contract fails the dense references as it fails forward."""
    problem, error, t = BROKEN[model]
    u = np.zeros((3, 1))
    with pytest.raises(error) as expected:
        forward(problem, u, 2, 2)
    with pytest.raises(error) as got:
        dense(problem, u)
    assert getattr(got.value, "t", None) == getattr(expected.value, "t", None) == t


H = 5  # pendulum horizon of the count below


@pytest.mark.parametrize("dense,calls", [
    (trajectory_jacobian, 0), (dense_gradient, 0), (dense_costates, 0),
    (dense_gauss_newton_matrix, H + 1), (dense_hessian, 2 * H + 1),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_dense_references_differentiate_at_the_orders_they_read(dense, calls, monkeypatch):
    """Second derivatives only where a reference reads them: the h running and
    the final cost Hessians for the Gauss-Newton matrix, and the h dynamics
    Hessians as well for the objective Hessian."""
    seen = []
    real = autodiff.vector_hessian

    def counted(f, z):
        seen.append(sys._getframe(1).f_globals["__name__"])
        return real(f, z)

    monkeypatch.setattr(autodiff, "vector_hessian", counted)
    problem = build_problem("pendulum", H)
    dense(problem, np.zeros((H, problem.n_u)))
    assert seen.count("trajopt.dense") == calls


class TestSmoothnessBounds:
    def test_zero_state_sensitivity(self):
        l, L = smoothness_bounds(0.0, 2.0, 1.0, 1.0, 1.0, tau=4)
        assert l == pytest.approx(2.0)  # S = 1: only the t=0 term survives

    def test_geometric_sum(self):
        l, L = smoothness_bounds(0.5, 1.0, 0.0, 0.0, 0.0, tau=3)
        assert l == pytest.approx(1.75)
        assert L == pytest.approx(0.0)

    def test_rejects_negative_constants(self):
        with pytest.raises(ParameterError):
            smoothness_bounds(-0.1, 1.0, 0.0, 0.0, 0.0, tau=2)

    def test_long_horizon_takes_the_closed_form(self):
        start = time.perf_counter()
        assert smoothness_bounds(1.0, 1.0, 0.0, 0.0, 0.0, tau=10**12) == (1e12, 0.0)
        assert time.perf_counter() - start < 1.0

    def test_trajectory_jacobian_norm_bounded_for_linear_instances(self, rng):
        for _ in range(5):
            tau = int(rng.integers(2, 6))
            problem, data = random_lq_problem(rng, tau, 2, 2)
            lx = max(np.linalg.norm(A, 2) for A in data["A"])
            lu = max(np.linalg.norm(B, 2) for B in data["B"])
            l_bound, _ = smoothness_bounds(lx, lu, 0.0, 0.0, 0.0, tau)
            T = trajectory_jacobian(problem, rng.standard_normal((tau, 2)))
            assert np.linalg.norm(T, 2) <= l_bound + 1e-12
