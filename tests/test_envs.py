"""Benchmark models: hand-computed dynamics values, costs, integrators, builds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import autodiff
from trajopt.envs import (
    CartPoleParams,
    PendulumParams,
    bicycle_dynamics,
    build_problem,
    cartpole_cost,
    cartpole_dynamics,
    euler_step,
    pendulum_cost,
    pendulum_dynamics,
    pendulum_energy,
    rk4_step,
    rk4_varying_step,
    simple_car_dynamics,
    squash_acceleration,
    squash_controls,
    squash_steering,
    stay_put_start,
    track_eval,
)
from trajopt.errors import ConfigError, DomainError
from trajopt.oracles import forward

from conftest import env_interior_point, fd_hessian, fd_jacobian


class TestPendulum:
    def test_rest_state_is_fixed_point(self):
        np.testing.assert_allclose(pendulum_dynamics([0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_unit_torque_from_rest(self):
        np.testing.assert_allclose(pendulum_dynamics([0.0, 0.0], [1.0]), [0.0, 1.0])

    def test_inverted_state_is_fixed_point(self):
        np.testing.assert_allclose(
            pendulum_dynamics([math.pi, 0.0], [0.0]), [0.0, 0.0], atol=1e-14
        )

    def test_final_cost_at_target_is_zero(self):
        assert pendulum_cost(10, [math.pi, 0.0], (), 10) == pytest.approx(0.0)

    def test_final_cost_at_rest(self):
        assert pendulum_cost(10, [0.0, 0.0], (), 10) == pytest.approx(math.pi**2)

    def test_running_cost_is_weighted_square(self):
        p = PendulumParams(ctrl_weight=0.1)
        assert pendulum_cost(0, [0.0, 0.0], [2.0], 10, p) == pytest.approx(0.4)

    def test_energy_drift_under_rk4(self):
        p = PendulumParams(friction=0.0)
        x = [1.0, 0.0]
        e0 = pendulum_energy(x, p)
        dt = 1e-3
        for _ in range(2000):
            x = rk4_step(lambda z, u: pendulum_dynamics(z, u, p), x, [0.0], dt)
        assert abs(pendulum_energy(x, p) - e0) <= 1e-6 * e0


class TestCartPole:
    def test_accelerations_from_rest_under_unit_force(self):
        d = cartpole_dynamics([0.0, 0.0, 0.0, 0.0], [1.0])
        assert d[2] == pytest.approx(0.024 / 0.0132)  # ~1.81818
        assert d[3] == pytest.approx(-0.06 / 0.0132)  # ~-4.54545

    def test_hanging_equilibrium(self):
        np.testing.assert_allclose(cartpole_dynamics([0.0] * 4, [0.0]), [0.0] * 4)

    def test_inverted_equilibrium(self):
        np.testing.assert_allclose(
            cartpole_dynamics([0.0, math.pi, 0.0, 0.0], [0.0]), [0.0] * 4, atol=1e-14
        )

    def test_cost_inactive_barrier(self):
        val = cartpole_cost(0, [0.0, 0.0, 0.0, 0.0], [0.0], 25, stay_put_from=19)
        assert val == pytest.approx(0.0, abs=1e-4)

    def test_cost_at_target(self):
        val = cartpole_cost(20, [0.0, -math.pi, 0.0, 0.0], [0.0], 25, stay_put_from=19)
        assert val == pytest.approx(0.0, abs=1e-4)

    def test_cost_barrier_hinge_value(self):
        val = cartpole_cost(0, [3.0, 0.0, 0.0, 0.0], [0.0], 25, stay_put_from=19)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_stay_put_start(self):
        p = CartPoleParams()
        assert stay_put_start(25, p) == 25 - 6  # dt = 0.1, window 0.6


class TestCars:
    def test_simple_car_straight_line(self):
        np.testing.assert_allclose(
            simple_car_dynamics([0.0, 0.0, 0.0, 1.0], [0.0, 0.0]), [1.0, 0.0, 0.0, 0.0]
        )

    def test_simple_car_quarter_turn_rate(self):
        d = simple_car_dynamics([0.0, 0.0, 0.0, 1.0], [0.0, math.pi / 4])
        assert d[2] == pytest.approx(1.0)

    def test_simple_car_at_standstill(self):
        np.testing.assert_allclose(
            simple_car_dynamics([0.0, 0.0, 0.3, 0.0], [0.0, 0.2]), [0.0] * 4, atol=1e-15
        )

    def test_simple_car_steering_domain(self):
        with pytest.raises(DomainError):
            simple_car_dynamics([0.0, 0.0, 0.0, 1.0], [0.0, math.pi / 2])

    def test_bicycle_straight_coasting(self):
        d = bicycle_dynamics([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(
            d, [1.0, 0.0, 0.0, -0.05215 / 0.041, 0.0, 0.0], atol=1e-12
        )

    def test_bicycle_zero_slip_zero_lateral_force(self):
        # v_y = omega = steer = 0: no lateral dynamics at all
        d = bicycle_dynamics([0.0, 0.0, 0.5, 2.0, 0.0, 0.0], [0.3, 0.0])
        assert d[4] == pytest.approx(0.0)
        assert d[5] == pytest.approx(0.0)

    def test_bicycle_force_balance(self):
        a = 0.05215 / 0.2325
        d = bicycle_dynamics([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], [a, 0.0])
        assert d[3] == pytest.approx(0.0, abs=1e-12)

    def test_bicycle_rejects_standstill(self):
        with pytest.raises(DomainError):
            bicycle_dynamics([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.1, 0.0])

    def test_bicycle_lateral_mirror_symmetry(self):
        """Odd tire curves: mirroring the lateral state negates lateral forces."""
        state = [0.0, 0.0, 0.0, 1.7, 0.23, -0.4]
        mirror = [0.0, 0.0, 0.0, 1.7, -0.23, 0.4]
        d1 = bicycle_dynamics(state, [0.2, 0.3])
        d2 = bicycle_dynamics(mirror, [0.2, -0.3])
        assert d2[3] == pytest.approx(d1[3])  # longitudinal unchanged
        assert d2[4] == pytest.approx(-d1[4])
        assert d2[5] == pytest.approx(-d1[5])


class TestSquash:
    def test_midpoints(self):
        steer, accel = squash_controls(0.0, 0.0)
        assert steer == pytest.approx(0.0)
        assert accel == pytest.approx(0.45)

    def test_unit_steer(self):
        assert squash_steering(1.0) == pytest.approx(math.pi / 6)

    def test_steer_asymptote(self):
        assert squash_steering(1e9) == pytest.approx(math.pi / 3, abs=1e-6)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_outputs_bounded(self, raw):
        assert -math.pi / 3 < squash_steering(raw) < math.pi / 3
        # the sigmoid saturates to the boundary value in floating point for
        # huge inputs; strict interior holds on any reachable scale
        assert -0.1 <= squash_acceleration(raw) <= 1.0
        if abs(raw) <= 10.0:
            assert -0.1 < squash_acceleration(raw) < 1.0


class TestIntegrators:
    def test_stationary_field_all_schemes(self):
        f = lambda z, u: [0.0 * z[0]]
        assert euler_step(f, [1.3], [0.0], 0.1)[0] == pytest.approx(1.3)
        assert rk4_step(f, [1.3], [0.0], 0.1)[0] == pytest.approx(1.3)
        assert rk4_varying_step(f, [1.3], [0.0, 0.0, 0.0], 0.1)[0] == pytest.approx(1.3)

    def test_euler_on_exponential(self):
        f = lambda z, u: [z[0]]
        assert euler_step(f, [1.0], [0.0], 0.1)[0] == pytest.approx(1.1)

    def test_rk4_on_exponential(self):
        f = lambda z, u: [z[0]]
        out = rk4_step(f, [1.0], [0.0], 0.1)[0]
        assert out == pytest.approx(1.1051708333333333, abs=1e-15)
        assert abs(out - math.exp(0.1)) < 1e-7

    def test_rk4_varying_reduces_to_rk4_for_constant_controls(self):
        f = lambda z, u: [z[0] * u[0]]
        a = rk4_step(f, [1.0], [0.7], 0.1)[0]
        b = rk4_varying_step(f, [1.0], [0.7, 0.7, 0.7], 0.1)[0]
        assert a == pytest.approx(b)

    def test_rk4_varying_stage_controls(self):
        # d z = u: first stage sees v0, midpoints v_mid, last v_end
        f = lambda z, u: [u[0]]
        out = rk4_varying_step(f, [0.0], [6.0, 0.0, 0.0], 1.0)[0]
        assert out == pytest.approx(1.0)  # only k1 contributes: dt/6 * 6
        out = rk4_varying_step(f, [0.0], [0.0, 3.0, 0.0], 1.0)[0]
        assert out == pytest.approx(2.0)  # k2 + k3 with weight 2 each


class TestBuildProblem:
    def test_pendulum_shape(self):
        p = build_problem("pendulum", 50)
        assert (p.n_x, p.n_u, p.horizon) == (2, 1, 50)
        assert p.meta["dt"] == pytest.approx(0.04)

    def test_bicycle_shape(self):
        p = build_problem("bicycle-car", 50)
        assert (p.n_x, p.n_u) == (8, 3)

    def test_simple_car_tracking_reference(self):
        p = build_problem("simple-car", 50)
        track = p.meta["track"]
        dt, v_ref = p.meta["dt"], p.meta["params"].v_ref
        t = 7
        ref = track_eval(track, dt * v_ref * t)
        on_ref = [float(ref.x), float(ref.y), 0.0, 1.0]
        assert p.running_costs[t](on_ref, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_bicycle_stage_cost_evaluates_the_track_once(self, spline_evaluations, rng):
        problem = build_problem("bicycle-car", 10)
        cost = problem.running_costs[0]
        zs = np.array([env_interior_point("bicycle-car", rng, problem) for _ in range(5)])
        spline_evaluations.clear()  # the start pose
        cost(list(zs[0, :8]), list(zs[0, 8:]))
        assert len(spline_evaluations) == 1
        autodiff.block_jacobian_curvature(lambda z: cost(z[:8], z[8:]), zs)
        assert len(spline_evaluations) == 2

    def test_simple_car_costs_evaluate_no_track(self, spline_evaluations):
        problem = build_problem("simple-car", 10)
        spline_evaluations.clear()  # the start pose and the reference points
        x = [0.1, 0.2, 0.3, 1.0]
        problem.running_costs[3](x, [0.0, 0.0])
        problem.final_cost(x)
        assert spline_evaluations == []

    def test_unknown_env_rejected(self):
        with pytest.raises(ConfigError):
            build_problem("foo", 10)

    def test_bicycle_rejects_varying_controls(self):
        with pytest.raises(ConfigError):
            build_problem("bicycle-car", 10, discretizer="rk4-varying")

    def test_varying_controls_triple_the_control_dim(self):
        p = build_problem("pendulum", 10, discretizer="rk4-varying")
        assert p.n_u == 3

    @pytest.mark.parametrize("env,distinct", [("pendulum", 1), ("cartpole", 2)])
    def test_running_costs_share_callables(self, env, distinct):
        horizon = 25
        problem = build_problem(env, horizon)
        assert len({id(h) for h in problem.running_costs}) == distinct
        params = problem.meta["params"]
        if env == "pendulum":
            per_stage = tuple(
                (lambda x, u, t=t: pendulum_cost(t, x, u, horizon, params))
                for t in range(horizon)
            )
        else:
            tbar = problem.meta["stay_put_from"]
            assert 0 < tbar < horizon  # both forms occur
            per_stage = tuple(
                (lambda x, u, t=t: cartpole_cost(t, x, u, horizon, tbar, params))
                for t in range(horizon)
            )
        reference = dataclasses.replace(problem, running_costs=per_stage)
        u = 0.3 * np.random.default_rng(5).standard_normal((horizon, problem.n_u))
        shared, own = forward(problem, u, 2, 2), forward(reference, u, 2, 2)
        assert shared.step_costs == own.step_costs and shared.cost == own.cost
        for name in ("A", "B", "H", "Q", "R", "p", "q", "final_slope", "final_quad", "curvature"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(own, name), err_msg=name)

    def test_all_env_derivatives_match_finite_differences(self, rng):
        """Spot check; the acceptance suite sweeps 100 points per model."""
        cases = {
            "pendulum": (2, 1),
            "cartpole": (4, 1),
            "simple-car": (4, 2),
            "bicycle-car": (8, 3),
        }
        for env, (n_x, n_u) in cases.items():
            problem = build_problem(env, 10)
            f, h = problem.dynamics[0], problem.running_costs[0]
            for _ in range(3):
                z = env_interior_point(env, rng, problem)
                joint_f = lambda zz: f(zz[:n_x], zz[n_x:])
                joint_h = lambda zz: h(zz[:n_x], zz[n_x:])
                from trajopt import autodiff

                np.testing.assert_allclose(
                    autodiff.jacobian(joint_f, z), fd_jacobian(joint_f, z),
                    rtol=2e-5, atol=1e-6,
                )
                np.testing.assert_allclose(
                    autodiff.hessian(joint_h, z), fd_hessian(joint_h, z),
                    rtol=1e-3, atol=1e-4,
                )


@pytest.fixture
def spline_evaluations(monkeypatch):
    """One entry per track evaluation: ``track_eval`` makes one ``arctan2`` call."""
    calls = []
    real = autodiff.arctan2

    def spy(y, x):
        calls.append(y)
        return real(y, x)

    monkeypatch.setattr(autodiff, "arctan2", spy)
    return calls
