"""Forward/backward passes, roll-outs and the five oracle directions."""

import dataclasses
import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from trajopt import autodiff
from trajopt.core import (
    TrajectoryProblem,
    linear_dynamics,
    quadratic_cost,
    quadratic_state_cost,
)
from trajopt.dense import dense_costates, dense_gauss_newton_matrix, dense_gradient, dense_hessian
from trajopt.envs import build_problem
from trajopt.errors import (
    DivergenceError,
    DomainError,
    NumericError,
    ParameterError,
    ShapeError,
)
from trajopt.linesearch import StopCriteria, solve, stationarity_residual
from trajopt.oracles import (
    ORACLE_KINDS,
    ORACLES,
    SLOT_BUDGET,
    _expand,
    bundle_gradient,
    check_subproblem,
    forward,
    lbp,
    lqbp,
    objective_value,
    oracle,
    oracle_step,
    rollout,
    run_backward,
)

from conftest import ENV_SCHEMES, random_lq_problem, random_smooth_problem


def tiny_problem():
    """tau=1, f(x,u)=u, h0=0, h1(x)=x^2/2; the gradient at u is u itself."""
    return TrajectoryProblem(
        dynamics=(lambda x, u: [u[0]],),
        running_costs=(lambda x, u: 0.0 * u[0],),
        final_cost=lambda x: 0.5 * x[0] * x[0],
        x0=[0.0],
        n_x=1,
        n_u=1,
    )


class TestForward:
    def test_orders_do_not_change_the_cost(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1)) * 0.3
        j0 = forward(problem, u, o_f=0, o_h=0).cost
        j2 = forward(problem, u, o_f=2, o_h=2).cost
        assert j0 == j2  # bit-for-bit: orders affect storage only

    def test_lq_cost_matches_dense_quadratic_form(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2))
        flat = u.ravel()
        j_at_zero = objective_value(problem, np.zeros((4, 2)))
        g = dense_gradient(problem, np.zeros((4, 2)))
        h = dense_hessian(problem, np.zeros((4, 2)))
        quadratic = j_at_zero + g @ flat + 0.5 * flat @ h @ flat
        assert forward(problem, u, 0, 0).cost == pytest.approx(quadratic, abs=1e-10)

    def test_divergence_carries_step_index(self):
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] * 1e200],) * 2,
            running_costs=(lambda x, u: 0.0 * u[0],) * 2,
            final_cost=lambda x: x[0],
            x0=[1.0],
            n_x=1,
            n_u=1,
        )
        with pytest.raises(DivergenceError) as err:
            forward(problem, np.zeros((2, 1)), 0, 0)
        assert err.value.t == 1

    @pytest.mark.parametrize("env", ["pendulum", "cartpole", "bicycle-car"])
    def test_hessian_blocks_are_taken_from_the_packed_pairs(self, env, rng):
        problem = build_problem(env, 12)
        n_x, n_u = problem.n_x, problem.n_u
        u = 0.1 * rng.standard_normal((12, n_u))
        bundle = forward(problem, u, 1, 2)
        costs = problem.running_costs + (lambda x, _: problem.final_cost(x),)
        zs = np.hstack([bundle.xs, np.vstack([u, np.zeros((1, n_u))])])
        packed = np.stack([
            autodiff.block_jacobian_curvature(lambda z: h(z[:n_x], z[n_x:]), z[None])[1][0, 0]
            for h, z in zip(costs, zs)
        ])
        at_H, at_Q, at_R = autodiff.hessian_blocks(n_x, n_u)
        for got, expected in ((bundle.H, packed[:-1].take(at_H, axis=-1)),
                              (bundle.Q, packed[:-1].take(at_Q, axis=-1)),
                              (bundle.R, packed[:-1].take(at_R, axis=-1)),
                              (bundle.final_quad, packed[-1].take(at_H, axis=-1))):
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()

    def test_hessian_blocks_match_the_unpacked_hessian(self):
        f = lambda z: z[0] * z[0] * z[3] + autodiff.sin(z[1] * z[4]) + z[2] * z[3] * z[3]
        z = [0.3, -0.8, 1.1, 0.6, -0.2]
        full = autodiff.hessian(f, z)
        packed = autodiff.block_jacobian_curvature(f, [z])[1][0, 0]
        at_H, at_Q, at_R = autodiff.hessian_blocks(3, 2)
        np.testing.assert_array_equal(packed[at_H], full[:3, :3])
        np.testing.assert_array_equal(packed[at_Q], full[3:, 3:])
        np.testing.assert_array_equal(packed[at_R], full[:3, 3:])

    def test_huge_cost_curvature_is_stored_as_it_is(self):
        # 0.5 * (Q + Q') overflows here: Q must be the packed entry itself
        problem = TrajectoryProblem(
            dynamics=(linear_dynamics([[1.0]], [[1.0]]),) * 3,
            running_costs=(lambda x, u: 0.6e308 * u[0] * u[0],) * 3,
            final_cost=lambda x: x[0] * x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        bundle = forward(problem, np.zeros((3, 1)), 1, 2)
        np.testing.assert_array_equal(bundle.Q, np.full((3, 1, 1), 1.2e308))

    def test_bundle_trajectory_satisfies_dynamics(self, rng):
        problem = random_smooth_problem(rng, 3, 2, 2)
        u = rng.standard_normal((3, 2)) * 0.2
        bundle = forward(problem, u, 1, 2)
        for t in range(3):
            x_next = problem.dynamics[t]([float(v) for v in bundle.xs[t]], list(u[t]))
            np.testing.assert_array_equal(bundle.xs[t + 1], np.asarray(x_next, dtype=float))


def _plain_costs(problem, u):
    """Step costs (final cost last) from plain floats, stage by stage."""
    x, costs = [float(v) for v in problem.x0], []
    for t in range(problem.horizon):
        u_t = [float(v) for v in u[t]]
        costs.append(float(problem.running_costs[t](x, u_t)))
        x = [float(v) for v in problem.dynamics[t](x, u_t)]
    return costs + [float(problem.final_cost(x))]


def _assert_same(new, ref, what):
    # bitwise: a block evaluates math's transcendentals element by element
    np.testing.assert_array_equal(np.asarray(new), ref, err_msg=what)


def assert_expansion_matches_per_stage(problem, u):
    """Blocked forward expansions against per-stage autodiff sweeps."""
    n_x = problem.n_x
    b2 = forward(problem, u, o_f=1, o_h=2)
    b1 = forward(problem, u, o_f=1, o_h=1)
    expected_costs = _plain_costs(problem, u)
    for bundle in (b1, b2):
        assert list(bundle.step_costs) == expected_costs  # bitwise
        assert bundle.cost == objective_value(problem, u)
    for t in range(problem.horizon):
        z = np.concatenate([b2.xs[t], u[t]])
        f, h = problem.dynamics[t], problem.running_costs[t]
        jac = autodiff.jacobian(lambda zz: f(zz[:n_x], zz[n_x:]), z)
        _, grad, hess = autodiff.value_gradient_hessian(lambda zz: h(zz[:n_x], zz[n_x:]), z)
        cost_jac = autodiff.jacobian(lambda zz: h(zz[:n_x], zz[n_x:]), z)[0]
        where = f"t={t}"
        for bundle in (b1, b2):
            _assert_same(np.hstack([bundle.A[t], bundle.B[t]]), jac, where)
        _assert_same(np.concatenate([b2.p[t], b2.q[t]]), grad, where)
        full = np.block([[b2.H[t], b2.R[t]], [b2.R[t].T, b2.Q[t]]])
        _assert_same(full, hess, where)
        _assert_same(np.concatenate([b1.p[t], b1.q[t]]), cost_jac, where)


def block_caps(problem, fns, u, order):
    """(length, block cap, traced) of each run of stages sharing one callable.

    The caps of the forward pass's sweeps of derivative ``order``: m floats
    per stage at first order, m + P at second order, where P is every pair
    m(m+1)/2 or, on a run longer than 2 * SLOT_BUDGET // (m(m+1)/2) stages,
    the lanes traced at the run's points.
    """
    n_x = problem.n_x
    zs = np.hstack([forward(problem, u, 0, 0).xs[:-1], u])
    m = zs.shape[1]
    pairs = m * (m + 1) // 2
    dense = max(1, SLOT_BUDGET // m if order == 1 else 3 * SLOT_BUDGET // (m + pairs))
    caps, start = [], 0
    for _, run in itertools.groupby(fns, key=id):
        stop = start + len(list(run))
        traced = order == 2 and stop - start > 2 * max(1, SLOT_BUDGET // pairs)
        cap = dense
        if traced:
            fn = fns[start]
            lanes = autodiff.structural_lanes(lambda z: fn(z[:n_x], z[n_x:]), zs[start:stop])
            cap = max(1, 3 * SLOT_BUDGET // (m + len(lanes)))
        caps.append((stop - start, cap, traced))
        start = stop
    return caps


def assert_last_blocks_cut_short(problem, u, sweeps):
    """Every run of the given (callables, order) sweeps ends on a short block."""
    for fns, order in sweeps:
        for length, cap, _ in block_caps(problem, fns, u, order):
            assert cap == 1 or length % cap != 0


class TestBlockedExpansion:
    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_matches_per_stage_sweeps(self, env, scheme):
        horizon = 91
        problem = build_problem(env, horizon, scheme)
        u = 0.05 * np.random.default_rng(7).standard_normal((horizon, problem.n_u))
        assert_last_blocks_cut_short(problem, u, [
            (problem.dynamics, 1), (problem.running_costs, 1), (problem.running_costs, 2)
        ])
        assert_expansion_matches_per_stage(problem, u)

    def test_stages_with_their_own_callables(self, rng):
        # every stage has its own models, so every block holds one stage
        problem = random_smooth_problem(rng, 7, 3, 2)
        assert_expansion_matches_per_stage(problem, rng.standard_normal((7, 2)) * 0.3)

    def test_non_finite_derivative_at_a_finite_point_diverges(self):
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [1e10 * (1e300 * x[0]) + u[0]],),
            running_costs=(lambda x, u: 0.0 * u[0],),
            final_cost=lambda x: 0.5 * x[0] * x[0],
            x0=[1e-300],
            n_x=1,
            n_u=1,
        )
        assert np.isfinite(objective_value(problem, [[0.0]]))
        with pytest.raises(DivergenceError) as err:
            forward(problem, [[0.0]], 1, 2)
        assert err.value.t == 0
        with pytest.raises(DivergenceError) as err:
            solve(problem, [[0.0]], "gn")
        assert err.value.t == 0
        assert err.value.trace.status == "diverged"

    @pytest.mark.parametrize("horizon", [10, 200])
    def test_domain_error_in_a_sweep_names_the_block(self, horizon):
        # the float pass takes 1e-10 / 1e-310 = 1e300; a sweep multiplies by
        # the reciprocal, which overflows, and meets sin(inf) from stage 5 on
        def benign(x, u):
            return 0.5 * u[0] * u[0]

        def swept_inf(x, u):
            return autodiff.sin(1e-10 / x[0]) + u[0] * u[0]

        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] + u[0]],) * horizon,
            running_costs=(benign,) * 5 + (swept_inf,) * (horizon - 5),
            final_cost=lambda x: 0.0 * x[0],
            x0=[1e-310],
            n_x=1,
            n_u=1,
        )
        u = np.zeros((horizon, 1))
        assert np.isfinite(objective_value(problem, u))
        for o_f, o_h in ((1, 1), (1, 2), (2, 2)):
            with pytest.raises(DivergenceError) as err:
                forward(problem, u, o_f, o_h)
            assert err.value.t == 5
            assert isinstance(err.value.__cause__, DomainError)
            assert err.value.__cause__.primitive == "sin"

    def test_divergence_names_the_first_bad_stage_of_a_block(self):
        # x_2 = sqrt(x_1) + u_1 lands on 0, where sqrt has an infinite slope
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [autodiff.sqrt(x[0]) + u[0]],) * 3,
            running_costs=(lambda x, u: 0.0 * u[0],) * 3,
            final_cost=lambda x: x[0],
            x0=[4.0],
            n_x=1,
            n_u=1,
        )
        u = [[-1.0], [-1.0], [0.0]]
        with pytest.raises(DivergenceError) as err:
            forward(problem, u, 1, 1)
        assert err.value.t == 2

    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_final_expansion_matches_single_point_sweeps(self, env, scheme):
        # the final cost is swept as the last cost stage, at zero controls
        horizon = 12
        problem = build_problem(env, horizon, scheme)
        u = 0.05 * np.random.default_rng(3).standard_normal((horizon, problem.n_u))
        for o_h in (1, 2):
            bundle = forward(problem, u, 1, o_h)
            x = bundle.xs[-1]
            assert bundle.final_slope.tobytes() == autodiff.gradient(problem.final_cost, x).tobytes()
            if o_h == 2:
                quad = autodiff.hessian(problem.final_cost, x)
                assert bundle.final_quad.tobytes() == quad.tobytes()

    def test_final_cost_differentiation_failure_names_the_final_stage(self):
        # sqrt has an infinite slope at x_tau = 0, where 0.5 / 0.0 raises on floats
        horizon = 4
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] + u[0]],) * horizon,
            running_costs=(lambda x, u: u[0] * u[0],) * horizon,
            final_cost=lambda x: autodiff.sqrt(x[0]),
            x0=[1.0],
            n_x=1,
            n_u=1,
        )
        u = np.zeros((horizon, 1))
        u[0] = -1.0
        assert np.isfinite(objective_value(problem, u))
        for o_h in (1, 2):
            with pytest.raises(DivergenceError) as err:
                forward(problem, u, 1, o_h)
            assert err.value.t == horizon


def assert_curvature_matches_per_stage(problem, u, rng):
    """The stored curvature against per-stage lambda_hessian, bitwise.

    Also checks that the Jacobians the second-order sweep reads from its
    diagonal pairs equal the first-order sweep's.
    """
    n_x = problem.n_x
    b2 = forward(problem, u, o_f=2, o_h=2)
    b1 = forward(problem, u, o_f=1, o_h=2)
    m = n_x + problem.n_u
    assert b2.curvature.shape == (problem.horizon, n_x, m * (m + 1) // 2)
    for t in range(problem.horizon):
        where = f"t={t}"
        _assert_same(b2.A[t], b1.A[t], where)
        _assert_same(b2.B[t], b1.B[t], where)
        f = problem.dynamics[t]
        z = np.concatenate([b2.xs[t], u[t]])
        lam = rng.standard_normal(n_x)
        expected = autodiff.lambda_hessian(lambda zz: f(zz[:n_x], zz[n_x:]), z, lam)
        packed = expected[np.triu_indices(m)]  # the documented pair order
        _assert_same(autodiff.contract_curvature(b2.curvature[t], lam), packed, where)


class TestStoredCurvature:
    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_matches_per_stage_lambda_hessian(self, env, scheme):
        horizon = 89  # traced bicycle-car euler dynamics run blocks of 13: 91 is 7 x 13
        problem = build_problem(env, horizon, scheme)
        rng = np.random.default_rng(11)
        u = 0.05 * rng.standard_normal((horizon, problem.n_u))
        assert_last_blocks_cut_short(problem, u, [(problem.dynamics, 2)])
        assert_curvature_matches_per_stage(problem, u, rng)

    def test_stages_with_their_own_callables(self, rng):
        # every stage has its own dynamics, so every block holds one stage
        problem = random_smooth_problem(rng, 7, 3, 2)
        assert_curvature_matches_per_stage(problem, rng.standard_normal((7, 2)) * 0.3, rng)

    @pytest.mark.parametrize("kind", ["ne", "ddp-q"])
    def test_solve_does_not_re_differentiate(self, kind, monkeypatch):
        calls = []
        real = autodiff.lambda_hessian
        monkeypatch.setattr(
            autodiff, "lambda_hessian", lambda *args: calls.append(1) or real(*args)
        )
        problem = build_problem("pendulum", 20)
        u = 0.3 * np.random.default_rng(3).standard_normal((20, 1))
        _, trace = solve(problem, u, kind, stop=StopCriteria(max_iters=5))
        assert trace.iterations > 0
        assert calls == []


def _no_trace(g, zs):
    raise ArithmeticError("tracing switched off")


def full_seed_forward(problem, u, o_f, o_h, monkeypatch):
    """``forward`` with every trace failing, so every run sweeps all pairs."""
    with monkeypatch.context() as patch:
        patch.setattr(autodiff, "structural_lanes", _no_trace)
        return forward(problem, u, o_f, o_h)


def assert_same_bytes(new, ref):
    for field in dataclasses.fields(ref):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        elif field.name != "problem":
            assert a == b, field.name


def shared_callables(problem, horizon):
    """The problem's stage-0 models repeated over ``horizon`` stages."""
    return TrajectoryProblem(
        dynamics=problem.dynamics[:1] * horizon,
        running_costs=problem.running_costs[:1] * horizon,
        final_cost=problem.final_cost,
        x0=problem.x0,
        n_x=problem.n_x,
        n_u=problem.n_u,
    )


def jet_floats(problem, fns, u):
    """Floats the largest output of each second-order block sweep of ``fns`` carries."""
    sizes = []

    def counted(fn):
        def model(x, v):
            out = fn(x, v)
            jets = [o for o in (out if isinstance(out, (list, tuple)) else [out])
                    if type(o) is autodiff.HyperDual]
            if jets:
                sizes.append(max(np.size(o.g) + np.size(o.h) for o in jets))
            return out
        return model

    wrapped = {id(fn): counted(fn) for fn in fns}
    zs = np.hstack([forward(problem, u, 0, 0).xs[:-1], u])
    _expand(autodiff.block_jacobian_curvature, tuple(wrapped[id(fn)] for fn in fns), zs,
            problem.n_x, 2)
    return sizes


class TestJetBudget:
    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_no_block_carries_more_than_three_budgets_per_number(self, env, scheme):
        horizon = 91
        problem = build_problem(env, horizon, scheme)
        u = 0.05 * np.random.default_rng(7).standard_normal((horizon, problem.n_u))
        for fns in (problem.dynamics, problem.running_costs):
            sizes = jet_floats(problem, fns, u)
            assert sizes and max(sizes) <= 3 * SLOT_BUDGET

    def test_swingup_dynamics_take_one_block(self):
        # 25 stages of cart-pole dynamics: m = 5 inputs and 15 pairs per stage
        problem = build_problem("cartpole", 25)
        assert jet_floats(problem, problem.dynamics, np.zeros((25, 1))) == [25 * (5 + 15)]


class TestTracedExpansion:
    """Sweeps seeded with the traced pairs give the full-seed results byte for byte."""

    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_bundles_equal_full_seed_bundles(self, env, scheme, monkeypatch):
        horizon = 89
        problem = build_problem(env, horizon, scheme)
        u = 0.05 * np.random.default_rng(5).standard_normal((horizon, problem.n_u))
        runs = [run for fns in (problem.dynamics, problem.running_costs)
                for run in block_caps(problem, fns, u, 2) if run[2]]
        assert runs and all(length % cap for length, cap, _ in runs)
        for o_f in (1, 2):
            traced = forward(problem, u, o_f, 2)
            assert_same_bytes(traced, full_seed_forward(problem, u, o_f, 2, monkeypatch))

    def test_random_smooth_problem(self, rng, monkeypatch):
        problem = shared_callables(random_smooth_problem(rng, 1, 3, 2), 60)
        u = 0.1 * rng.standard_normal((60, 2))
        assert all(traced for fns in (problem.dynamics, problem.running_costs)
                   for _, _, traced in block_caps(problem, fns, u, 2))
        for o_f in (1, 2):
            traced = forward(problem, u, o_f, 2)
            assert_same_bytes(traced, full_seed_forward(problem, u, o_f, 2, monkeypatch))

    def test_each_block_seeds_the_pattern_of_its_own_points(self, rng):
        # the pair set changes with the branch: (0, 1) where some z0 > 0, else (0, 2)
        def h(x, u):
            return x[0] * x[1] if autodiff.anywhere(x[0] > 0.0) else x[0] * u[0]

        horizon = 150
        zs = rng.uniform(0.5, 1.5, (horizon, 3))
        zs[:, 0] *= -1.0
        zs[10, 0] = 1.0  # only the first block takes the z0 * z1 branch
        got = _expand(autodiff.block_jacobian_curvature, (h,) * horizon, zs, 2, 2)
        g = lambda z: h(z[:2], z[2:])
        cap = 3 * SLOT_BUDGET // (3 + len(autodiff.structural_lanes(g, zs)))
        assert 2 * max(1, SLOT_BUDGET // 6) < horizon and horizon % cap != 0
        expected = [np.concatenate(parts) for parts in zip(*(
            autodiff.block_jacobian_curvature(g, zs[lo:lo + cap])
            for lo in range(0, horizon, cap)
        ))]
        packed = got[1]  # positions 1 and 2 are the pairs (0, 1) and (0, 2)
        assert np.all(packed[:cap, 0, 1] != 0.0) and np.all(packed[cap:, 0, 2] != 0.0)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_failed_run_trace_names_the_full_seed_block(self):
        # the run takes the log branch and fails at stage 180; full-seed
        # blocks of 158 stages fail in the one starting at 158
        def h(x, u):
            return autodiff.log(u[0]) if autodiff.anywhere(x[0] > 0.0) else u[0] * u[0]

        zs = np.tile([-1.0, 1.0], (200, 1))
        zs[165, 0] = 1.0
        zs[180, 1] = -1.0
        assert 3 * SLOT_BUDGET // (2 + 3) == 158
        with pytest.raises(DivergenceError) as err:
            _expand(autodiff.block_jacobian_curvature, (h,) * 200, zs, 1, 2)
        assert err.value.t == 158

    def test_failed_block_trace_names_the_full_seed_block(self):
        # the run and the first traced block take the product branch; the
        # second traced block (from 198) takes the log and fails at 250;
        # full-seed blocks of 158 stages fail in the one starting at 158
        def h(x, u):
            return u[0] * u[0] if autodiff.anywhere(x[0] > 0.0) else autodiff.log(u[0])

        zs = np.tile([-1.0, 1.0], (300, 1))
        zs[5, 0] = 1.0
        zs[250, 1] = -1.0
        g = lambda z: h(z[:1], z[1:])
        assert 3 * SLOT_BUDGET // (2 + len(autodiff.structural_lanes(g, zs))) == 198
        with pytest.raises(DivergenceError) as err:
            _expand(autodiff.block_jacobian_curvature, (h,) * 300, zs, 1, 2)
        assert err.value.t == 158

    def test_division_by_zero_in_a_one_stage_block_names_it(self, monkeypatch):
        # sqrt has an infinite slope at x = 0, reached at stages 10 and 316;
        # full seeds sweep stage 316 alone on floats (after two blocks of
        # 158), where 0.5 / 0.0 raises
        horizon = 317
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [u[0]],) * horizon,
            running_costs=(lambda x, u: autodiff.sqrt(x[0]) + u[0] * u[0],) * horizon,
            final_cost=lambda x: x[0],
            x0=[1.0],
            n_x=1,
            n_u=1,
        )
        u = np.ones((horizon, 1))
        u[9] = u[315] = 0.0
        with pytest.raises(DivergenceError) as untraced:
            full_seed_forward(problem, u, 1, 2, monkeypatch)
        with pytest.raises(DivergenceError) as err:
            forward(problem, u, 1, 2)
        assert untraced.value.t == err.value.t == 316


class TestControlValidation:
    @pytest.mark.parametrize("entry", ["solve", "oracle", "dense_gradient"])
    def test_wrong_shape_names_the_expected_shape(self, entry):
        problem = build_problem("pendulum", 20)
        for bad in (np.zeros((7, 1)), np.zeros(7)):
            with pytest.raises(ShapeError, match=r"expected \(20, 1\)"):
                _call(entry, problem, bad)

    @pytest.mark.parametrize("entry", ["solve", "oracle", "dense_gradient"])
    def test_non_finite_controls_rejected_before_any_model(self, entry):
        problem = build_problem("pendulum", 20)
        with pytest.raises(ShapeError, match="must be finite; step t=0"):
            _call(entry, problem, np.full((20, 1), np.nan))

    @pytest.mark.parametrize(
        "entry", [forward, objective_value, stationarity_residual], ids=lambda f: f.__name__
    )
    def test_wrong_shape_reaching_forward_names_the_expected_shape(self, entry):
        problem = build_problem("pendulum", 20)
        with pytest.raises(ShapeError, match=r"expected \(20, 1\)"):
            entry(problem, np.zeros((7, 1)))

    def test_non_finite_trial_point_is_a_divergence(self):
        problem = build_problem("pendulum", 20)
        with pytest.raises(DivergenceError):
            objective_value(problem, np.full((20, 1), np.nan))

    @pytest.mark.parametrize("entry", ["forward", "solve", "oracle", "dense_gradient"])
    @pytest.mark.parametrize("form", ["transposed", "row", "complex", "string"])
    def test_other_shapes_of_the_right_size_rejected(self, entry, form):
        problem = build_problem("simple-car", 3)
        u = np.arange(6.0).reshape(3, 2) * 0.1
        bad = {"transposed": u.T, "row": u.reshape(1, 6), "complex": u * (1 + 1j),
               "string": u.astype(str)}[form]
        with pytest.raises(ShapeError, match=r"expected \(3, 2\)"):
            _call(entry, problem, bad)

    def test_flat_controls_accepted(self):
        problem = build_problem("simple-car", 3)
        u = np.arange(6.0).reshape(3, 2) * 0.1
        flat, shaped = oracle(problem, u.ravel(), "gn"), oracle(problem, u, "gn")
        np.testing.assert_array_equal(flat.direction, shaped.direction)
        assert forward(problem, u.ravel(), 1, 2).cost == forward(problem, u, 1, 2).cost
        assert np.array_equal(solve(problem, u.ravel(), "gn", stop=StopCriteria(max_iters=2))[0],
                              solve(problem, u, "gn", stop=StopCriteria(max_iters=2))[0])


def _call(entry, problem, u):
    if entry == "solve":
        return solve(problem, u, "gn")
    if entry == "forward":
        return forward(problem, u)
    if entry == "dense_gradient":
        return dense_gradient(problem, u)
    return oracle(problem, u, "gn")


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("nu", [math.nan, math.inf, "a", 1j, None])
def test_non_finite_ridge_rejected(kind, nu):
    problem = build_problem("pendulum", 5)
    bundle = forward(problem, np.zeros((5, 1)), ORACLES[kind].o_f, ORACLES[kind].o_h)
    with pytest.raises(ParameterError, match=r"\bnu\b"):
        oracle_step(bundle, kind, nu)
    if nu is not None:  # oracle reads None as the kind's start ridge
        with pytest.raises(ParameterError, match=r"\bnu\b"):
            oracle(problem, np.zeros((5, 1)), kind, nu=nu)


class TestBackwardGd:
    def test_hand_chain_rule(self):
        bundle = forward(tiny_problem(), [[3.0]], 1, 1)
        result = run_backward(bundle, "gd", 1.0)
        np.testing.assert_allclose(result.k[0], [-3.0])
        assert result.c0_zero == pytest.approx(-4.5)  # -|grad|^2 / 2

    def test_zero_direction_at_lq_minimizer(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 1)
        step = oracle(problem, np.zeros((4, 1)), "gn", nu=0.0)
        assert step.feasible
        u_star = step.direction
        direction = oracle(problem, u_star, "gd", nu=1.0).direction
        assert np.max(np.abs(direction)) <= 1e-9

    def test_nu_scaling_halves_direction(self, rng):
        problem = random_smooth_problem(rng, 3, 2, 1)
        u = rng.standard_normal((3, 1)) * 0.1
        bundle = forward(problem, u, 1, 1)
        d1 = run_backward(bundle, "gd", 1.0)
        d2 = run_backward(bundle, "gd", 2.0)
        np.testing.assert_allclose(d2.k, 0.5 * d1.k)

    def test_rollout_equals_stacked_offsets(self, rng):
        problem = random_smooth_problem(rng, 3, 2, 1)
        u = rng.standard_normal((3, 1)) * 0.1
        without = oracle(problem, u, "gd", nu=1.0)
        bundle = forward(problem, u, 1, 1)
        with_roll = rollout(np.zeros(problem.n_x), without.K, without.k, bundle.linear_step)
        np.testing.assert_allclose(with_roll, without.direction)

    @pytest.mark.parametrize("nu", [1.0, 1e-3, 100.0])
    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_reads_the_bundle_gradient_bit_for_bit(self, env, scheme, nu):
        horizon = 30
        problem = build_problem(env, horizon, scheme)
        u = 0.01 * np.random.default_rng(3).standard_normal((horizon, problem.n_u))
        bundle = forward(problem, u, 1, 1)
        result = run_backward(bundle, "gd", nu)
        g = bundle_gradient(bundle)
        assert result.k.tobytes() == (-g / nu).tobytes()
        j0 = 0.0
        for t in range(horizon - 1, -1, -1):
            j0 = j0 - float(g[t] @ g[t]) / (2.0 * nu)
        assert result.c0_zero == j0
        # an lbp chain over the stages gives the same bytes
        j, c0 = bundle.final_slope, 0.0
        for t in range(horizon - 1, -1, -1):
            j, c0, k_t = lbp(bundle.A[t], bundle.B[t], bundle.p[t], bundle.q[t], j, c0, nu)
            assert k_t.tobytes() == result.k[t].tobytes()
        assert c0 == result.c0_zero

    def test_matches_dense_gradient(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2)) * 0.2
        direction = oracle(problem, u, "gd", nu=2.0).direction
        dense = dense_gradient(problem, u).reshape(4, 2)
        np.testing.assert_allclose(-2.0 * direction, dense, rtol=1e-8, atol=1e-10)


class TestBackwardGn:
    def test_exact_on_lq_problem(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2))
        step = oracle(problem, u, "gn", nu=0.0)
        assert step.feasible
        landed = u + step.direction
        grad = dense_gradient(problem, landed)
        assert np.max(np.abs(grad)) <= 1e-9 * (1.0 + np.max(np.abs(dense_gradient(problem, u))))

    def test_matches_dense_normal_equations(self, rng):
        for _ in range(4):
            problem = random_smooth_problem(rng, 3, 1, 1)
            u = rng.standard_normal((3, 1)) * 0.2
            nu = 0.5
            step = oracle(problem, u, "gn", nu=nu)
            gn = dense_gauss_newton_matrix(problem, u)
            g = dense_gradient(problem, u)
            expected = np.linalg.solve(gn + nu * np.eye(3), -g)
            np.testing.assert_allclose(step.direction.ravel(), expected, rtol=1e-8, atol=1e-10)

    def test_indefinite_stage_is_infeasible_at_zero_nu(self):
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] + u[0]],),
            running_costs=(lambda x, u: -u[0] * u[0],),
            final_cost=lambda x: 0.1 * x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        step = oracle(problem, [[0.0]], "gn", nu=0.0)
        assert not step.feasible
        assert step.c0_zero == np.inf
        assert step.direction is None


class TestBackwardNe:
    def test_equals_gn_on_linear_dynamics(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1))
        gn = oracle(problem, u, "gn", nu=0.1)
        ne = oracle(problem, u, "ne", nu=0.1)
        np.testing.assert_allclose(ne.direction, gn.direction, atol=1e-12)

    def test_matches_dense_newton_system(self, rng):
        for _ in range(4):
            problem = random_smooth_problem(rng, 3, 1, 1)
            u = rng.standard_normal((3, 1)) * 0.2
            nu = 1.0
            step = oracle(problem, u, "ne", nu=nu)
            if not step.feasible:
                continue
            hess = dense_hessian(problem, u)
            g = dense_gradient(problem, u)
            expected = np.linalg.solve(hess + nu * np.eye(3), -g)
            np.testing.assert_allclose(step.direction.ravel(), expected, rtol=1e-8, atol=1e-10)

    def test_adjoint_recursion_hand_example(self):
        # f_t(x, u) = 2x + u over two steps, final cost x: costates 1 then 2
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [2.0 * x[0] + u[0]],) * 2,
            running_costs=(lambda x, u: 0.0 * u[0],) * 2,
            final_cost=lambda x: x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        lam = dense_costates(problem, np.zeros((2, 1)))
        np.testing.assert_allclose(lam, [[2.0], [1.0]])

    def test_adjoints_match_dense_solve(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2)) * 0.2
        bundle = forward(problem, u, 1, 1)
        # recursive adjoint sweep
        lam = bundle.final_slope
        rec = [lam]
        for t in range(3, 0, -1):
            lam = bundle.p[t] + bundle.A[t].T @ lam
            rec.append(lam)
        rec = np.array(rec[::-1])
        np.testing.assert_allclose(rec, dense_costates(problem, u), rtol=1e-8, atol=1e-10)
        np.testing.assert_array_equal(bundle.adjoints, rec)  # the bundle runs this recursion


class TestBackwardDdpQ:
    def test_equals_gn_on_linear_dynamics(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1))
        gn = oracle(problem, u, "gn", nu=0.2)
        ddp = oracle(problem, u, "ddp-q", nu=0.2)
        np.testing.assert_allclose(ddp.direction, gn.direction, atol=1e-12)

    def test_scalar_recursion_oracle(self, rng):
        """c0(0) matches an independently coded scalar Bellman recursion."""
        problem = random_smooth_problem(rng, 2, 1, 1)
        u = rng.standard_normal((2, 1)) * 0.3
        nu = 0.3
        bundle = forward(problem, u, 2, 2)
        result = run_backward(bundle, "ddp-q", nu)
        assert result.feasible

        # independent scalar recursion: J, j, j0 and curvature folded by hand
        Jv, jv, j0 = float(bundle.final_quad[0, 0]), float(bundle.final_slope[0]), 0.0
        for t in (1, 0):
            f = problem.dynamics[t]
            z = np.concatenate([bundle.xs[t], u[t]])
            w = autodiff.lambda_hessian(lambda zz: f(zz[:1], zz[1:]), z, [jv])
            H = bundle.H[t, 0, 0] + w[0, 0]
            Q = bundle.Q[t, 0, 0] + nu + w[1, 1]
            R = bundle.R[t, 0, 0] + w[0, 1]
            A, B = bundle.A[t, 0, 0], bundle.B[t, 0, 0]
            p, q = bundle.p[t, 0], bundle.q[t, 0]
            M = Q + B * Jv * B
            m = q + B * jv
            j0 = j0 - 0.5 * m * m / M
            new_J = H + A * Jv * A - (R + A * Jv * B) ** 2 / M
            new_j = p + A * jv - (R + A * Jv * B) * m / M
            Jv, jv = new_J, new_j
        assert result.c0_zero == pytest.approx(j0, abs=1e-10)

    def test_huge_nu_approaches_gradient_offsets(self, rng):
        problem = random_smooth_problem(rng, 3, 2, 1)
        u = rng.standard_normal((3, 1)) * 0.2
        bundle = forward(problem, u, 2, 2)
        nu = 1e12
        result = run_backward(bundle, "ddp-q", nu)
        grad = bundle_gradient(bundle)
        for t in range(3):
            np.testing.assert_allclose(result.k[t], -grad[t] / nu, rtol=1e-6)


def _integrator_step(t, y, v):
    return y + v  # A = B = 1 at every stage


class TestRollout:
    def test_zero_policies_roll_zero_controls(self):
        controls = rollout([0.0], np.zeros((3, 1, 1)), np.zeros((3, 1)), _integrator_step)
        np.testing.assert_allclose(controls, np.zeros((3, 1)))

    def test_hand_rolled_constant_policies(self):
        controls = rollout([0.0], np.zeros((2, 1, 1)), np.ones((2, 1)), _integrator_step)
        np.testing.assert_allclose(controls, [[1.0], [1.0]])

    def test_overflow_raises_divergence_without_a_warning(self):
        problem = build_problem("pendulum", 6)
        bundle = forward(problem, np.zeros((6, 1)), 1, 2)
        K, k = np.full((6, 1, 2), 1e200), np.full((6, 1), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                rollout(np.zeros(2), K, k, bundle.linear_step)
        assert err.value.t == 1

    def test_gamma_scaling_on_linear_maps(self, rng):
        problem = random_smooth_problem(rng, 5, 2, 2)
        u = rng.standard_normal((5, 2)) * 0.2
        bundle = forward(problem, u, 1, 2)
        result = run_backward(bundle, "gn", 0.5)
        assert result.feasible
        base = rollout(np.zeros(2), result.K, result.k, bundle.linear_step)
        for gamma in (0.5, 0.25, 0.1):
            got = rollout(np.zeros(2), result.K, gamma * result.k, bundle.linear_step)
            np.testing.assert_allclose(got, gamma * base, atol=1e-12)


class TestOracleDispatch:
    def test_gn_and_ddp_lq_agree_on_linear_dynamics(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2))
        gn = oracle(problem, u, "gn", nu=0.3)
        ddp = oracle(problem, u, "ddp-lq", nu=0.3)
        np.testing.assert_allclose(gn.direction, ddp.direction, atol=1e-9)

    def test_ne_and_ddp_q_agree_on_linear_dynamics(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2))
        ne = oracle(problem, u, "ne", nu=0.3)
        ddp = oracle(problem, u, "ddp-q", nu=0.3)
        np.testing.assert_allclose(ne.direction, ddp.direction, atol=1e-9)

    def test_gn_and_ddp_lq_share_policies(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1)) * 0.2
        bundle = forward(problem, u, 1, 2)
        a = run_backward(bundle, "gn", 0.4)
        b = run_backward(bundle, "ddp-lq", 0.4)
        np.testing.assert_array_equal(a.K, b.K)
        np.testing.assert_array_equal(a.k, b.k)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_oracle_is_forward_then_oracle_step(self, kind):
        """The roll-out follows the increment maps for the DDP kinds, linear maps otherwise."""
        problem = build_problem("pendulum", 20)  # nonlinear dynamics: the maps differ
        u = 0.3 * np.random.default_rng(3).standard_normal((20, 1))
        spec = ORACLES[kind]
        bundle = forward(problem, u, spec.o_f, spec.o_h)
        step = oracle_step(bundle, kind, 1.0)
        assert step.feasible
        np.testing.assert_array_equal(oracle(problem, u, kind, 1.0).direction, step.direction)

        y0 = np.zeros(problem.n_x)
        linear = rollout(y0, step.K, step.k, bundle.linear_step)
        original = rollout(y0, step.K, step.k, bundle.increment_step)
        if kind != "gd":  # constant gradient policies never read the state
            assert np.max(np.abs(linear - original)) > 1e-6
        expected = original if kind in ("ddp-lq", "ddp-q") else linear
        np.testing.assert_array_equal(step.direction, expected)

    def test_gd_direction_matches_finite_difference_gradient(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1)) * 0.2
        direction = oracle(problem, u, "gd", nu=1.0).direction
        h = 1e-6
        fd = np.zeros_like(u)
        for t in range(4):
            up, um = u.copy(), u.copy()
            up[t, 0] += h
            um[t, 0] -= h
            fd[t, 0] = (objective_value(problem, up) - objective_value(problem, um)) / (2 * h)
        np.testing.assert_allclose(-direction, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_default_ridge_is_the_kinds_start(self, kind):
        problem = build_problem("pendulum", 20)
        u = np.zeros((20, 1))
        step = oracle(problem, u, kind)
        assert step.feasible
        expected = oracle(problem, u, kind, nu=ORACLES[kind].start_nu)
        np.testing.assert_array_equal(step.direction, expected.direction)

    def test_unknown_kind_rejected(self, rng):
        problem = random_smooth_problem(rng, 2, 1, 1)
        with pytest.raises(ParameterError):
            oracle(problem, np.zeros((2, 1)), "bfgs", nu=0.0)

    def test_model_value_is_half_gradient_dot_direction(self, rng):
        for kind in ("gn", "ne"):
            problem = random_smooth_problem(rng, 3, 2, 1)
            u = rng.standard_normal((3, 1)) * 0.2
            step = oracle(problem, u, kind, nu=0.8)
            if not step.feasible:
                continue
            g = dense_gradient(problem, u)
            expected = 0.5 * g @ step.direction.ravel()
            assert step.c0_zero == pytest.approx(expected, rel=1e-8)


def overflowing_problem():
    """Finite data whose cost-to-go overflows within three stages."""
    return TrajectoryProblem(
        dynamics=(linear_dynamics([[1e200]], [[1.0]]),) * 3,
        running_costs=(quadratic_cost([[0.0]], [[1.0]], [[0.0]], [0.0], [0.0]),) * 3,
        final_cost=quadratic_state_cost([[0.0]], [1e200]),
        x0=[0.0],
        n_x=1,
        n_u=1,
    )


def one_concave_stage_problem(concave_at: int, horizon: int = 5):
    """x' = x + u with control weight 1, except -4 at one stage; final cost x^2/2."""
    convex = quadratic_cost([[0.0]], [[1.0]], [[0.0]], [0.0], [0.0])
    concave = quadratic_cost([[0.0]], [[-4.0]], [[0.0]], [0.0], [0.0])
    return TrajectoryProblem(
        dynamics=(linear_dynamics([[1.0]], [[1.0]]),) * horizon,
        running_costs=tuple(concave if t == concave_at else convex for t in range(horizon)),
        final_cost=quadratic_state_cost([[1.0]], [1.0]),
        x0=[1.0],
        n_x=1,
        n_u=1,
    )


class TestSweepFailures:
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_overflow_is_an_infeasible_result(self, kind):
        step = oracle(overflowing_problem(), np.zeros((3, 1)), kind, nu=1.0)
        assert not step.feasible
        assert step.failed_stage == 1  # the first stage whose output overflows
        assert step.c0_zero == np.inf
        assert step.direction is None and step.K is None and step.k is None

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_overflow_ends_solve_with_a_status(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow must not leak as a RuntimeWarning
            _, trace = solve(overflowing_problem(), np.zeros((3, 1)), kind)
        assert trace.status in ("converged", "stalled", "max-iters", "diverged")

    @pytest.mark.parametrize("kind", ["gn", "ne", "ddp-lq", "ddp-q"])
    @pytest.mark.parametrize("concave_at", [0, 2, 4])
    def test_failed_stage_is_the_non_convex_stage(self, kind, concave_at):
        problem = one_concave_stage_problem(concave_at)
        step = oracle(problem, np.zeros((5, 1)), kind, nu=0.0)
        assert not step.feasible
        assert step.failed_stage == concave_at
        assert oracle(one_concave_stage_problem(None), np.zeros((5, 1)), kind, nu=0.0).feasible


class TestFactorOnce:
    @pytest.mark.parametrize("kind", ["gn", "ne", "ddp-lq", "ddp-q"])
    def test_one_cholesky_factorization_per_stage(self, kind, cholesky_spy):
        horizon = 50
        problem = build_problem("bicycle-car", horizon)
        spec = ORACLES[kind]
        bundle = forward(problem, np.zeros((horizon, problem.n_u)), spec.o_f, spec.o_h)
        cholesky_spy.clear()
        result = run_backward(bundle, kind, 1.0)
        assert result.feasible
        assert cholesky_spy == ["ok"] * horizon

    @pytest.mark.parametrize("env", ["pendulum", "cartpole"])
    @pytest.mark.parametrize("kind", ["gn", "ne", "ddp-lq", "ddp-q"])
    def test_one_control_sweeps_make_no_lapack_factorization(self, env, kind, cholesky_spy):
        horizon = 30
        problem = build_problem(env, horizon)
        spec = ORACLES[kind]
        u = 0.01 * np.random.default_rng(3).standard_normal((horizon, problem.n_u))
        bundle = forward(problem, u, spec.o_f, spec.o_h)
        cholesky_spy.clear()
        assert run_backward(bundle, kind, 1.0).feasible
        assert cholesky_spy == []  # 1x1 control blocks are factored in closed form


def counted_dynamics(problem):
    """The problem with each distinct dynamic wrapped once, and the shared call counter."""
    calls = [0]

    def count(f):
        def g(x, u):
            calls[0] += 1
            return f(x, u)
        return g

    wrapped = {f: count(f) for f in problem.dynamics}  # stages sharing f share its wrapper
    dynamics = tuple(wrapped[f] for f in problem.dynamics)
    return dataclasses.replace(problem, dynamics=dynamics), calls


class TestIncrementStepBase:
    """The DDP step map reuses the forward pass's stored f(x_t, u_t)."""

    @pytest.mark.parametrize("env", ["bicycle-car", "cartpole"])
    def test_increment_step_equals_fresh_finite_difference(self, env):
        horizon = 30
        problem = build_problem(env, horizon)
        rng = np.random.default_rng(11)
        u = 0.1 * rng.standard_normal((horizon, problem.n_u))
        bundle = forward(problem, u, 1, 2)
        for t in range(horizon):
            y = 0.01 * rng.standard_normal(problem.n_x)
            v = 0.01 * rng.standard_normal(problem.n_u)
            f = problem.dynamics[t]
            moved = f((bundle.xs[t] + y).tolist(), (u[t] + v).tolist())
            fresh = np.asarray(moved) - np.asarray(f(bundle.xs[t].tolist(), u[t].tolist()))
            np.testing.assert_array_equal(bundle.increment_step(t, y, v), fresh)

    @pytest.mark.parametrize("env", ["bicycle-car", "cartpole"])
    def test_one_model_evaluation_per_rollout_step(self, env):
        horizon = 30
        problem, calls = counted_dynamics(build_problem(env, horizon))
        u = 0.1 * np.random.default_rng(12).standard_normal((horizon, problem.n_u))
        bundle = forward(problem, u, 1, 2)
        result = run_backward(bundle, "ddp-lq", 1.0)
        assert result.feasible
        calls[0] = 0
        rollout(np.zeros(problem.n_x), result.K, result.k, ORACLES["ddp-lq"].step_map(bundle))
        assert calls[0] == horizon


def per_stage_sweep(bundle, nu, kind="ne"):
    """The ne or ddp-q sweep stage by stage: one ``contract_curvature`` per stage, ridge first.

    ne contracts against the adjoint, ddp-q against the running cost-to-go
    slope.  Returns (K, k, c0) or None when a stage fails its check.
    """
    tau, n_x, n_u = bundle.horizon, bundle.problem.n_x, bundle.problem.n_u
    A, B, p, q = bundle.A, bundle.B, bundle.p, bundle.q
    at_H, at_Q, at_R = autodiff.hessian_blocks(n_x, n_u)
    K = np.empty((tau, n_x, n_u)).transpose(0, 2, 1)
    k = np.empty((tau, n_u))
    J, j, j0 = bundle.final_quad, bundle.final_slope, 0.0
    lam = bundle.final_slope
    with np.errstate(all="ignore"):
        for t in range(tau - 1, -1, -1):
            w = autodiff.contract_curvature(bundle.curvature[t], lam if kind == "ne" else j)
            H = bundle.H[t] + w[at_H]
            Q = (bundle.Q[t] + nu * np.eye(n_u)) + w[at_Q]
            R = bundle.R[t] + w[at_R]
            lam = p[t] + A[t].T @ lam
            checked = check_subproblem(B[t], Q, q[t], J, j, j0)
            if checked is None:
                return None
            J, j, j0, K[t], k[t] = lqbp(A[t], B[t], H, R, p[t], J, j, j0, checked)
    return K, k, j0


def per_stage_gradient(bundle):
    """The adjoint recursion and gradient stage by stage, from the final slope back."""
    g = np.zeros((bundle.horizon, bundle.problem.n_u))
    j = bundle.final_slope
    with np.errstate(all="ignore"):
        for t in range(bundle.horizon - 1, -1, -1):
            g[t] = bundle.q[t] + bundle.B[t].T @ j
            j = bundle.p[t] + bundle.A[t].T @ j
    return g


NE_CELLS = [
    ("pendulum", None),
    ("cartpole", "rk4"),
    ("simple-car", None),
    ("bicycle-car", None),
    ("pendulum", "rk4-varying"),
]


def assert_sweep_equals_per_stage(env, scheme, kind, horizon=40):
    problem = build_problem(env, horizon, scheme)
    rng = np.random.default_rng(0)
    starts = [np.zeros((horizon, problem.n_u))]
    starts += [0.1 * rng.standard_normal((horizon, problem.n_u)) for _ in range(2)]
    feasible = 0
    for i, u in enumerate(starts):
        bundle = forward(problem, u, 2, 2)
        for nu in (0.0, 1e-3, 1.0, 100.0):
            result = run_backward(bundle, kind, nu)
            expected = per_stage_sweep(bundle, nu, kind)
            where = f"start {i} nu={nu}"
            if expected is None:
                assert not result.feasible, where
                continue
            K, k, c0 = expected
            assert result.feasible, where
            feasible += 1
            assert np.array_equal(result.K, K), where
            assert np.array_equal(result.k, k), where
            assert result.c0_zero == c0, where
    assert feasible >= 3


class TestBatchedNeContraction:
    """The Newton sweep folds the curvature of one block of stages at a time, bit for bit.

    The DDP-Q sweep folds stage by stage, gathering the packed sums straight
    into its blocks; it equals the unpacked per-stage fold bit for bit too.
    """

    @pytest.mark.parametrize("env,scheme", NE_CELLS)
    def test_sweep_equals_per_stage_contraction(self, env, scheme):
        assert_sweep_equals_per_stage(env, scheme, "ne")

    @pytest.mark.parametrize("kind", ["ne", "ddp-q"])
    def test_multi_block_sweep_equals_per_stage_contraction(self, kind):
        cap = SLOT_BUDGET // 6  # stages per fold block: pendulum has m = 3, 6 pairs
        assert 100 // cap >= 2 and 100 % cap  # two whole blocks and one cut short
        assert_sweep_equals_per_stage("pendulum", None, kind, horizon=100)

    @pytest.mark.parametrize("horizon", [1000, 2000])
    def test_newton_sweep_memory_does_not_grow_with_the_horizon(self, horizon):
        bundle = forward(build_problem("pendulum", horizon), np.zeros((horizon, 1)), 2, 2)
        bundle.adjoints  # computed once per bundle, before the sweep
        gc.collect()
        tracemalloc.start()
        try:
            result = run_backward(bundle, "ne", 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.feasible
        extra = peak - result.K.nbytes - result.k.nbytes
        assert extra <= 64 * 1024, f"{extra / 1024:.1f} KiB above K and k"

    @pytest.mark.parametrize("env,scheme", NE_CELLS)
    def test_value_slope_fold_equals_per_stage_contraction(self, env, scheme):
        assert_sweep_equals_per_stage(env, scheme, "ddp-q")

    @pytest.mark.parametrize("env,scheme", NE_CELLS)
    def test_gradient_equals_per_stage_recursion(self, env, scheme):
        horizon = 40
        problem = build_problem(env, horizon, scheme)
        u = 0.1 * np.random.default_rng(2).standard_normal((horizon, problem.n_u))
        for o_f, o_h in ((1, 1), (1, 2), (2, 2)):
            bundle = forward(problem, u, o_f, o_h)
            assert np.array_equal(bundle_gradient(bundle), per_stage_gradient(bundle))

    def test_stacked_contraction_equals_per_point(self, rng):
        # m = 3 and 8 are the pendulum's and the bicycle car's joint points;
        # the bicycle car has 8 outputs
        for m, outputs in itertools.product((3, 8), (1, 2, 4, 8, 9)):
            pairs = m * (m + 1) // 2
            stages = 2 * (SLOT_BUDGET // pairs) + 1  # longer than one fold block
            d12 = rng.standard_normal((stages, outputs, pairs))
            lam = rng.standard_normal((stages, outputs))
            stacked = autodiff.contract_curvature(d12, lam)
            assert stacked.shape == (stages, pairs)
            for t in range(stages):
                point = autodiff.contract_curvature(d12[t], lam[t])
                assert stacked[t].tobytes() == point.tobytes(), (m, outputs, t)


def exploding_problem(horizon=6):
    """x' = 1e100 x + u from x0 = 0: a unit push at t=0 overflows at t=4."""
    return TrajectoryProblem(
        dynamics=(linear_dynamics([[1e100]], [[1.0]]),) * horizon,
        running_costs=(quadratic_cost([[0.0]], [[1.0]], [[0.0]], [0.0], [0.0]),) * horizon,
        final_cost=quadratic_state_cost([[0.0]], [0.0]),
        x0=[0.0],
        n_x=1,
        n_u=1,
    )


class TestTrajectoryPasses:
    """The float-list roll and roll-out: states, divergence steps and step maps."""

    def test_roll_names_a_nan_state(self):
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] + u[0]],) * 2 + (lambda x, u: [x[0] * math.nan],),
            running_costs=(lambda x, u: 0.0 * u[0],) * 3,
            final_cost=lambda x: x[0],
            x0=[1.0],
            n_x=1,
            n_u=1,
        )
        with pytest.raises(DivergenceError) as err:
            forward(problem, np.zeros((3, 1)), 1, 2)
        assert err.value.t == 2

    @pytest.mark.parametrize("kind", ["gn", "ddp-lq"])
    def test_rollout_names_the_overflowing_step(self, kind):
        problem = exploding_problem()
        bundle = forward(problem, np.zeros((6, 1)), 1, 2)
        K, k = np.zeros((6, 1, 1)), np.zeros((6, 1))
        k[0] = 1.0  # y_1 = 1, then y grows by 1e100 per step and overflows at t=4
        step = ORACLES[kind].step_map(bundle)
        if kind == "gn":
            with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
                rollout(np.zeros(1), K, k, step)
            assert err.value.t == 4
        else:
            with pytest.raises(NumericError, match="non-finite increment at t=4"):
                rollout(np.zeros(1), K, k, step)

    def test_rollout_accepts_a_sequence_returning_step(self):
        K = np.full((4, 1, 1), -0.5)
        k = np.ones((4, 1))

        def as_list(t, y, v):
            return [y[0] + v[0]]

        def as_tuple(t, y, v):
            return (y[0] + v[0],)

        expected = rollout([0.0], K, k, _integrator_step)
        for step in (as_list, as_tuple):
            np.testing.assert_array_equal(rollout([0.0], K, k, step), expected)

    @pytest.mark.parametrize("env,scheme", [("cartpole", "rk4"), ("bicycle-car", None)])
    def test_states_are_one_stacked_array(self, env, scheme):
        horizon = 12
        problem = build_problem(env, horizon, scheme)
        u = 0.1 * np.random.default_rng(5).standard_normal((horizon, problem.n_u))
        for o_f, o_h in ((0, 0), (2, 2)):
            xs = forward(problem, u, o_f, o_h).xs
            assert isinstance(xs, np.ndarray)
            assert xs.dtype == np.float64 and xs.shape == (horizon + 1, problem.n_x)
            np.testing.assert_array_equal(xs[0], problem.x0)
            for t in range(horizon):
                x_next = problem.dynamics[t](xs[t].tolist(), u[t].tolist())
                np.testing.assert_array_equal(xs[t + 1], np.asarray(x_next, dtype=float))
