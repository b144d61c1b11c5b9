"""Step acceptance rules, the solver loop, and the stationarity certificate."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajopt.linesearch
import trajopt.oracles
from trajopt import autodiff as ad
from trajopt.cli import initial_controls
from trajopt.core import TrajectoryProblem, linear_dynamics
from trajopt.dense import dense_gradient
from trajopt.envs import build_problem
from trajopt.errors import DivergenceError, NumericError, ParameterError
from trajopt.linesearch import (
    ACCEPT_TIE_RTOL,
    STEP_RULES,
    LineSearchConfig,
    StopCriteria,
    _classify,
    _escalate_directional,
    directional_search,
    regularized_search,
    solve,
    stationarity_residual,
)
from trajopt.oracles import (
    ORACLE_KINDS,
    OracleDirection,
    forward,
    objective_value,
    oracle,
    oracle_spec,
    rollout,
    run_backward,
)

from conftest import (
    ENV_SCHEMES,
    acceptance_violations,
    counted_problem,
    random_lq_problem,
    random_smooth_problem,
)


def quadratic_scalar_problem():
    """J(u) = 0.5 u^2 through f(x,u) = u, final cost x^2/2."""
    return TrajectoryProblem(
        dynamics=(lambda x, u: [u[0]],),
        running_costs=(lambda x, u: 0.0 * u[0],),
        final_cost=lambda x: 0.5 * x[0] * x[0],
        x0=[0.0],
        n_x=1,
        n_u=1,
    )


class TestSettings:
    @pytest.mark.parametrize("setting", [
        {"rule": "backtracking"},
        {"rho_dec": math.nan}, {"rho_dec": 1.0},
        {"rho_inc": math.nan}, {"rho_inc": math.inf}, {"rho_inc": 1.0},
        {"gamma_min": math.nan}, {"gamma_min": math.inf}, {"gamma_min": 0.0},
        {"nu_init": math.nan}, {"nu_init": math.inf}, {"nu_init": -1.0}, {"nu_init": 5e-324},
        {"rho_dec": "0.5"}, {"rho_inc": None}, {"gamma_min": 1e-12 + 0j}, {"gamma_min": True},
        {"nu_init": "1e-6"},
    ])
    def test_line_search_config_rejects(self, setting):
        with pytest.raises(ParameterError):
            LineSearchConfig(**setting)

    @pytest.mark.parametrize("setting", [
        {"max_iters": 2.5}, {"max_iters": 3.0}, {"max_iters": "5"}, {"max_iters": -1},
        {"cost_rel_tol": math.nan}, {"cost_rel_tol": math.inf}, {"cost_rel_tol": 0.0},
        {"min_step": math.nan}, {"min_step": math.inf}, {"min_step": -1.0},
        {"max_iters": True}, {"max_iters": False}, {"cost_rel_tol": "1e-12"},
        {"cost_rel_tol": None}, {"min_step": 1e-20j}, {"min_step": True},
    ])
    def test_stop_criteria_rejects(self, setting):
        with pytest.raises(ParameterError):
            StopCriteria(**setting)

    def test_integer_types_are_accepted(self):
        assert StopCriteria(max_iters=np.int64(3)).max_iters == 3


class TestDirectionalSearch:
    def test_full_step_accepted_on_quadratic(self):
        problem = quadratic_scalar_problem()
        u = np.array([[1.0]])
        bundle = forward(problem, u, 1, 2)
        result = run_backward(bundle, "gn", 0.0)
        u_next, gamma, bound = directional_search(
            bundle, "gn", result.K, result.k, result.c0_zero, LineSearchConfig()
        )
        assert gamma == 1.0 and bound == result.c0_zero
        assert u_next[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_descent_model_value(self):
        problem = quadratic_scalar_problem()
        with pytest.raises(ParameterError):
            directional_search(forward(problem, np.zeros((1, 1)), 1, 2), "gn", None, None, 0.0,
                               LineSearchConfig())

    def test_stall_on_pathological_objective(self):
        # a direction that increases the objective stalls the search without a decrease
        problem = quadratic_scalar_problem()
        u = np.array([[1.0]])
        bundle = forward(problem, u, 1, 2)
        result = run_backward(bundle, "gn", 0.0)
        cfg = LineSearchConfig()
        candidate, gamma, bound = directional_search(
            bundle, "gn", result.K, -result.k, result.c0_zero, cfg
        )
        assert candidate is None and gamma < cfg.gamma_min and math.isnan(bound)

    def test_accepted_step_satisfies_sufficient_decrease(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1)) * 0.3
        bundle = forward(problem, u, 1, 2)
        result = run_backward(bundle, "gn", 0.5)
        j0 = objective_value(problem, u)
        u_next, gamma, _ = directional_search(
            bundle, "gn", result.K, result.k, result.c0_zero, LineSearchConfig()
        )
        j1 = objective_value(problem, u_next)
        assert j1 - j0 <= gamma * result.c0_zero + ACCEPT_TIE_RTOL * (1 + abs(j0))


class TestRegularizedSearch:
    def test_first_trial_accepted_on_lq_problem(self, rng):
        problem, _ = random_lq_problem(rng, 3, 2, 1)
        u = rng.standard_normal((3, 1))
        bundle = forward(problem, u, 1, 2)
        cfg = LineSearchConfig(rule="regularized")
        # warm-start arithmetic: first trial is rho_inc * gamma_prev = 1.0
        u_next, gamma, _ = regularized_search(bundle, "gn", cfg.rho_inc * 0.1, cfg)
        assert gamma == pytest.approx(1.0)

    def test_accepted_step_satisfies_model_decrease(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        u = rng.standard_normal((4, 1)) * 0.3
        bundle = forward(problem, u, 1, 2)
        cfg = LineSearchConfig(rule="regularized")
        # the first trial solve() makes from gamma_prev = 1, in cost-slope units
        first = cfg.rho_inc * 1.0 / bundle.cost_slope_norm()
        u_next, _, c0 = regularized_search(bundle, "gn", first, cfg)
        j0, j1 = bundle.cost, objective_value(problem, u_next)
        assert j1 - j0 <= c0 + ACCEPT_TIE_RTOL * (1 + abs(j0))

    def test_quartic_acceptance_matches_grid_search(self):
        """Accepted stepsize agrees with exhaustively scanning the same rule."""
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [u[0]],),
            running_costs=(lambda x, u: 0.0 * u[0],),
            final_cost=lambda x: x[0] * x[0] * x[0] * x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        u = np.array([[1.0]])
        bundle = forward(problem, u, 1, 2)
        cfg = LineSearchConfig(rule="regularized")
        u_next, gamma_bar, _ = regularized_search(bundle, "gn", cfg.rho_inc * 1.0, cfg)
        _, gamma, _ = per_ridge_search(bundle, "gn", cfg.rho_inc * 1.0, cfg)
        assert gamma_bar == pytest.approx(gamma)
        assert objective_value(problem, u_next) < bundle.cost

    @pytest.mark.parametrize("setting", [{}, {"rho_dec": 0.3}, {"gamma_min": 0.1}])
    @pytest.mark.parametrize("env,horizon,kind", [("cartpole", 25, "ddp-q"),
                                                  ("bicycle-car", 30, "ddp-lq")])
    def test_ladders_equal_the_per_ridge_scan(self, env, horizon, kind, setting):
        """The laned search and a scan of one sweep per trial agree by bytes, along a
        few accepted steps and from first stepsizes above, at and below the warm start."""
        problem = build_problem(env, horizon)
        cfg = LineSearchConfig(rule="regularized", **setting)
        spec = oracle_spec(kind)
        u = initial_controls(problem, 0)
        for _ in range(4):
            bundle = forward(problem, u, spec.o_f, spec.o_h)
            warm = cfg.rho_inc / bundle.cost_slope_norm()
            for gamma in (math.inf, 1e3 * warm, warm, 1e-3 * warm):
                got = regularized_search(bundle, kind, gamma, cfg)
                assert_same_outcome(got, per_ridge_search(bundle, kind, gamma, cfg))
            if got[0] is None:
                break
            u = got[0]

    def test_subnormal_stepsize_is_a_rejected_trial(self, rng):
        """Its ridge 1/gamma overflows; the sweep would refuse it, the search rejects it."""
        problem = random_smooth_problem(rng, 3, 2, 1)
        bundle = forward(problem, rng.standard_normal((3, 1)), 1, 2)
        candidate, gamma, bound = regularized_search(bundle, "gn", 5e-324,
                                                     LineSearchConfig(rule="regularized"))
        assert candidate is None and gamma == 0.0 and math.isnan(bound)

    def test_ridge_zero_is_a_rejected_trial_for_gd(self, monkeypatch):
        """gamma = inf is ridge 0, outside the gradient kind's range: it is not swept,
        and the walk goes on from 1 / nu_init."""
        problem = build_problem("pendulum", 20)
        u = 0.01 * np.random.default_rng(0).standard_normal((20, 1))
        cfg = LineSearchConfig(rule="regularized", nu_init=2.0 ** -12)
        seen = []
        counting(monkeypatch, "run_backward", seen)
        candidate, gamma, bound = regularized_search(forward(problem, u, 1, 1), "gd", math.inf, cfg)
        monkeypatch.undo()
        assert candidate is not None and bound < 0.0
        assert 1.0 < gamma < 1e3
        ridges = [nu for args in seen for nu in args[2]]
        assert ridges[0] == cfg.nu_init and 0.0 not in ridges
        _, trace = solve(problem, u, "gd", cfg, StopCriteria(max_iters=3))
        assert trace.status == "max-iters" and trace.iterations == 3


class TestSolve:
    def test_lq_converges_in_one_iteration(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 2)
        u0 = rng.standard_normal((4, 2))
        u_final, trace = solve(problem, u0, "gn", LineSearchConfig(), StopCriteria(max_iters=10))
        assert trace.status == "converged"
        assert trace.rows[1].residual <= 1e-9
        assert trace.rows[1].stepsize == pytest.approx(1.0)

    def test_max_iters_zero_returns_initial_point(self, rng):
        problem, _ = random_lq_problem(rng, 3, 1, 1)
        u0 = rng.standard_normal((3, 1))
        u_final, trace = solve(problem, u0, "gn", stop=StopCriteria(max_iters=0))
        np.testing.assert_array_equal(u_final, u0)
        assert len(trace.rows) == 1
        assert trace.rows[0].cost == pytest.approx(objective_value(problem, u0))

    def test_costs_non_increasing_all_kinds(self, rng):
        problem = random_smooth_problem(rng, 5, 2, 1)
        u0 = rng.standard_normal((5, 1)) * 0.2
        for kind in ("gd", "gn", "ne", "ddp-lq", "ddp-q"):
            for rule in ("directional", "regularized"):
                _, trace = solve(
                    problem, u0, kind, LineSearchConfig(rule=rule), StopCriteria(max_iters=25)
                )
                costs = trace.costs
                assert np.all(np.diff(costs) <= 1e-12 * (1 + np.abs(costs[:-1])))

    def test_converged_endpoint_has_small_residual(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 1)
        u0 = np.zeros((4, 1))
        u_final, trace = solve(
            problem, u0, "gn", LineSearchConfig(), StopCriteria(max_iters=200)
        )
        assert trace.status == "converged"
        j = trace.rows[-1].cost
        assert stationarity_residual(problem, u_final) <= 1e-6 * (1 + abs(j))

    def test_solve_from_the_optimum_stops_converged(self, rng):
        """Zero gradient: the model sees no decrease and the run reports converged."""
        problem, _ = random_lq_problem(rng, 4, 2, 1)
        step = oracle(problem, np.zeros((4, 1)), "gn", nu=0.0)
        assert step.feasible
        u_star = step.direction
        for rule in ("directional", "regularized"):
            u_out, trace = solve(
                problem, u_star, "gn", LineSearchConfig(rule=rule), StopCriteria(max_iters=5)
            )
            assert trace.status == "converged"
            np.testing.assert_allclose(u_out, u_star, atol=1e-9)

    def test_trial_stepsizes_form_a_geometric_sequence(self):
        """Each rejection scales the trial stepsize by exactly rho_dec."""
        from trajopt import autodiff as ad

        # barrier objective: the unregularized step jumps past the wall at 0,
        # so the first trials get rejected before one is accepted
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [u[0]],),
            running_costs=(lambda x, u: 0.0 * u[0],),
            final_cost=lambda x: x[0] - ad.log(x[0]),
            x0=[2.0],
            n_x=1,
            n_u=1,
        )
        u = np.array([[2.0]])
        bundle = forward(problem, u, 1, 2)
        cfg = LineSearchConfig(rule="regularized")
        _, gamma, _ = regularized_search(bundle, "gn", cfg.rho_inc * 1.0, cfg)
        ratio = gamma / (cfg.rho_inc * 1.0)
        k = math.log(ratio) / math.log(cfg.rho_dec)
        assert k == pytest.approx(round(k), abs=1e-9)
        assert round(k) >= 1  # at least one rejection before acceptance

    def test_callback_sees_every_accepted_step(self, rng):
        problem, _ = random_lq_problem(rng, 3, 1, 1)
        seen = []
        solve(
            problem, rng.standard_normal((3, 1)), "gn",
            LineSearchConfig(), StopCriteria(max_iters=5),
            callback=lambda **kw: seen.append(kw["iteration"]),
        )
        assert seen == list(range(1, len(seen) + 1))

    def test_the_callback_reads_the_controls_and_cannot_move_them(self):
        """The callback's controls are a read-only view of the next search's base
        point: a write raises, and a read changes no trace byte."""
        problem = build_problem("pendulum", 50)
        u0, cfg, stop = initial_controls(problem, 1), LineSearchConfig(), StopCriteria(max_iters=4)
        u_plain, plain = solve(problem, u0, "ne", cfg, stop)

        def write(**kw):
            kw["u"][:] = 0.0

        with pytest.raises(ValueError):
            solve(problem, u0, "ne", cfg, stop, callback=write)
        seen = []
        u_read, read = solve(problem, u0, "ne", cfg, stop,
                             callback=lambda **kw: seen.append(kw["u"].sum()))
        rows = lambda t: np.array([dataclasses.astuple(r)[:-1] for r in t.rows])  # no time_ms
        assert len(seen) == read.iterations == plain.iterations
        assert rows(read).tobytes() == rows(plain).tobytes()
        assert u_read.tobytes() == u_plain.tobytes()
        assert u_read.flags.writeable

    def test_the_regularized_warm_start_takes_a_zero_slope_as_unit_scale(self):
        """Zero slopes at rest: the cost-slope norm is 0, so the stepsize starts
        unscaled, and the solve ends converged before any step."""
        problem = TrajectoryProblem(
            dynamics=(linear_dynamics([[1.0]], [[1.0]]),) * 3,
            running_costs=(lambda x, u: x[0] * x[0] + u[0] * u[0],) * 3,
            final_cost=lambda x: x[0] * x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        bundle = forward(problem, np.zeros((3, 1)), 1, 2)
        assert bundle.cost_slope_norm() == 0.0
        _, trace = solve(problem, np.zeros((3, 1)), "gn", LineSearchConfig(rule="regularized"))
        assert (trace.status, trace.iterations) == ("converged", 0)


class TestStalls:
    @pytest.mark.parametrize("rule", STEP_RULES)
    def test_solve_reads_both_stall_outcomes(self, rule, monkeypatch):
        """At gamma_min = 0.1 the gd solve of a hash-grid cell stalls first with a
        decrease, whose best candidate it takes, then without one, which ends it."""
        problem = build_problem("bicycle-car", 30)
        outcomes = []
        search = getattr(trajopt.linesearch, f"{rule}_search")

        def recorded(*args):
            outcomes.append(search(*args))
            return outcomes[-1]

        monkeypatch.setattr(trajopt.linesearch, f"{rule}_search", recorded)
        cfg = LineSearchConfig(rule=rule, gamma_min=0.1)
        u, trace = solve(problem, initial_controls(problem, 0), "gd", cfg,
                         StopCriteria(max_iters=10))
        (carried, gamma, bound), (none, last_gamma, last_bound) = outcomes
        assert math.isnan(bound) and math.isnan(last_bound)
        assert none is None and gamma < cfg.gamma_min and last_gamma < cfg.gamma_min
        np.testing.assert_array_equal(u, carried)
        assert trace.iterations == 1
        row = trace.rows[1]
        assert row.stepsize == gamma
        # no trial passed the regularized rule: no ridge or model value to report
        assert math.isnan(row.regularization) == math.isnan(row.model_decrease) == (
            rule == "regularized")
        assert trace.status == _classify(row.residual, row.cost) == "stalled"

    def test_stall_carried_rows_make_no_acceptance_claim(self):
        """A directional row carried from a stall keeps the sweep's model value, so
        only its stepsize below gamma_min marks it."""
        problem = build_problem("bicycle-car", 30)
        cfg = LineSearchConfig(gamma_min=0.1)
        _, trace = solve(problem, initial_controls(problem, 0), "gd", cfg,
                         StopCriteria(max_iters=10))
        row = trace.rows[1]
        assert row.stepsize < cfg.gamma_min and not math.isnan(row.model_decrease)
        assert acceptance_violations(trace, cfg.rule, cfg.gamma_min) == []


class TestStationarityResidual:
    def test_zero_at_lq_minimizer(self, rng):
        problem, _ = random_lq_problem(rng, 4, 2, 2)
        step = oracle(problem, np.zeros((4, 2)), "gn", nu=0.0)
        assert step.feasible
        u_star = step.direction
        assert stationarity_residual(problem, u_star) <= 1e-9

    def test_equals_scaled_gradient_direction(self, rng):
        problem = random_smooth_problem(rng, 4, 2, 2)
        u = rng.standard_normal((4, 2)) * 0.3
        nu = 3.0
        direction = oracle(problem, u, "gd", nu=nu).direction
        assert stationarity_residual(problem, u) == pytest.approx(
            nu * float(np.max(np.abs(direction))), abs=1e-10
        )

    def test_equals_dense_gradient_max_norm(self, rng):
        for _ in range(5):
            problem = random_smooth_problem(rng, 3, 2, 1)
            u = rng.standard_normal((3, 1)) * 0.3
            res = stationarity_residual(problem, u)
            dense = float(np.max(np.abs(dense_gradient(problem, u))))
            assert res == pytest.approx(dense, rel=1e-8, abs=1e-12)


def per_trial_search(bundle, kind, K, k, c0_zero, cfg):
    """The directional rule with one roll-out per trial, as the loop read before scaling.

    Returns (candidate, gamma, bound) as :func:`directional_search` does.
    """
    problem, u = bundle.problem, bundle.u
    j_current = objective_value(problem, u)
    gamma, best, best_cost = 1.0, None, math.inf
    while True:
        try:
            candidate = u + rollout(bundle, kind, K, gamma * k)
            j_trial = objective_value(problem, candidate)
        except (DivergenceError, NumericError):
            j_trial = math.inf
        if j_trial - j_current <= gamma * c0_zero + ACCEPT_TIE_RTOL * (1.0 + abs(j_current)):
            return candidate, gamma, gamma * c0_zero
        if j_trial < best_cost:
            best, best_cost = candidate, j_trial
        gamma *= cfg.rho_dec
        if gamma < cfg.gamma_min:
            return (best if best_cost < j_current else None), gamma, math.nan


def assert_same_outcome(got, expected):
    """Two (candidate, gamma, bound) triples agree by their bytes, a NaN bound with a NaN."""
    as_bytes = lambda out: (None if out[0] is None else out[0].tobytes(),
                            np.array(out[1:]).tobytes())
    assert as_bytes(got) == as_bytes(expected)


def per_ridge_search(bundle, kind, gamma, cfg):
    """The regularized rule written as one backward pass per trial, an independent scan
    of the same stepsizes.  Returns (candidate, gamma, bound) as the search does."""
    problem, j_current = bundle.problem, bundle.cost
    best, best_cost = None, math.inf
    while True:
        nu = 1.0 / gamma
        if nu < math.inf and not (nu == 0.0 and kind == "gd"):
            result = run_backward(bundle, kind, nu)
            if result.feasible and result.c0_zero < 0.0:
                try:
                    candidate = bundle.u + rollout(bundle, kind, result.K, result.k)
                    j_trial = objective_value(problem, candidate)
                except NumericError:
                    j_trial = math.inf
                slack = ACCEPT_TIE_RTOL * (1.0 + abs(j_current))
                if j_trial - j_current <= result.c0_zero + slack:
                    return candidate, gamma, result.c0_zero
                if j_trial < best_cost:
                    best, best_cost = candidate, j_trial
        gamma = 1.0 / cfg.nu_init if gamma == math.inf else gamma * cfg.rho_dec
        if gamma < cfg.gamma_min:
            return (best if best_cost < j_current else None), gamma, math.nan


UNIT_CELLS = [("pendulum", 50), ("cartpole", 25), ("bicycle-car", 30)]
LINEAR_KINDS = ["gd", "gn", "ne"]


def descent_policies(env, horizon, kind, seed=3):
    """Problem, controls, bundle and the escalated descent policies one solve iteration uses."""
    problem = build_problem(env, horizon)
    u = 0.1 * np.random.default_rng(seed).standard_normal((horizon, problem.n_u))
    spec = oracle_spec(kind)
    bundle = forward(problem, u, spec.o_f, spec.o_h)
    result, _ = _escalate_directional(bundle, kind, LineSearchConfig())
    assert result is not None
    return problem, u, bundle, result


def counting(monkeypatch, name, seen=None):
    """Replace ``trajopt.linesearch.<name>`` by a wrapper; returns its call counter.

    ``seen``, when given, collects each call's positional arguments.
    """
    calls = [0]
    original = getattr(trajopt.linesearch, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        if seen is not None:
            seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trajopt.linesearch, name, counted)
    return calls


class TestUnitRollout:
    """On linear step maps one unit roll-out, scaled per trial, replaces a roll-out per trial."""

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    @pytest.mark.parametrize("env,horizon", UNIT_CELLS)
    def test_scaled_unit_equals_per_trial_rollout(self, env, horizon, kind):
        problem, u, bundle, result = descent_policies(env, horizon, kind)
        unit = rollout(bundle, kind, result.K, result.k)
        for n in range(41):
            gamma = 2.0 ** -n
            per_trial = rollout(bundle, kind, result.K, gamma * result.k)
            np.testing.assert_array_equal(gamma * unit, per_trial)
            np.testing.assert_array_equal(u + gamma * unit, u + per_trial)

    @pytest.mark.parametrize("rho_dec", [0.5, 0.3])
    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    @pytest.mark.parametrize("env,horizon", UNIT_CELLS)
    def test_search_equals_per_trial_loop(self, env, horizon, kind, rho_dec):
        problem, u, bundle, result = descent_policies(env, horizon, kind)
        cfg = LineSearchConfig(rho_dec=rho_dec)
        # inflated offsets make the first trials overshoot, so the search backtracks;
        # reversed ones ascend, so it mostly stalls
        for scale in (1.0, 64.0, 1e4, -1.0):
            args = (bundle, kind, result.K, scale * result.k, result.c0_zero, cfg)
            with np.errstate(all="ignore"):
                assert_same_outcome(directional_search(*args), per_trial_search(*args))

    @pytest.mark.parametrize("rho_dec", [0.5, 0.3])
    def test_overflowing_unit_rollout_falls_back_per_trial(self, rho_dec, monkeypatch):
        # J(u) = -(u_0 + u_1): the unit offsets of 1e308 overflow the state at t=1,
        # while the half step stays finite and is accepted
        problem = TrajectoryProblem(
            dynamics=(linear_dynamics([[1.0]], [[1.0]]),) * 2,
            running_costs=(lambda x, u: 0.0 * u[0],) * 2,
            final_cost=lambda x: -x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        u = np.zeros((2, 1))
        bundle = forward(problem, u, 1, 2)
        K, k = np.zeros((2, 1, 1)), np.full((2, 1), 1e308)
        cfg = LineSearchConfig(rho_dec=rho_dec)
        args = (bundle, "gn", K, k, -1.0, cfg)
        with np.errstate(over="ignore"):
            expected = per_trial_search(*args)
            rollouts = counting(monkeypatch, "rollout")
            got = directional_search(*args)
        assert_same_outcome(got, expected)
        assert got[1] == rho_dec
        assert rollouts[0] == 3  # the unit roll-out, then one per trial

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_one_rollout_per_search_on_linear_maps(self, kind, monkeypatch):
        problem, u, bundle, result = descent_policies("cartpole", 25, kind)
        rollouts = counting(monkeypatch, "rollout")
        _, gamma, _ = directional_search(bundle, kind, result.K, 64.0 * result.k, result.c0_zero,
                                      LineSearchConfig())
        assert gamma < 1.0  # more than one trial
        assert rollouts[0] == 1

    @pytest.mark.parametrize("kind", ["ddp-lq", "ddp-q"])
    def test_one_rollout_per_trial_on_increment_maps(self, kind, monkeypatch):
        problem, u, bundle, result = descent_policies("cartpole", 25, kind)
        rollouts = counting(monkeypatch, "rollout")
        _, gamma, _ = directional_search(bundle, kind, result.K, 64.0 * result.k, result.c0_zero,
                                      LineSearchConfig())
        trials = round(-math.log2(gamma)) + 1  # gamma halves per rejected trial
        assert trials > 1
        assert rollouts[0] == trials

    def test_solve_rolls_out_once_per_directional_iteration(self, monkeypatch):
        problem = build_problem("pendulum", 100)
        u0 = 0.01 * np.random.default_rng(4).standard_normal((100, 1))
        rollouts = counting(monkeypatch, "rollout")
        searches = counting(monkeypatch, "directional_search")
        _, trace = solve(problem, u0, "ne", LineSearchConfig(), StopCriteria(max_iters=5))
        assert trace.iterations == 5
        assert rollouts[0] == searches[0] == 5


def concave_scalar_problem(curvature):
    """J(u) = u + curvature * u^2 / 2 through f(x,u) = u: ridges nu <= -curvature are infeasible."""
    return TrajectoryProblem(
        dynamics=(lambda x, u: [u[0]],),
        running_costs=(lambda x, u: 0.0 * u[0],),
        final_cost=lambda x: x[0] + 0.5 * curvature * x[0] * x[0],
        x0=[0.0],
        n_x=1,
        n_u=1,
    )


def ridge_ladder(cfg, start, top):
    """The rungs start, then nu_init after 0 and nu * rho_inc after nu, while <= top."""
    rungs, nu = [], start
    while nu <= top:
        rungs.append(nu)
        nu = cfg.nu_init if nu == 0.0 else nu * cfg.rho_inc
    return rungs


class TestRidgeWalk:
    """The directional rule's escalation is one walk up 0, nu_init, nu_init * rho_inc, ..."""

    @pytest.mark.parametrize("kind", ["gn", "ne", "ddp-lq", "ddp-q"])
    def test_walk_stops_at_the_first_usable_rung(self, kind, monkeypatch):
        bundle = forward(concave_scalar_problem(-5e-5), np.zeros((1, 1)), 2, 2)
        cfg = LineSearchConfig(nu_init=1e-6, rho_inc=10.0)
        seen = []
        counting(monkeypatch, "run_backward", seen)
        result, nu = _escalate_directional(bundle, kind, cfg)
        infeasible = ridge_ladder(cfg, 0.0, 5e-5)  # Q + nu <= 0 on these rungs
        expected = infeasible + [infeasible[-1] * cfg.rho_inc]
        assert [args[2] for args in seen] == expected
        assert nu == expected[-1]
        assert result.feasible and result.c0_zero < 0.0

    def test_gradient_kind_sweeps_once(self, monkeypatch):
        bundle = forward(concave_scalar_problem(-5e-5), np.zeros((1, 1)), 1, 1)
        seen = []
        counting(monkeypatch, "run_backward", seen)
        result, nu = _escalate_directional(bundle, "gd", LineSearchConfig())
        assert [args[2] for args in seen] == [nu] == [oracle_spec("gd").start_nu]
        assert result.feasible and result.c0_zero < 0.0

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_infeasible_sweeps_end_at_the_top_rung(self, kind, monkeypatch):
        spec = oracle_spec(kind)
        bundle = forward(concave_scalar_problem(-5e-5), np.zeros((1, 1)), spec.o_f, spec.o_h)
        cfg = LineSearchConfig()
        ridges = []

        def infeasible(bundle, kind, nu):
            ridges.append(nu)
            return OracleDirection(K=None, k=None, c0_zero=math.inf, feasible=False,
                                   failed_stage=0)

        monkeypatch.setattr(trajopt.linesearch, "run_backward", infeasible)
        result, _ = _escalate_directional(bundle, kind, cfg)
        assert result is None
        expected = ridge_ladder(cfg, spec.start_nu, trajopt.linesearch.NU_MAX)
        assert ridges == (expected[:1] if spec.o_h == 1 else expected)

    def test_a_nan_rung_ends_the_walk(self, monkeypatch):
        bundle = forward(concave_scalar_problem(-5e-5), np.zeros((1, 1)), 1, 2)
        cfg = LineSearchConfig()
        object.__setattr__(cfg, "nu_init", math.nan)  # past the constructor's check
        seen = []
        counting(monkeypatch, "run_backward", seen)
        result, _ = _escalate_directional(bundle, "gn", cfg)
        assert result is None
        assert [args[2] for args in seen] == [0.0]


class TestModelArithmeticErrors:
    def test_overflowing_model_ends_ddp_solves_with_a_status(self):
        """A model's ``OverflowError`` in the increment map reads as a rejected trial."""
        horizon = 3
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] + ad.exp(u[0])],) * horizon,
            running_costs=(lambda x, u: 0.0 * u[0],) * horizon,
            final_cost=lambda x: -x[0] + 0.5e-6 * x[0] * x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        u0 = np.full((horizon, 1), 5.0)
        for rule in ("directional", "regularized"):
            for kind in ("gn", "ddp-lq", "ddp-q"):
                _, trace = solve(problem, u0, kind, LineSearchConfig(rule=rule))
                assert trace.status == "converged", (kind, rule)


class TestEveryCell:
    @pytest.mark.parametrize("env,scheme", ENV_SCHEMES)
    def test_every_solve_ends_with_a_status(self, env, scheme):
        """Each env x discretizer x kind x rule either ends with a status or diverges.

        Stray errors from a model (math's ValueError at +-inf, a shape
        bug) escape no solve; cart-pole under rk4 meets cos(inf) here.
        """
        problem = build_problem(env, 10, scheme)
        u0 = initial_controls(problem, 0)
        for kind in ORACLE_KINDS:
            for rule in ("directional", "regularized"):
                try:
                    _, trace = solve(problem, u0, kind, LineSearchConfig(rule=rule),
                                     StopCriteria(max_iters=5))
                except DivergenceError:
                    continue
                assert trace.status in ("converged", "max-iters", "stalled"), (kind, rule)


class TestTraceInvariants:
    @given(seed=st.integers(0, 2**16), tau=st.integers(1, 5), n_x=st.integers(1, 3),
           n_u=st.integers(1, 2), kind=st.sampled_from(ORACLE_KINDS),
           rule=st.sampled_from(STEP_RULES))
    @settings(max_examples=40, deadline=None)
    def test_random_solves_keep_the_trace_invariants(self, seed, tau, n_x, n_u, kind, rule):
        """Finite costs, a known status, the same rows on a rerun, and costs that
        rise by no more than the acceptance tie slack (a step near stationarity
        may raise them by round-off)."""

        def run():
            rng = np.random.default_rng(seed)
            problem = random_smooth_problem(rng, tau, n_x, n_u)
            u0 = 0.5 * rng.standard_normal((tau, n_u))
            try:
                return solve(problem, u0, kind, LineSearchConfig(rule=rule),
                             StopCriteria(max_iters=15))[1]
            except DivergenceError as err:
                return err.trace

        trace, again = run(), run()
        assert trace.status in ("converged", "max-iters", "stalled", "diverged")
        costs = trace.costs
        assert np.isfinite(costs).all()
        assert (np.diff(costs) <= ACCEPT_TIE_RTOL * (1.0 + np.abs(costs[:-1]))).all()
        rows = lambda t: np.array([dataclasses.astuple(r)[:-1] for r in t.rows])  # no time_ms
        assert again.status == trace.status
        assert rows(again).tobytes() == rows(trace).tobytes()


@contextlib.contextmanager
def roll_memo():
    """The one-entry roll memo that ``solve`` opens, opened around a test's calls."""
    token = trajopt.oracles._LAST_ROLL.set([None])
    try:
        yield
    finally:
        trajopt.oracles._LAST_ROLL.reset(token)


class TestOneRollPerPoint:
    """Within a solve each control sequence is rolled once; outside one every call rolls."""

    @pytest.mark.parametrize("env, horizon, kind, rule", [
        ("pendulum", 50, "ne", "directional"),
        ("cartpole", 25, "ddp-q", "regularized"),
    ])
    def test_each_point_is_rolled_once_per_solve(self, monkeypatch, env, horizon, kind, rule):
        """The start, then one roll per trial: the forward on the accepted trial and
        the directional J(u) read back the roll just made."""
        problem, counts = counted_problem(build_problem(env, horizon))
        values = counting(monkeypatch, "objective_value")
        searches = counting(monkeypatch, "directional_search")
        forwards = counting(monkeypatch, "forward")
        _, trace = solve(problem, initial_controls(problem, 1), kind, LineSearchConfig(rule=rule),
                         StopCriteria(max_iters=10))
        assert trace.iterations >= 2 and forwards[0] == trace.iterations + 1
        trials = values[0] - (searches[0] if rule == "directional" else 0)
        assert counts["cost", 0] == (1 + trials) * (horizon + 1)

    def test_outside_a_solve_every_call_rolls(self):
        horizon = 20
        problem, counts = counted_problem(build_problem("pendulum", horizon))
        u = initial_controls(problem, 2)
        assert trajopt.oracles._LAST_ROLL.get() is None
        for _ in range(2):
            oracle(problem, u, "ne")
            forward(problem, u, 1, 2)
            objective_value(problem, u)
        assert counts["cost", 0] == 6 * (horizon + 1)

    def test_the_key_is_the_problem_and_the_bytes(self):
        """Same problem and bytes read back; an in-place change, a zero of the other
        sign or another problem rolls again."""
        horizon = 20
        problem, counts = counted_problem(build_problem("pendulum", horizon))
        other, other_counts = counted_problem(build_problem("pendulum", horizon))
        u = initial_controls(problem, 2)
        u[3, 0] = 0.0
        with roll_memo():
            first = objective_value(problem, u)
            assert objective_value(problem, u.copy()) == first
            assert counts["cost", 0] == horizon + 1
            flipped = u.copy()
            flipped[3, 0] = -0.0
            assert np.array_equal(flipped, u)
            objective_value(problem, flipped)
            assert counts["cost", 0] == 2 * (horizon + 1)
            objective_value(problem, u)
            assert counts["cost", 0] == 3 * (horizon + 1)
            u[5, 0] += 0.25  # changed in place after its roll
            moved = objective_value(problem, u)
            assert counts["cost", 0] == 4 * (horizon + 1)
            objective_value(other, u)
            assert other_counts["cost", 0] == horizon + 1
        assert moved == objective_value(problem, u) != first

    def test_a_roll_that_raises_keeps_the_last_entry(self):
        horizon = 20
        problem, counts = counted_problem(build_problem("pendulum", horizon))
        u = initial_controls(problem, 2)
        with roll_memo():
            xs = forward(problem, u, 0, 0).xs
            bad = u.copy()
            bad[4, 0] = math.inf
            with pytest.raises(DivergenceError):
                objective_value(problem, bad)
            before = counts["cost", 0]
            assert forward(problem, u, 0, 0).xs is xs
            assert counts["cost", 0] == before

    def test_a_diverging_solve_leaves_no_memo_open(self):
        """The roll succeeds and is stored; the derivatives then overflow."""
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [1e10 * (1e300 * x[0]) + u[0]],),
            running_costs=(lambda x, u: 0.0 * u[0],),
            final_cost=lambda x: 0.5 * x[0] * x[0],
            x0=[1e-300],
            n_x=1,
            n_u=1,
        )
        with pytest.raises(DivergenceError):
            solve(problem, [[0.0]], "gn")
        assert trajopt.oracles._LAST_ROLL.get() is None

    def test_a_callback_that_rolls_evicts_and_changes_nothing(self, monkeypatch):
        """Each roll in the callback evicts the entry, so the next directional J(u)
        rolls again; every trace byte and the final controls stay the same."""
        horizon = 50
        problem, counts = counted_problem(build_problem("pendulum", horizon))
        u0, cfg, stop = initial_controls(problem, 1), LineSearchConfig(), StopCriteria(max_iters=6)
        u_plain, plain = solve(problem, u0, "ne", cfg, stop)
        plain_rolls = counts["cost", 0]
        counts.clear()
        searches = counting(monkeypatch, "directional_search")
        elsewhere = np.zeros_like(u0)
        u_called, called = solve(problem, u0, "ne", cfg, stop,
                                 callback=lambda **_: objective_value(problem, elsewhere))
        extra = called.iterations + searches[0] - 1  # the callback's rolls and the J(u) misses
        assert counts["cost", 0] == plain_rolls + extra * (horizon + 1)
        rows = lambda t: np.array([dataclasses.astuple(r)[:-1] for r in t.rows])  # no time_ms
        assert called.status == plain.status
        assert rows(called).tobytes() == rows(plain).tobytes()
        assert u_called.tobytes() == u_plain.tobytes()
