"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The benchmark solves behind criteria 5, 7 and 9 are shared through
a session fixture, so the suite runs them once.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from trajopt.dense import smoothness_bounds, trajectory_jacobian
from trajopt.envs import build_problem
from trajopt.envs.track import border_cost, track_eval
from trajopt.linesearch import LineSearchConfig, StopCriteria, solve, stationarity_residual
from trajopt.oracles import ORACLES, bundle_gradient, forward, oracle, oracle_step
from trajopt import autodiff
from trajopt.core import TrajectoryProblem, quadratic_cost, quadratic_state_cost

from conftest import (
    acceptance_violations,
    concave_fixture,
    concave_stage_problem,
    env_interior_point,
    fd_hessian,
    fd_jacobian,
    kkt_solve_lq,
    oracle_equivalence_error,
    policy_scaling_deviation,
    random_lq_problem,
    stationarity_gap,
)


def report(criterion: str, detail: str):
    print(f"[acceptance] {criterion}: PASS ({detail})")


# -- shared benchmark runs (criteria 5, 7, 9) ---------------------------------


@dataclass
class BenchRun:
    env: str
    kind: str
    rule: str
    problem: TrajectoryProblem
    trace: object
    u_final: np.ndarray
    iterates: list  # u after each accepted step


def _run(env, horizon, kind, rule, max_iters):
    problem = build_problem(env, horizon)
    iterates = []
    u, trace = solve(
        problem,
        np.zeros((horizon, problem.n_u)),
        kind,
        LineSearchConfig(rule=rule),
        StopCriteria(max_iters=max_iters),
        callback=lambda **kw: iterates.append(kw["u"].copy()),
    )
    return BenchRun(env, kind, rule, problem, trace, u, iterates)


@pytest.fixture(scope="session")
def bench():
    runs = {}
    for kind in ("gn", "ddp-lq", "ne", "gd"):
        for rule in ("directional", "regularized"):
            runs[("pendulum", kind, rule)] = _run("pendulum", 50, kind, rule, 100)
    runs[("pendulum", "gn", "long")] = _run("pendulum", 50, "gn", "directional", 300)
    for tau in (25, 50):
        for kind in ("gn", "ddp-lq", "ddp-q"):
            runs[(f"cartpole{tau}", kind, "regularized")] = _run(
                "cartpole", tau, kind, "regularized", 200
            )
    runs[("bicycle", "ddp-lq", "regularized")] = _run(
        "bicycle-car", 50, "ddp-lq", "regularized", 150
    )
    return runs


# -- criteria ------------------------------------------------------------------


def test_criterion_01_oracle_equivalence(rng):
    """GD/GN/NE directions match the dense normal equations on random instances."""
    start = time.perf_counter()
    worst = oracle_equivalence_error(rng, 50)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 30.0
    report("criterion 1 (oracle equivalence)", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_lq_exactness(rng):
    """Stagewise solves recover the KKT optimum; one step of any oracle lands on it."""
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(20):
        tau = int(rng.integers(2, 6))
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 4))
        problem, data = random_lq_problem(rng, tau, n_x, n_u)
        step = oracle(problem, np.zeros((tau, n_u)), "gn", nu=0.0)
        assert step.feasible
        u_dp = step.direction
        u_kkt = kkt_solve_lq(problem, data)
        worst_gap = max(worst_gap, float(np.max(np.abs(u_dp - u_kkt))))
        u0 = rng.standard_normal((tau, n_u))
        for kind in ("gn", "ne", "ddp-lq", "ddp-q"):
            step = oracle(problem, u0, kind, nu=0.0)
            assert step.feasible, f"{kind} infeasible on a convex LQ instance"
            worst_res = max(worst_res, stationarity_residual(problem, u0 + step.direction))
    assert worst_gap <= 1e-8
    assert worst_res <= 1e-9
    report(
        "criterion 2 (LQ exactness)",
        f"max control gap {worst_gap:.2e}, max one-step residual {worst_res:.2e}",
    )


def test_criterion_03_linear_horizon_complexity():
    """Backward+roll-out time scales linearly in the horizon; function storage
    keeps second-order passes at first-order memory."""
    import gc

    reps = 20
    by_orders = {}
    for kind in ("gd", "gn", "ne", "ddp-lq", "ddp-q"):
        by_orders.setdefault((ORACLES[kind].o_f, ORACLES[kind].o_h), []).append(kind)
    ratios = {}
    for orders, kinds in by_orders.items():
        # keep only this order group's bundles alive: cyclic-GC pauses scale
        # with the whole heap and would otherwise pollute the measurement
        bundles = {}
        for tau in (1000, 2000):
            problem = build_problem("pendulum", tau)
            bundles[tau] = (problem, forward(problem, np.zeros((tau, 1)), *orders))
        for kind in kinds:
            # interleave the two horizons so slow system phases (frequency
            # scaling) hit both batches alike and cancel in the ratio; the
            # process clock leaves out time other processes take from the host
            times = {1000: [], 2000: []}
            nu = ORACLES[kind].start_nu
            for tau in (1000, 2000):
                problem, bundle = bundles[tau]
                oracle_step(bundle, kind, nu)  # warm-up
            gc.collect()
            gc.disable()
            try:
                for _ in range(reps):
                    for tau in (1000, 2000):
                        problem, bundle = bundles[tau]
                        t0 = time.process_time()
                        oracle_step(bundle, kind, nu)
                        times[tau].append(time.process_time() - t0)
            finally:
                gc.enable()
            medians = {tau: statistics.median(ts) for tau, ts in times.items()}
            ratios[kind] = medians[2000] / medians[1000]
            assert ratios[kind] <= 2.5, f"{kind}: ratio {ratios[kind]:.2f} exceeds 2.5"
        del bundles
        gc.collect()

    problem = build_problem("pendulum", 1000)
    u = np.zeros((1000, 1))
    peaks = {}
    for kind in ("gn", "ne", "ddp-q"):
        tracemalloc.start()
        oracle(problem, u, kind, nu=0.0)
        _, peaks[kind] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peaks["ne"] <= 3.0 * peaks["gn"]
    assert peaks["ddp-q"] <= 3.0 * peaks["gn"]
    report(
        "criterion 3 (linear-in-horizon complexity)",
        "time ratios "
        + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
        + f"; memory ne/gn={peaks['ne'] / peaks['gn']:.2f}"
        + f", ddp-q/gn={peaks['ddp-q'] / peaks['gn']:.2f}",
    )


def test_criterion_04_policy_scaling(rng):
    """Offset-scaled roll-outs on linear maps are exactly linear in the stepsize."""
    worst = policy_scaling_deviation(rng, 20)
    assert worst <= 1e-12
    report("criterion 4 (policy scaling)", f"max deviation {worst:.2e} over 20 instances")


def test_criterion_05_linesearch_contracts(bench):
    """Accepted steps satisfy their acceptance inequalities; for GN/NE the
    model value halves the gradient-direction product."""
    worst_violation = -math.inf
    steps = 0
    for run in bench.values():
        violations = acceptance_violations(run.trace, run.rule)
        worst_violation = max([worst_violation, *violations])
        steps += len(violations)
    assert worst_violation <= 0.0

    worst_identity = 0.0
    for run in bench.values():
        if run.kind not in ("gn", "ne") or run.rule == "long":
            continue
        points = [np.zeros_like(run.u_final)] + run.iterates
        rows = run.trace.rows
        for k in (1, 2, len(rows) - 1):
            if k >= len(rows) or math.isnan(rows[k].regularization):
                continue
            u_before, nu = points[k - 1], rows[k].regularization
            spec = ORACLES[run.kind]
            bundle = forward(run.problem, u_before, spec.o_f, spec.o_h)
            result = oracle_step(bundle, run.kind, nu)
            if not result.feasible:
                continue
            v = result.direction
            grad = bundle_gradient(bundle)
            expected = 0.5 * float(np.sum(grad * v))
            worst_identity = max(
                worst_identity, abs(result.c0_zero - expected) / (1.0 + abs(expected))
            )
    assert worst_identity <= 1e-8
    report(
        "criterion 5 (line-search contracts)",
        f"{steps} accepted steps, worst slack {worst_violation:.2e}, "
        f"model-value identity err {worst_identity:.2e}",
    )


def test_criterion_06_concave_stage_fixture():
    """Strongly convex objective despite concave per-stage control costs."""
    problem = concave_stage_problem()
    assert problem.meta["a"] * problem.meta["delta"] ** 2 / 4 > 1
    eig_min, residual, iterations = concave_fixture()
    assert eig_min > 0.0
    assert iterations <= 3
    assert residual <= 1e-9
    report(
        "criterion 6 (concave-stage fixture)",
        f"Hessian eig_min {eig_min:.3g} > 0, residual {residual:.2e} "
        f"after {iterations} iterations",
    )


def _rel_subopt_curve(trace, j_star):
    costs = trace.costs
    denom = costs[0] - j_star
    return (costs - j_star) / denom


def test_criterion_07_benchmark_reproduction(bench):
    # (a) pendulum
    pend = {k: r for k, r in bench.items() if k[0] == "pendulum"}
    j_star = min(float(r.trace.costs.min()) for r in pend.values())
    for kind in ("gn", "ddp-lq"):
        for rule in ("directional", "regularized"):
            curve = _rel_subopt_curve(pend[("pendulum", kind, rule)].trace, j_star)
            assert curve[: 101].min() <= 1e-6, f"{kind}/{rule} too slow"
    for rule in ("directional", "regularized"):
        curve = _rel_subopt_curve(pend[("pendulum", "gd", rule)].trace, j_star)
        assert curve[: 101].min() > 1e-6, f"gd/{rule} unexpectedly fast"

    # (b) cart-pole: DDP variants no worse than the Gauss-Newton step
    for tau in (25, 50):
        gn_cost = bench[(f"cartpole{tau}", "gn", "regularized")].trace.rows[-1].cost
        for kind in ("ddp-lq", "ddp-q"):
            ddp_cost = bench[(f"cartpole{tau}", kind, "regularized")].trace.rows[-1].cost
            assert ddp_cost <= gn_cost + 1e-9, f"{kind} worse than gn at tau={tau}"

    # (c) bicycle car on the simple track
    run = bench[("bicycle", "ddp-lq", "regularized")]
    costs = run.trace.costs
    assert np.all(np.diff(costs) <= 1e-12 * (1.0 + np.abs(costs[:-1])))
    bundle = forward(run.problem, run.u_final, 0, 0)
    assert all(np.all(np.isfinite(x)) for x in bundle.xs)
    track = run.problem.meta["track"]
    width = run.problem.meta["params"].car_width
    border_total = sum(
        float(border_cost(track, track_eval(track, x[6]), x[0], x[1], width)) for x in bundle.xs
    )
    assert border_total < 1e-3
    report(
        "criterion 7 (benchmark reproduction)",
        f"pendulum ok, cart-pole ddp<=gn at both horizons, "
        f"bicycle monotone with border sum {border_total:.2e}",
    )


def test_criterion_08_derivative_engine(rng):
    """Every benchmark model passes finite-difference derivative checks."""
    worst_jac = 0.0
    worst_hess = 0.0
    worst_contract = 0.0
    for env in ("pendulum", "cartpole", "simple-car", "bicycle-car"):
        problem = build_problem(env, 10)
        n_x = problem.n_x
        models = [("dyn", problem.dynamics[0], True),
                  ("run0", problem.running_costs[0], True),
                  ("runT", problem.running_costs[-1], True),
                  ("final", problem.final_cost, False)]
        for _, model, joint in models:
            for _ in range(100):
                z = env_interior_point(env, rng, problem)
                if joint:
                    g = lambda zz: model(zz[:n_x], zz[n_x:])
                else:
                    g = model
                    z = z[:n_x]
                jac = autodiff.jacobian(g, z)
                fd_j = fd_jacobian(g, z)
                worst_jac = max(
                    worst_jac, float(np.max(np.abs(jac - fd_j) / (1.0 + np.abs(fd_j))))
                )
                out = g(list(z))
                if not isinstance(out, (list, tuple)):  # scalar models: Hessian too
                    hess = autodiff.hessian(g, z)
                    fd_h = fd_hessian(g, z)
                    worst_hess = max(
                        worst_hess, float(np.max(np.abs(hess - fd_h) / (1.0 + np.abs(fd_h))))
                    )
        # contraction equals the per-output Hessian sum, on a few points
        f = problem.dynamics[0]
        joint_f = lambda zz: f(zz[:n_x], zz[n_x:])
        for _ in range(5):
            z = env_interior_point(env, rng, problem)
            lam = rng.standard_normal(n_x)
            w = autodiff.lambda_hessian(joint_f, z, lam)
            parts = autodiff.vector_hessian(joint_f, z)
            worst_contract = max(
                worst_contract, float(np.max(np.abs(w - np.einsum("i,ijk->jk", lam, parts))))
            )
    assert worst_jac <= 1e-6
    assert worst_hess <= 1e-4
    assert worst_contract <= 1e-12
    report(
        "criterion 8 (derivative engine)",
        f"jacobian err {worst_jac:.2e}, hessian err {worst_hess:.2e}, "
        f"contraction err {worst_contract:.2e}",
    )


def test_criterion_09_stationarity_certificate(rng, bench):
    worst = stationarity_gap(rng, 20)
    assert worst <= 1e-8

    converged = 0
    for run in bench.values():
        if run.trace.status != "converged":
            continue
        converged += 1
        res = stationarity_residual(run.problem, run.u_final)
        j = run.trace.rows[-1].cost
        assert res <= 1e-6 * (1.0 + abs(j)), f"{run.env}/{run.kind}/{run.rule}"
    assert converged > 0
    report(
        "criterion 9 (stationarity certificate)",
        f"dense-gradient agreement {worst:.2e}; {converged} converged endpoints certified",
    )


def test_criterion_10_smoothness_bound(rng):
    """Dense trajectory-map gradient norm stays below the analytic bound."""
    worst_margin = -math.inf
    for i in range(20):
        tau = int(rng.integers(2, 6))
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 4))
        if i % 2 == 0:
            problem, data = random_lq_problem(rng, tau, n_x, n_u)
            lx = max(np.linalg.norm(A, 2) for A in data["A"])
            lu = max(np.linalg.norm(B, 2) for B in data["B"])
        else:
            problem, lx, lu = _sin_instance(rng, tau, n_x, n_u)
        l_bound, _ = smoothness_bounds(lx, lu, 0.0, 0.0, 0.0, tau)
        T = trajectory_jacobian(problem, rng.standard_normal((tau, n_u)) * 0.3)
        margin = float(np.linalg.norm(T, 2)) - l_bound
        worst_margin = max(worst_margin, margin)
        assert margin <= 1e-12
    report("criterion 10 (smoothness bound)", f"worst margin {worst_margin:.2e}")


def _sin_instance(rng, tau, n_x, n_u):
    """Dynamics A x + B u + c sin(w'(x;u) + phase) with computable gradient bounds."""
    dyn = []
    lx = lu = 0.0
    for _ in range(tau):
        A = rng.standard_normal((n_x, n_x)) * 0.4
        B = rng.standard_normal((n_x, n_u)) * 0.8
        w = rng.standard_normal((n_x, n_x + n_u)) * 0.3
        c = rng.standard_normal(n_x) * 0.3
        phase = rng.uniform(-1, 1, n_x)
        cw = np.diag(c) @ w
        lx = max(lx, np.linalg.norm(A, 2) + np.linalg.norm(cw[:, :n_x], 2))
        lu = max(lu, np.linalg.norm(B, 2) + np.linalg.norm(cw[:, n_x:], 2))

        def f(x, u, A=A.tolist(), B=B.tolist(), w=w.tolist(), c=c, phase=phase):
            out = []
            for i in range(len(A)):
                acc = 0.0
                arg = phase[i]
                for j, xj in enumerate(x):
                    acc = acc + A[i][j] * xj
                    arg = arg + w[i][j] * xj
                for k, uk in enumerate(u):
                    acc = acc + B[i][k] * uk
                    arg = arg + w[i][len(x) + k] * uk
                out.append(acc + c[i] * autodiff.sin(arg))
            return out

        dyn.append(f)
    problem = TrajectoryProblem(
        dynamics=tuple(dyn),
        running_costs=tuple(
            quadratic_cost(np.zeros((n_x, n_x)), np.eye(n_u), np.zeros((n_x, n_u)),
                           np.zeros(n_x), np.zeros(n_u))
            for _ in range(tau)
        ),
        final_cost=quadratic_state_cost(np.eye(n_x), np.zeros(n_x)),
        x0=rng.standard_normal(n_x) * 0.3,
        n_x=n_x,
        n_u=n_u,
    )
    return problem, lx, lu
