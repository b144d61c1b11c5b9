"""Test-support builders, independent reference solvers and shared checks.

Shared by the pytest suite and ``trajopt verify``, whose every check is a
function here, ``(rng, trials, offset) -> worst error``: ``offset`` is the
error a self-test injects, and a check of one fixed case ignores ``rng``
and ``trials``.  The references are deliberately independent of the blocked
expansion, the sweeps and the roll-outs the checks run, with the
plain-float roll shared: the KKT solver assembles one dense saddle
system, the dense references differentiate each stage on its own at one
point, and the finite-difference helpers never touch the derivative engine.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .core import (
    TrajectoryProblem,
    linear_dynamics,
    quadratic_cost,
    quadratic_state_cost,
)
from .dense import dense_gauss_newton_matrix, dense_gradient, dense_hessian
from .envs.build import ENV_DISCRETIZERS, build_problem
from .errors import DivergenceError
from .linesearch import ACCEPT_TIE_RTOL, STEP_RULES, LineSearchConfig, StopCriteria
from .linesearch import solve, stationarity_residual
from .oracles import _joint, forward, oracle, rollout, run_backward

__all__ = [
    "random_spd",
    "random_lq_problem",
    "kkt_solve_lq",
    "random_smooth_problem",
    "fd_jacobian",
    "fd_hessian",
    "env_interior_point",
    "concave_stage_problem",
    "concave_fixture",
    "oracle_equivalence_error",
    "finite_difference_error",
    "policy_scaling_deviation",
    "worst_acceptance_violation",
    "stationarity_gap",
    "concave_fixture_residual",
    "acceptance_violations",
]


def random_spd(rng, n, scale=1.0):
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T / n + 0.5 * np.eye(n))


def random_lq_problem(rng, tau, n_x, n_u):
    """Random convex LQ instance; also returns the raw matrices for the KKT oracle.

    Stage Hessians are jointly positive semidefinite with strongly convex
    control blocks, so stagewise Bellman solves recover the global optimum.
    """
    data = {"A": [], "B": [], "H": [], "Q": [], "R": [], "p": [], "q": []}
    dyn, costs = [], []
    for _ in range(tau):
        A = rng.standard_normal((n_x, n_x)) * 0.6 / np.sqrt(n_x)
        B = rng.standard_normal((n_x, n_u)) / np.sqrt(n_u)
        G = rng.standard_normal((n_x + n_u, n_x + n_u)) * 0.7
        joint = G @ G.T / (n_x + n_u)
        joint[n_x:, n_x:] += 0.5 * np.eye(n_u)
        H, Q, R = joint[:n_x, :n_x], joint[n_x:, n_x:], joint[:n_x, n_x:]
        p = rng.standard_normal(n_x) * 0.5
        q = rng.standard_normal(n_u) * 0.5
        for key, val in zip("ABHQRpq", (A, B, H, Q, R, p, q)):
            data[key].append(val)
        dyn.append(linear_dynamics(A, B))
        costs.append(quadratic_cost(H, Q, R, p, q))
    Hf = random_spd(rng, n_x, 0.8)
    pf = rng.standard_normal(n_x) * 0.5
    data["Hf"], data["pf"] = Hf, pf
    x0 = rng.standard_normal(n_x)
    problem = TrajectoryProblem(
        dynamics=tuple(dyn),
        running_costs=tuple(costs),
        final_cost=quadratic_state_cost(Hf, pf),
        x0=x0,
        n_x=n_x,
        n_u=n_u,
    )
    return problem, data


def kkt_solve_lq(problem, data):
    """Equality-constrained QP solve of an LQ instance by one dense KKT system.

    Independent of the Bellman recursion: stacks z = (x_1..x_tau,
    u_0..u_{tau-1}), builds the quadratic objective and the step
    constraints explicitly, and solves the full KKT system.
    """
    tau, n_x, n_u = problem.horizon, problem.n_x, problem.n_u
    nz = tau * n_x + tau * n_u
    P = np.zeros((nz, nz))
    c = np.zeros(nz)
    xoff = lambda t: (t - 1) * n_x  # x_t lives at block t-1, t = 1..tau
    uoff = lambda t: tau * n_x + t * n_u
    for t in range(tau):
        H, Q, R = data["H"][t], data["Q"][t], data["R"][t]
        p, q = data["p"][t], data["q"][t]
        su = slice(uoff(t), uoff(t) + n_u)
        P[su, su] += Q
        c[su] += q
        if t == 0:
            c[su] += R.T @ problem.x0  # x0 fixed: its cross term turns linear
        if t >= 1:
            sx = slice(xoff(t), xoff(t) + n_x)
            P[sx, sx] += H
            P[sx, su] += R
            P[su, sx] += R.T
            c[sx] += p
    sxf = slice(xoff(tau), xoff(tau) + n_x)
    P[sxf, sxf] += data["Hf"]
    c[sxf] += data["pf"]

    E = np.zeros((tau * n_x, nz))
    d = np.zeros(tau * n_x)
    for t in range(tau):
        rows = slice(t * n_x, (t + 1) * n_x)
        E[rows, xoff(t + 1) : xoff(t + 1) + n_x] = np.eye(n_x)
        E[rows, uoff(t) : uoff(t) + n_u] = -data["B"][t]
        if t == 0:
            d[rows] = data["A"][0] @ problem.x0
        else:
            E[rows, xoff(t) : xoff(t) + n_x] = -data["A"][t]
    kkt = np.block([[P, E.T], [E, np.zeros((tau * n_x, tau * n_x))]])
    rhs = np.concatenate([-c, d])
    sol = np.linalg.solve(kkt, rhs)
    return sol[tau * n_x : nz].reshape(tau, n_u)


def _dot(acc, w, z):
    """``acc`` plus the dot product of ``w`` and ``z``, summed in order."""
    for wi, zi in zip(w, z):
        acc = acc + wi * zi
    return acc


def random_smooth_problem(rng, tau, n_x, n_u):
    """Random instance with polynomial/trig dynamics, smooth to all orders."""
    dyn, costs = [], []
    for _ in range(tau):
        A = rng.standard_normal((n_x, n_x)) * 0.5 / np.sqrt(n_x)
        B = rng.standard_normal((n_x, n_u)) / np.sqrt(n_u)
        w = rng.standard_normal((n_x, n_x + n_u)) * 0.4
        amp = rng.standard_normal(n_x) * 0.3
        phase = rng.uniform(-1.0, 1.0, n_x)
        bil = rng.standard_normal(n_x) * 0.2

        def f(x, u, lin=linear_dynamics(A, B), w=w.tolist(), amp=amp, phase=phase, bil=bil):
            z = list(x) + list(u)
            return [acc + amp[i] * ad.sin(_dot(phase[i], w[i], z)) + bil[i] * x[0] * u[0]
                    for i, acc in enumerate(lin(x, u))]

        hq = random_spd(rng, n_x + n_u)
        hl = rng.standard_normal(n_x + n_u) * 0.5
        hamp = rng.standard_normal() * 0.2
        hw = rng.standard_normal(n_x + n_u) * 0.5

        def h(x, u, quad=quadratic_state_cost(hq, hl), hamp=hamp, hw=hw):
            z = list(x) + list(u)
            return quad(z) + hamp * ad.cos(_dot(0.0, hw, z))

        dyn.append(f)
        costs.append(h)

    Hf = random_spd(rng, n_x)
    pf = rng.standard_normal(n_x) * 0.5
    famp = rng.standard_normal() * 0.2
    fw = rng.standard_normal(n_x) * 0.5

    def final(x, quad=quadratic_state_cost(Hf, pf), famp=famp, fw=fw):
        return quad(x) + famp * ad.sin(_dot(0.0, fw, x))

    return TrajectoryProblem(
        dynamics=tuple(dyn),
        running_costs=tuple(costs),
        final_cost=final,
        x0=rng.standard_normal(n_x) * 0.5,
        n_x=n_x,
        n_u=n_u,
    )


def fd_jacobian(g, z):
    """Central finite-difference Jacobian, the independent derivative check."""
    h = 1e-5
    z = np.asarray(z, dtype=float)
    out0 = np.atleast_1d(np.asarray(g(list(z)), dtype=float))
    jac = np.zeros((out0.size, z.size))
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fp = np.atleast_1d(np.asarray(g(list(zp)), dtype=float))
        fm = np.atleast_1d(np.asarray(g(list(zm)), dtype=float))
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def fd_hessian(g, z):
    """Central finite-difference Hessian of a scalar function."""
    h = 1e-4
    z = np.asarray(z, dtype=float)
    m = z.size
    hess = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):

            def val(di, dj):
                zz = z.copy()
                zz[i] += di
                zz[j] += dj
                return float(g(list(zz)))

            hess[i, j] = (val(h, h) - val(h, -h) - val(-h, h) + val(-h, -h)) / (4 * h * h)
            hess[j, i] = hess[i, j]
    return hess


def env_interior_point(env, rng, problem):
    """Random evaluation point inside the model's admissible region."""
    z = rng.uniform(-0.5, 0.5, problem.n_x + problem.n_u)
    if env == "bicycle-car":
        z[3] = rng.uniform(0.8, 2.5)  # forward speed
        z[6] = rng.uniform(0.5, 3.0)  # stay inside the spline domain
        z[7] = rng.uniform(0.5, 3.0)  # curve-parameter rate (log barrier)
    return z


def concave_stage_problem():
    """Ten-stage integrator chain whose stage costs are concave in the control.

    With a = 500 and delta = 0.1, a * delta^2 / 4 > 1, so the overall
    objective is still strongly convex in the stacked controls and the
    exact second-order step solves it even though every per-stage control
    curvature is negative.
    """
    a, delta = 500.0, 0.1
    f = linear_dynamics([[1.0]], [[delta]])

    def running(x, u):
        return delta * (a * x[0] * x[0] - u[0] * u[0])

    return TrajectoryProblem(
        dynamics=(f,) * 10,
        running_costs=(running,) * 10,
        final_cost=lambda x: a * x[0] * x[0],
        x0=[0.0],
        n_x=1,
        n_u=1,
        meta={"a": a, "delta": delta},
    )


def concave_fixture() -> tuple[float, float, int]:
    """(dense Hessian eig_min, final residual, iterations) of the concave-stage
    instance, solved by at most three Newton steps from u = 1."""
    problem = concave_stage_problem()
    hess = dense_hessian(problem, np.zeros((problem.horizon, 1)))
    eig_min = float(np.linalg.eigvalsh(hess)[0])
    u0 = np.ones((problem.horizon, 1))
    _, trace = solve(problem, u0, "ne", LineSearchConfig(), StopCriteria(max_iters=3))
    return eig_min, trace.rows[-1].residual, trace.iterations


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))


def _random_point(rng, tau: int, n_x: int | None = None, n_u: int | None = None):
    """A :func:`random_smooth_problem` of horizon ``tau`` and controls on it;
    ``n_x`` and ``n_u`` are drawn from 1..3 unless given."""
    n_x = int(rng.integers(1, 4)) if n_x is None else n_x
    n_u = int(rng.integers(1, 4)) if n_u is None else n_u
    return random_smooth_problem(rng, tau, n_x, n_u), rng.standard_normal((tau, n_u)) * 0.3


def oracle_equivalence_error(rng, instances: int, offset: float = 0.0) -> float:
    """Worst error of the gd, gn and ne directions against the dense normal
    equations (nu I + M) d = -g, over ``instances`` random instances.

    M is zero, the Gauss-Newton matrix and the Hessian; gn and ne escalate
    nu tenfold from 1 until their sweep is feasible.  Errors are relative to
    1 + max|g|.  ``offset`` is added to the dense gradient.
    """
    worst = 0.0
    for _ in range(instances):
        problem, u = _random_point(rng, int(rng.choice([3, 5])))
        g = dense_gradient(problem, u) + offset
        worst = max(worst, _rel_err(-oracle(problem, u, "gd", nu=1.0).direction.ravel(), g))
        for kind, dense in (("gn", dense_gauss_newton_matrix), ("ne", dense_hessian)):
            nu = 1.0
            step = oracle(problem, u, kind, nu=nu)
            while not step.feasible:
                nu *= 10.0
                step = oracle(problem, u, kind, nu=nu)
            lhs = (dense(problem, u) + nu * np.eye(g.size)) @ step.direction.ravel()
            worst = max(worst, _rel_err(lhs, -g))
    return worst


def finite_difference_error(rng, trials: int, offset: float = 0.0) -> float:
    """Worst relative error of each env's dynamics Jacobian against central finite
    differences, at ``trials`` interior points per discretizer; ``offset`` is
    added to every Jacobian."""
    worst = 0.0
    for env, schemes in ENV_DISCRETIZERS.items():
        for scheme in schemes:
            problem = build_problem(env, 10, scheme)
            joint = _joint(problem.dynamics[0], problem.n_x)
            for _ in range(trials):
                z = env_interior_point(env, rng, problem)
                jac = ad.jacobian(joint, z) + offset
                fd = fd_jacobian(joint, z)
                worst = max(worst, float(np.max(np.abs(jac - fd) / (1.0 + np.abs(fd)))))
    return worst


def policy_scaling_deviation(rng, instances: int, offset: float = 0.0) -> float:
    """Worst deviation from gamma times the unit roll-out of gamma-scaled GN
    policies on linear maps, over ``instances`` feasible random instances;
    ``offset`` is added to every scaled roll-out."""
    worst = 0.0
    checked = 0
    while checked < instances:
        problem, u = _random_point(rng, int(rng.integers(3, 7)))
        bundle = forward(problem, u, 1, 2)
        result = run_backward(bundle, "gn", 0.5)
        if not result.feasible:
            continue
        base = rollout(bundle, "gn", result.K, result.k)
        for gamma in (0.5, 0.25, 0.1):
            got = rollout(bundle, "gn", result.K, gamma * result.k) + offset
            worst = max(worst, float(np.max(np.abs(got - gamma * base))))
        checked += 1
    return worst


def worst_acceptance_violation(rng, trials: int, offset: float = 0.0) -> float:
    """Worst :func:`acceptance_violations` entry of gn on pendulum h = 30 from
    zero controls, 25 iterations under each step rule, a diverged solve read
    up to its divergence; ``offset`` is added to every entry."""
    problem = build_problem("pendulum", 30)
    worst = -np.inf
    for rule in STEP_RULES:
        cfg = LineSearchConfig(rule=rule)
        try:
            _, trace = solve(problem, np.zeros((30, problem.n_u)), "gn", cfg,
                             StopCriteria(max_iters=25))
        except DivergenceError as err:
            trace = err.trace
        violations = acceptance_violations(trace, rule, cfg.gamma_min)
        worst = max([worst, *(v + offset for v in violations)])
    return worst


def stationarity_gap(rng, instances: int, offset: float = 0.0) -> float:
    """Worst relative gap between the stationarity residual and the dense
    gradient max-norm, over ``instances`` random instances; ``offset`` is
    added to the dense max-norm."""
    worst = 0.0
    for _ in range(instances):
        problem, u = _random_point(rng, int(rng.integers(2, 6)), 2, 2)
        res = stationarity_residual(problem, u)
        dense = float(np.max(np.abs(dense_gradient(problem, u)))) + offset
        worst = max(worst, abs(res - dense) / (1.0 + dense))
    return worst


def concave_fixture_residual(rng, trials: int, offset: float = 0.0) -> float:
    """The final residual of :func:`concave_fixture`, or inf unless its dense
    Hessian less ``offset`` is positive definite."""
    eig_min, residual, _ = concave_fixture()
    return residual if eig_min - offset > 0.0 else np.inf


def acceptance_violations(trace, rule: str, gamma_min: float) -> list[float]:
    """Per accepted step of a ``rule`` trace solved with smallest stepsize
    ``gamma_min``, the cost change minus its acceptance bound and tie slack
    (> 0: violated).  Stall-carried rows make no acceptance claim and are
    skipped: their stepsize lies below gamma_min, and a regularized one's
    model value is NaN."""
    out = []
    for prev, row in zip(trace.rows, trace.rows[1:]):
        if np.isnan(row.model_decrease) or row.stepsize < gamma_min:
            continue
        factor = row.stepsize if rule == "directional" else 1.0
        slack = ACCEPT_TIE_RTOL * (1.0 + abs(prev.cost))
        out.append((row.cost - prev.cost) - factor * row.model_decrease - slack)
    return out
