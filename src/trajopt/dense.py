"""Dense reference computations used to validate the structured solvers.

These assemble the full block matrices of the unrolled control problem and
compute objective gradients and Hessians by plain linear algebra, at a
cubic cost in horizon times state dimension.  They exist to cross-check
the linear-time backward passes and are guarded against accidental use on
large instances.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .core import TrajectoryProblem, _scalar
from .errors import ParameterError
from .oracles import checked_controls

__all__ = [
    "dense_gradient",
    "dense_hessian",
    "dense_gauss_newton_matrix",
    "trajectory_jacobian",
    "dense_costates",
    "smoothness_bounds",
]

# Refuse instances whose stacked state dimension would make the dense
# assembly blow up cubically.
MAX_STACKED_STATES = 256


class _DenseData:
    """Per-step derivatives of one instance, materialized densely."""

    def __init__(self, problem: TrajectoryProblem, u, order: int):
        tau, n_x, n_u = problem.horizon, problem.n_x, problem.n_u
        if tau * n_x > MAX_STACKED_STATES:
            raise ParameterError(
                f"dense oracle refused: horizon*n_x = {tau * n_x} exceeds {MAX_STACKED_STATES}"
            )
        u = checked_controls(problem, u, "u")
        self.problem, self.u = problem, u
        self.tau, self.n_x, self.n_u = tau, n_x, n_u

        # overflow shows as non-finite derivatives, as in oracles.forward
        with np.errstate(all="ignore"):
            xs = [problem.x0.copy()]
            self.A, self.B, self.curvatures = [], [], []
            self.hp, self.hq = [], []
            self.hxx, self.huu, self.hxu = [], [], []
            x = xs[0]
            for t in range(tau):
                f, h = problem.dynamics[t], problem.running_costs[t]
                z = np.concatenate([x, u[t]])
                joint_f = lambda zz, f=f: f(zz[:n_x], zz[n_x:])
                joint_h = lambda zz, h=h: h(zz[:n_x], zz[n_x:])
                jac = autodiff.jacobian(joint_f, z)
                self.A.append(jac[:, :n_x])
                self.B.append(jac[:, n_x:])
                _, grad, hess = autodiff.value_gradient_hessian(joint_h, z)
                self.hp.append(grad[:n_x])
                self.hq.append(grad[n_x:])
                self.hxx.append(hess[:n_x, :n_x])
                self.huu.append(hess[n_x:, n_x:])
                self.hxu.append(hess[:n_x, n_x:])
                if order == 2:  # per-output (m, m) Hessians of f_t in (x_t, u_t)
                    self.curvatures.append(autodiff.vector_hessian(joint_f, z))
                x = np.asarray(f([float(v) for v in x], [float(v) for v in u[t]]), dtype=float)
                xs.append(x)
            self.xs = xs
            _, self.final_p, self.final_H = autodiff.value_gradient_hessian(
                problem.final_cost, xs[-1]
            )

    def stacked_jacobians(self) -> tuple[np.ndarray, np.ndarray]:
        """Jacobians of the stacked step map F over (x_1..x_tau, u_0..u_{tau-1})."""
        tau, n_x, n_u = self.tau, self.n_x, self.n_u
        Fx = np.zeros((tau * n_x, tau * n_x))
        Fu = np.zeros((tau * n_x, tau * n_u))
        for t in range(tau):
            r = slice(t * n_x, (t + 1) * n_x)
            if t >= 1:
                Fx[r, (t - 1) * n_x : t * n_x] = self.A[t]
            Fu[r, t * n_u : (t + 1) * n_u] = self.B[t]
        return Fx, Fu

    def state_cost_slope(self) -> np.ndarray:
        """Stacked gradient of the total cost in the states x_1..x_tau."""
        mu = np.zeros(self.tau * self.n_x)
        for t in range(1, self.tau):
            mu[(t - 1) * self.n_x : t * self.n_x] = self.hp[t]
        mu[(self.tau - 1) * self.n_x :] = self.final_p
        return mu

    def cost_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block-diagonal Hessian pieces of the total cost over (states, controls)."""
        tau, n_x, n_u = self.tau, self.n_x, self.n_u
        Hxx = np.zeros((tau * n_x, tau * n_x))
        Huu = np.zeros((tau * n_u, tau * n_u))
        Hxu = np.zeros((tau * n_x, tau * n_u))
        for t in range(1, tau):
            r = slice((t - 1) * n_x, t * n_x)
            Hxx[r, r] = self.hxx[t]
            Hxu[r, t * n_u : (t + 1) * n_u] = self.hxu[t]
        Hxx[(tau - 1) * n_x :, (tau - 1) * n_x :] = self.final_H
        for t in range(tau):
            r = slice(t * n_u, (t + 1) * n_u)
            Huu[r, r] = self.huu[t]
        return Hxx, Huu, Hxu


def trajectory_jacobian(problem: TrajectoryProblem, u) -> np.ndarray:
    """Jacobian of the stacked trajectory (x_1..x_tau) in the stacked controls."""
    data = _DenseData(problem, u, order=1)
    Fx, Fu = data.stacked_jacobians()
    return np.linalg.solve(np.eye(Fx.shape[0]) - Fx, Fu)


def dense_gradient(problem: TrajectoryProblem, u) -> np.ndarray:
    """Objective gradient over the stacked controls, shape (horizon*n_u,)."""
    data = _DenseData(problem, u, order=1)
    Fx, Fu = data.stacked_jacobians()
    T = np.linalg.solve(np.eye(Fx.shape[0]) - Fx, Fu)
    grad = T.T @ data.state_cost_slope()
    for t in range(data.tau):
        grad[t * data.n_u : (t + 1) * data.n_u] += data.hq[t]
    return grad


def dense_costates(problem: TrajectoryProblem, u) -> np.ndarray:
    """Stacked costates (I - Fx)^-T mu, shape (horizon, n_x).

    Row t-1 is the gradient of the tail cost sum with respect to x_t; it
    equals the recursively back-propagated adjoint state.
    """
    data = _DenseData(problem, u, order=1)
    Fx, _ = data.stacked_jacobians()
    lam = np.linalg.solve((np.eye(Fx.shape[0]) - Fx).T, data.state_cost_slope())
    return lam.reshape(data.tau, data.n_x)


def dense_gauss_newton_matrix(problem: TrajectoryProblem, u) -> np.ndarray:
    """Curvature matrix of the linear-quadratic model: G' (cost Hessian) G."""
    data = _DenseData(problem, u, order=1)
    Fx, Fu = data.stacked_jacobians()
    T = np.linalg.solve(np.eye(Fx.shape[0]) - Fx, Fu)
    Hxx, Huu, Hxu = data.cost_blocks()
    M = T.T @ Hxx @ T + T.T @ Hxu + Hxu.T @ T + Huu
    return 0.5 * (M + M.T)


def dense_hessian(problem: TrajectoryProblem, u) -> np.ndarray:
    """Objective Hessian over the stacked controls, shape (horizon*n_u,)^2.

    Sum of the Gauss-Newton matrix and the dynamics-curvature contraction
    against the costates.
    """
    data = _DenseData(problem, u, order=2)
    tau, n_x, n_u = data.tau, data.n_x, data.n_u
    Fx, Fu = data.stacked_jacobians()
    T = np.linalg.solve(np.eye(tau * n_x) - Fx, Fu)
    Hxx, Huu, Hxu = data.cost_blocks()
    hess = T.T @ Hxx @ T + T.T @ Hxu + Hxu.T @ T + Huu

    lam = np.linalg.solve((np.eye(tau * n_x) - Fx).T, data.state_cost_slope())
    for t in range(tau):
        lam_next = lam[t * n_x : (t + 1) * n_x]
        w = np.einsum("i,ijk->jk", lam_next, data.curvatures[t])
        w = 0.5 * (w + w.T)
        wxx, wxu, wuu = w[:n_x, :n_x], w[:n_x, n_x:], w[n_x:, n_x:]
        cols = slice(t * n_u, (t + 1) * n_u)
        if t >= 1:
            Y = T[(t - 1) * n_x : t * n_x, :]  # d x_t / d u
            hess += Y.T @ wxx @ Y
            hess[:, cols] += Y.T @ wxu
            hess[cols, :] += (Y.T @ wxu).T
        hess[cols, cols] += wuu
    return 0.5 * (hess + hess.T)


def smoothness_bounds(
    l_f_x: float, l_f_u: float, l_f_xx: float, l_f_xu: float, l_f_uu: float, tau: int
) -> tuple[float, float]:
    """Lipschitz bounds of the unrolled trajectory map from per-step constants.

    Returns (l, L): a bound on the trajectory map's gradient norm and on
    the Lipschitz constant of that gradient, built from the geometric sum
    S of the per-step state sensitivities.
    """
    for name, val in zip(("l_f_x", "l_f_u", "l_f_xx", "l_f_xu", "l_f_uu"),
                         (l_f_x, l_f_u, l_f_xx, l_f_xu, l_f_uu)):
        _scalar(val, name, 0.0, ends="[)")
    _scalar(tau, "tau", 1, ends="[)", integer=True)
    try:
        S = sum(l_f_x**t for t in range(tau))
        l_bound = l_f_u * S
        return float(l_bound), float(S * (l_f_xx * l_bound**2 + 2.0 * l_f_xu * l_bound + l_f_uu))
    except OverflowError:
        raise ParameterError("the constants are too large: the bounds overflow") from None
