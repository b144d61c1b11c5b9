"""Dense reference computations used to validate the structured solvers.

These assemble the full block matrices of the unrolled control problem and
compute objective gradients and Hessians by plain linear algebra, at a
cubic cost in horizon times state dimension.  They exist to cross-check
the linear-time backward passes and are guarded against accidental use on
large instances.  They share the solver's plain-float roll and its model
contract; each stage is differentiated on its own at one point, apart from
the blocked expansion, the sweeps and the roll-outs, and only to the orders
its reference reads: first order, second-order costs for the Gauss-Newton
matrix, second-order dynamics and costs for the Hessian.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .core import TrajectoryProblem, _scalar
from .errors import DivergenceError, ParameterError
from .oracles import _joint, _roll, checked_controls

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


def _differentiated(t: int, g, z, order: int) -> list:
    """Stage t's model ``g`` differentiated on its own at the one point ``z``.

    Gives the Jacobian and, at ``order`` 2, the per-output Hessians.  A
    derivative that raises ``ArithmeticError`` or is not finite raises
    :class:`DivergenceError` naming t, as :func:`oracles.forward` does.
    """
    try:
        out = [autodiff.jacobian(g, z)]
        if order == 2:
            out.append(autodiff.vector_hessian(g, z))
    except ArithmeticError as err:
        raise DivergenceError(t, f"model differentiation failed at t={t}: {err}") from err
    if not all(np.isfinite(d).all() for d in out):
        raise DivergenceError(t, f"non-finite derivative at t={t}")
    return out


class _DenseData:
    """One instance's derivatives, stacked over (x_1..x_tau, u_0..u_{tau-1}).

    The states come from the solver's plain-float roll (:func:`oracles._roll`),
    so a model breaks the same contract here as in :func:`oracles.forward`.
    The dynamics are differentiated to order ``o_f`` and the costs to order
    ``o_h``, each 1 or 2: the step-map Jacobians ``Fx``, ``Fu``, the cost
    slopes ``mu`` (states), ``gu`` (controls) and ``T = (I - Fx)^-1 Fu``
    always; the cost Hessian blocks at ``o_h = 2``; and ``fxx``, each stage's
    per-output dynamics Hessians, at ``o_f = 2``.
    """

    def __init__(self, problem: TrajectoryProblem, u, o_f: int, o_h: int):
        tau, n_x, n_u = problem.horizon, problem.n_x, problem.n_u
        N, M = tau * n_x, tau * n_u
        if N > MAX_STACKED_STATES:
            raise ParameterError(
                f"dense oracle refused: horizon*n_x = {N} exceeds {MAX_STACKED_STATES}"
            )
        u = checked_controls(problem, u, "u")
        xs, _ = _roll(problem, u)
        self.Fx, Fu = np.zeros((N, N)), np.zeros((N, M))
        self.mu, self.gu = np.zeros(N), np.zeros(M)
        self.Hxx, self.Huu, self.Hxu = np.zeros((N, N)), np.zeros((M, M)), np.zeros((N, M))
        self.fxx = []
        # overflow shows as non-finite derivatives, as in oracles.forward
        with np.errstate(all="ignore"):
            for t in range(tau):
                z = np.concatenate([xs[t], u[t]])
                jac, *fxx = _differentiated(t, _joint(problem.dynamics[t], n_x), z, o_f)
                grad, *hess = (d[0] for d in _differentiated(
                    t, _joint(problem.running_costs[t], n_x), z, o_h))
                self.fxx += fxx
                r, c = slice(t * n_x, (t + 1) * n_x), slice(t * n_u, (t + 1) * n_u)
                Fu[r, c] = jac[:, n_x:]
                self.gu[c] = grad[n_x:]
                if hess:
                    self.Huu[c, c] = hess[0][n_x:, n_x:]
                if t >= 1:  # s: the block of x_t
                    s = slice(r.start - n_x, r.start)
                    self.Fx[r, s] = jac[:, :n_x]
                    self.mu[s] = grad[:n_x]
                    if hess:
                        self.Hxx[s, s] = hess[0][:n_x, :n_x]
                        self.Hxu[s, c] = hess[0][:n_x, n_x:]
            p, *hess = (d[0] for d in _differentiated(tau, problem.final_cost, xs[tau], o_h))
            self.mu[N - n_x :] = p
            if hess:
                self.Hxx[N - n_x :, N - n_x :] = hess[0]
        self.T = np.linalg.solve(np.eye(N) - self.Fx, Fu)

    def costates(self) -> np.ndarray:
        """Stacked costates (I - Fx)^-T mu."""
        return np.linalg.solve((np.eye(self.Fx.shape[0]) - self.Fx).T, self.mu)

    def gauss_newton(self) -> np.ndarray:
        """T' Hxx T + T' Hxu + Hxu' T + Huu, not yet symmetrized."""
        T, Hxu = self.T, self.Hxu
        return T.T @ self.Hxx @ T + T.T @ Hxu + Hxu.T @ T + self.Huu


def trajectory_jacobian(problem: TrajectoryProblem, u) -> np.ndarray:
    """Jacobian of the stacked trajectory (x_1..x_tau) in the stacked controls."""
    return _DenseData(problem, u, 1, 1).T


def dense_gradient(problem: TrajectoryProblem, u) -> np.ndarray:
    """Objective gradient over the stacked controls, shape (horizon*n_u,)."""
    data = _DenseData(problem, u, 1, 1)
    return data.T.T @ data.mu + data.gu


def dense_costates(problem: TrajectoryProblem, u) -> np.ndarray:
    """Stacked costates (I - Fx)^-T mu, shape (horizon, n_x).

    Row t-1 is the gradient of the tail cost sum with respect to x_t; it
    equals the recursively back-propagated adjoint state.
    """
    return _DenseData(problem, u, 1, 1).costates().reshape(problem.horizon, problem.n_x)


def dense_gauss_newton_matrix(problem: TrajectoryProblem, u) -> np.ndarray:
    """Curvature matrix of the linear-quadratic model: G' (cost Hessian) G."""
    M = _DenseData(problem, u, 1, 2).gauss_newton()
    return 0.5 * (M + M.T)


def dense_hessian(problem: TrajectoryProblem, u) -> np.ndarray:
    """Objective Hessian over the stacked controls, shape (horizon*n_u,)^2.

    Sum of the Gauss-Newton matrix and the dynamics-curvature contraction
    against the costates.
    """
    data = _DenseData(problem, u, 2, 2)
    n_x, n_u, T = problem.n_x, problem.n_u, data.T
    hess = data.gauss_newton()
    lam = data.costates()
    for t, fxx in enumerate(data.fxx):
        w = np.einsum("i,ijk->jk", lam[t * n_x : (t + 1) * n_x], fxx)
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
    l_f_x, tau = float(l_f_x), int(tau)
    try:  # a float power raises OverflowError where an int power would run on
        S = float(tau) if l_f_x == 1.0 else (l_f_x**tau - 1.0) / (l_f_x - 1.0)
        l_bound = l_f_u * S
        return float(l_bound), float(S * (l_f_xx * l_bound**2 + 2.0 * l_f_xu * l_bound + l_f_uu))
    except OverflowError:
        raise ParameterError("the constants are too large: the bounds overflow") from None
