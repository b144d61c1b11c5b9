"""Problem statement and the model-building helpers at the API boundary.

States and controls are plain 1-D float64 numpy arrays.  Matrices follow
the Jacobian convention throughout: for a dynamic f, ``A = d f / d x`` has
shape (n_x, n_x) and ``B = d f / d u`` has shape (n_x, n_u), so a linear
step reads ``y_next = A @ y + B @ v``.  The solver paths hold these
matrices stacked over the stages as raw arrays (see
:class:`trajopt.oracles.ExpansionBundle`); user-given matrices are
validated here, once, by the helpers that turn them into models.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ShapeError

__all__ = [
    "TrajectoryProblem",
    "linear_dynamics",
    "quadratic_cost",
    "quadratic_state_cost",
]

def _vector(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float).ravel()
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} must be finite")
    return a


def _matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} must be finite")
    return a


def _number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a real number, an integer if ``integer``, and not a bool."""
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


@dataclass(frozen=True)
class TrajectoryProblem:
    """Finite-horizon discrete-time control problem.

    ``dynamics[t]`` maps (x, u) to the next state as a sequence of n_x
    scalars, ``running_costs[t]`` maps (x, u) to a scalar and
    ``final_cost`` maps x to a scalar; ``n_x`` and ``n_u`` are integers of
    at least 1.  All callables must be pure and
    built from the primitives of :mod:`trajopt.autodiff` so they can be
    differentiated.
    """

    dynamics: tuple
    running_costs: tuple
    final_cost: Callable
    x0: np.ndarray
    n_x: int
    n_u: int
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dynamics", tuple(self.dynamics))
        object.__setattr__(self, "running_costs", tuple(self.running_costs))
        object.__setattr__(self, "x0", _vector(self.x0, "x0"))
        for name in ("n_x", "n_u"):
            n = getattr(self, name)
            if not _number(n, integer=True) or n < 1:
                raise ShapeError(f"{name} must be an integer >= 1, got {n!r}")
        if len(self.dynamics) < 1:
            raise ShapeError("horizon must be at least 1")
        if len(self.running_costs) != len(self.dynamics):
            raise ShapeError(
                f"{len(self.running_costs)} running costs for {len(self.dynamics)} dynamics"
            )
        if self.x0.size != self.n_x:
            raise ShapeError(f"x0 has size {self.x0.size}, expected n_x={self.n_x}")

    @property
    def horizon(self) -> int:
        return len(self.dynamics)


# -- model-building helpers --------------------------------------------------
#
# The returned callables do their arithmetic entry by entry so they accept
# hyper-dual scalars as well as floats.


def linear_dynamics(A, B):
    """Dynamic f(x, u) = A @ x + B @ u as a generic-scalar callable."""
    A = _matrix(A, "A").tolist()
    B = _matrix(B, "B").tolist()

    def f(x, u):
        out = []
        for ai, bi in zip(A, B):
            acc = 0.0
            for a, xj in zip(ai, x):
                acc = acc + a * xj
            for b, uk in zip(bi, u):
                acc = acc + b * uk
            out.append(acc)
        return out

    return f


def quadratic_cost(H, Q, R, p, q):
    """Stage cost 0.5 x'Hx + 0.5 u'Qu + x'Ru + p'x + q'u as a generic callable.

    H and Q are symmetrized; inconsistent block shapes raise :class:`ShapeError`.
    """
    H, Q, R = _sym(_matrix(H, "H")), _sym(_matrix(Q, "Q")), _matrix(R, "R")
    p, q = _vector(p, "p"), _vector(q, "q")
    n_x, n_u = p.size, q.size
    if H.shape != (n_x, n_x) or Q.shape != (n_u, n_u) or R.shape != (n_x, n_u):
        raise ShapeError(
            f"inconsistent quadratic model shapes: H{H.shape} Q{Q.shape} R{R.shape} "
            f"p({n_x},) q({n_u},)"
        )
    Hl, Ql, Rl, pl, ql = H.tolist(), Q.tolist(), R.tolist(), p.tolist(), q.tolist()

    def h(x, u):
        acc = 0.0
        for i, xi in enumerate(x):
            acc = acc + pl[i] * xi
            for jj, xj in enumerate(x):
                acc = acc + 0.5 * Hl[i][jj] * xi * xj
            for kk, uk in enumerate(u):
                acc = acc + Rl[i][kk] * xi * uk
        for k, uk in enumerate(u):
            acc = acc + ql[k] * uk
            for kk, ul in enumerate(u):
                acc = acc + 0.5 * Ql[k][kk] * uk * ul
        return acc

    return h


def quadratic_state_cost(H, p):
    """Final cost 0.5 x'Hx + p'x as a generic-scalar callable."""
    H = _sym(_matrix(H, "H")).tolist()
    p = _vector(p, "p").tolist()

    def h(x):
        acc = 0.0
        for i, xi in enumerate(x):
            acc = acc + p[i] * xi
            for jj, xj in enumerate(x):
                acc = acc + 0.5 * H[i][jj] * xi * xj
        return acc

    return h
