"""Problem statement and the model-building helpers at the API boundary.

States and controls are plain 1-D float64 numpy arrays.  Matrices follow
the Jacobian convention throughout: for a dynamic f, ``A = d f / d x`` has
shape (n_x, n_x) and ``B = d f / d u`` has shape (n_x, n_u), so a linear
step reads ``y_next = A @ y + B @ v``.  The solver paths hold these
matrices stacked over the stages as raw arrays (see
:class:`trajopt.oracles.ExpansionBundle`); user-given matrices are
validated here, once, by the helpers that turn them into models.

Every public entry point checks its numbers with :func:`_scalar` and its
arrays with :func:`_array`, once per call; bad input raises an error from
:mod:`trajopt.errors` that names the argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError

__all__ = [
    "TrajectoryProblem",
    "linear_dynamics",
    "quadratic_cost",
    "quadratic_state_cost",
]


def _scalar(value, name: str, lo=-math.inf, hi=math.inf, ends: str = "()",
            integer: bool = False, error=ParameterError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a number in the interval lo..hi.

    ``ends`` are its brackets, open by default: the default range is every
    finite number, and NaN lies in no interval.  A bool is not a number here.
    """
    kind = type(value)  # a plain int or float skips the slower abstract-class checks
    if (kind is int or (kind is float and not integer) or (not isinstance(value, bool)
            and isinstance(value, numbers.Integral if integer else numbers.Real))):
        if ((lo < value if ends[0] == "(" else lo <= value)
                and (value < hi if ends[1] == ")" else value <= hi)):
            return
    if integer:  # stated with closed ends
        lo, hi = lo + (ends[0] == "("), hi - (ends[1] == ")")
        text = (f"an integer >= {lo}" if hi == math.inf
                else ", ".join(map(str, range(lo, hi))) + f" or {hi}")
    elif (lo, hi, ends) == (0, math.inf, "()"):
        text = "positive and finite"
    else:
        text = f"a real number in {ends[0]}{lo}, {hi}{ends[1]}"
    message = f"must be {text}, got {value!r}"
    raise error(name, message) if error is ConfigError else error(f"{name} {message}")


def _array(a, name: str, shape: tuple | None = None, finite: bool = True,
           steps: bool = False) -> np.ndarray:
    """``a`` as a float64 array of a real or bool dtype, else :class:`ShapeError` naming ``name``.

    ``shape`` None takes any shape and returns it flat; a None length in
    ``shape`` is any length.  With ``steps`` the rows are time steps: the
    flat form of ``shape`` is taken too, and a non-finite entry names its step.
    """
    try:
        arr = np.asarray(a)
    except (TypeError, ValueError):  # ragged nesting
        raise ShapeError(f"{name} is not an array of numbers") from None
    if arr.dtype.kind not in "biuf":
        expected = "real numbers" if shape is None else f"{shape} real numbers"
        raise ShapeError(f"{name} has dtype {arr.dtype}, expected {expected}")
    arr = np.asarray(arr, dtype=float)
    if shape is None:
        arr = arr.ravel()
    elif arr.shape != shape:
        if steps and arr.shape == (math.prod(shape),):
            arr = arr.reshape(shape)
        elif arr.ndim != len(shape) or any(m not in (n, None) for n, m in zip(arr.shape, shape)):
            raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
    if finite and not np.isfinite(arr).all():
        t = np.argmin(np.isfinite(arr.reshape(len(arr), -1)).all(axis=1))
        raise ShapeError(f"{name} must be finite" + (f"; step t={t} is not" if steps else ""))
    return arr


class _Params:
    """Base of the env params dataclasses: every field a finite real number,
    those named in ``_positive`` > 0 and those in ``_non_negative`` >= 0."""

    _positive = _non_negative = ()

    def __post_init__(self):
        for f in fields(self):
            bounded = f.name in self._positive + self._non_negative
            ends = "[)" if f.name in self._non_negative else "()"
            _scalar(getattr(self, f.name), f.name, 0.0 if bounded else -math.inf, ends=ends)


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


@dataclass(frozen=True)
class TrajectoryProblem:
    """Finite-horizon discrete-time control problem.

    ``dynamics[t]`` maps (x, u) to the next state as a sequence of n_x
    scalars, ``running_costs[t]`` maps (x, u) to a scalar and
    ``final_cost`` maps x to a scalar; ``n_x`` and ``n_u`` are integers of
    at least 1.  All callables must be pure and built from the primitives
    of :mod:`trajopt.autodiff` so they can be differentiated.
    """

    dynamics: tuple
    running_costs: tuple
    final_cost: Callable
    x0: np.ndarray
    n_x: int
    n_u: int
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in ("dynamics", "running_costs"):
            try:
                fns = tuple(getattr(self, name))
            except TypeError:
                fns = None
            if fns is None or not all(map(callable, fns)):
                raise ShapeError(f"{name} must be a sequence of callables")
            object.__setattr__(self, name, fns)
        if not callable(self.final_cost):
            raise ShapeError(f"final_cost must be callable, got {type(self.final_cost).__name__}")
        object.__setattr__(self, "x0", _array(self.x0, "x0"))
        for name in ("n_x", "n_u"):
            _scalar(getattr(self, name), name, 1, ends="[)", integer=True, error=ShapeError)
        _scalar(len(self.dynamics), "horizon", 1, ends="[)", integer=True, error=ShapeError)
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
    A = _array(A, "A", (None, None)).tolist()
    B = _array(B, "B", (None, None)).tolist()

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
    H, Q, R = (_array(a, name, (None, None)) for a, name in ((H, "H"), (Q, "Q"), (R, "R")))
    p, q = _array(p, "p"), _array(q, "q")
    n_x, n_u = p.size, q.size
    if H.shape != (n_x, n_x) or Q.shape != (n_u, n_u) or R.shape != (n_x, n_u):
        raise ShapeError(
            f"inconsistent quadratic model shapes: H{H.shape} Q{Q.shape} R{R.shape} "
            f"p({n_x},) q({n_u},)"
        )
    Hl, Ql, Rl, pl, ql = _sym(H).tolist(), _sym(Q).tolist(), R.tolist(), p.tolist(), q.tolist()

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
    p = _array(p, "p")
    H, p = _sym(_array(H, "H", (p.size, p.size))).tolist(), p.tolist()

    def h(x):
        acc = 0.0
        for i, xi in enumerate(x):
            acc = acc + p[i] * xi
            for jj, xj in enumerate(x):
                acc = acc + 0.5 * H[i][jj] * xi * xj
        return acc

    return h
