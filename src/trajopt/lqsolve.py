"""Exact dynamic programming for linear-quadratic stages, on raw arrays.

A stage is the linear step ``y_next = A y + B v``, the stage cost
0.5 y'Hy + 0.5 v'Qv + y'Rv + p'y + q'v and the next cost-to-go
0.5 y'Jy + j'y + j0.  ``check_subproblem`` factors the stage's control
Hessian once and runs the descent test, and ``lqbp`` solves the stage in
closed form from that factor; the Bellman sweep of
:mod:`trajopt.oracles` chains these stage solutions.  ``lbp`` is the
degenerate linear-cost stage, one step of gradient back-propagation; the
gradient oracle reads the same offsets from the bundle's adjoints.

Stages with more than one control call LAPACK's ``dpotrf``/``dpotrs``
directly, as ``scipy.linalg.cho_factor``/``cho_solve`` do after argument
checks that cost several times the factorization of a stage a few numbers
wide.  A 1x1 block (one control: the pendulum, the cart-pole) makes no
LAPACK call: its factor is l = sqrt(a), rejected at a <= 0 as ``dpotrf``
rejects it, and a solve is ``(b * r) * r`` with r = 1/l, as OpenBLAS's
triangular solves multiply by the reciprocal of the diagonal.  Both are
the library's results bit for bit; ``(b / l) / l`` would not be.
``_lapack`` imports scipy's LAPACK at the first multi-control
factorization, so one-control problems never load it.  No plain-float
factor replaces it for wider blocks: the host's BLAS kernels (fused
multiply-adds or not) decide its last bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import _scalar, _sym

__all__ = ["lqbp", "lbp", "check_subproblem"]

# Round-off allowance for the descent check: a stage whose cost-to-go
# offset decrement is zero up to this relative level (a zero-slope stage)
# is still solvable and must not flip between valid and invalid on the
# sign of a rounding error.
DESCENT_STRICTNESS = 1e-14


@functools.lru_cache(maxsize=None)
def _lapack():
    """LAPACK's ``(dpotrf, dpotrs)``, imported at the first call."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def check_subproblem(B, Q, q, J, j, j0: float):
    """Factor a stage's control Hessian and run the descent test.

    The control Hessian is M = Q + B'JB and the control slope m = q + B'j.
    Returns ``(factor, m, Minv_m, decrement)`` for :func:`lqbp`, where
    ``factor`` is the lower Cholesky factor of M as LAPACK's ``dpotrf``
    leaves it (a Fortran-ordered array whose upper triangle still holds M's
    entries) and ``decrement`` the cost-to-go offset decrement
    -0.5 m'M^-1 m, or None when the factorization fails or the decrement
    comes out positive beyond round-off.  A zero-slope stage (decrement
    zero, e.g. the last step of a problem started at a rest state) is
    solvable and passes; the overall descent test is the sign of the swept
    cost-to-go at time 0, which the caller owns.
    """
    M, m = Q + B.T @ J @ B, q + B.T @ j
    if len(m) == 1:  # closed form, see the module docstring
        a = M.item()
        a = 0.5 * (a + a)
        if a <= 0.0:  # dpotrf's test; a NaN block fails the descent test below
            return None
        factor = np.array([[math.sqrt(a)]])
        r = 1.0 / factor.item()
        slope = m.item()
        x = (slope * r) * r
        # x has the slope's sign: slope * x is never -0.0, so it is ddot's 0.0 + slope * x
        Minv_m, decrement = np.array([x]), -0.5 * (slope * x)
    else:
        dpotrf, dpotrs = _lapack()
        factor, info = dpotrf(_sym(M), lower=1, clean=0)
        if info:
            return None
        Minv_m = dpotrs(factor, m, lower=1)[0]
        decrement = -0.5 * float(m @ Minv_m)
    if not decrement < DESCENT_STRICTNESS * (1.0 + abs(j0)):
        return None
    return factor, m, Minv_m, decrement


def lqbp(A, B, H, R, p, J, j, j0: float, checked) -> tuple:
    """Closed-form solution of one linear-quadratic Bellman stage.

    ``checked`` is the stage's :func:`check_subproblem` result, whose
    factor, M^-1 m and decrement are reused.  Returns
    ``(J_t, j_t, j0_t, K, k)``: the cost-to-go at time t and the minimizing
    policy v = K y + k, with the gain ``K`` Fortran-ordered as ``dpotrs``
    returns it.
    """
    factor, m, Minv_m, decrement = checked
    AtJ = A.T @ J
    # Cross term between state and control of the stage-plus-to-go quadratic.
    N = R + AtJ @ B  # (n_x, n_u)
    if len(m) == 1:
        r = 1.0 / factor.item()
        Minv_NT = (N.T * r) * r
    else:
        Minv_NT = _lapack()[1](factor, N.T, lower=1)[0]
    J_t = _sym(H + AtJ @ A - N @ Minv_NT)
    j_t = p + A.T @ j - N @ Minv_m
    return J_t, j_t, j0 + decrement, -Minv_NT, -Minv_m


def lbp(A, B, p, q, j, j0: float, nu: float) -> tuple:
    """Bellman stage with linear dynamics and linear costs ridge-regularized by nu.

    The cost-to-go stays affine and the policy is a constant offset; this
    is the stage operation behind gradient back-propagation.  Returns
    ``(j_t, j0_t, k)``.
    """
    _scalar(nu, "nu", 0.0)
    g = q + B.T @ j
    return p + A.T @ j, j0 - float(g @ g) / (2.0 * nu), -g / nu
