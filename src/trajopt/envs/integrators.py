"""Fixed-step integrators over generic-scalar continuous dynamics.

All three schemes operate entry-wise on sequences of scalar-like values so
they compose with the derivative engine.  Controls are held constant over
a step except for the varying-control Runge-Kutta variant, which reads a
triple of control blocks and feeds them to the stages.
"""

from __future__ import annotations

from ..errors import ParameterError

__all__ = ["euler_step", "rk4_step", "rk4_varying_step"]


def _shift(z, k, h):
    return [zi + h * ki for zi, ki in zip(z, k)]


def euler_step(f_cont, z, u, dt: float):
    """z + dt * f(z, u)."""
    if dt <= 0.0:
        raise ParameterError(f"step size must be > 0, got {dt}")
    dz = f_cont(z, u)
    return [zi + dt * di for zi, di in zip(z, dz)]


def _rk4(f_cont, z, v0, v_mid, v_end, dt: float):
    """Fourth-order step whose first, midpoint and last stages see v0, v_mid and v_end."""
    if dt <= 0.0:
        raise ParameterError(f"step size must be > 0, got {dt}")
    k1 = f_cont(z, v0)
    k2 = f_cont(_shift(z, k1, dt / 2.0), v_mid)
    k3 = f_cont(_shift(z, k2, dt / 2.0), v_mid)
    k4 = f_cont(_shift(z, k3, dt), v_end)
    w = dt / 6.0
    return [
        zi + w * (a + 2.0 * b + 2.0 * c + d)
        for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
    ]


def rk4_step(f_cont, z, u, dt: float):
    """Classical fourth-order Runge-Kutta step with piecewise-constant control."""
    return _rk4(f_cont, z, u, u, u, dt)


def rk4_varying_step(f_cont, z, u_triplet, dt: float):
    """Fourth-order step whose stages see different control blocks.

    ``u_triplet`` concatenates three control blocks (v, v_mid, v_end); the
    first stage uses v, the two midpoint stages v_mid and the last stage
    v_end.
    """
    if len(u_triplet) % 3 != 0:
        raise ParameterError(
            f"varying-control step needs 3 stacked control blocks, got size {len(u_triplet)}"
        )
    m = len(u_triplet) // 3
    return _rk4(f_cont, z, u_triplet[:m], u_triplet[m : 2 * m], u_triplet[2 * m :], dt)
