"""Pendulum on a cart: swing the pole to the inverted position and hold it."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import autodiff as ad
from ..core import _Params
from ..errors import ParameterError

__all__ = ["CartPoleParams", "cartpole_dynamics", "cartpole_cost"]

HINGE_SHARPNESS = 0.01


@dataclass(frozen=True)
class CartPoleParams(_Params):
    pole_mass: float = 0.2
    cart_mass: float = 0.5
    friction: float = 0.1
    inertia: float = 0.006
    length: float = 0.3
    gravity: float = 9.81
    speed_weight: float = 0.1
    barrier_weight: float = 1.0
    ctrl_weight: float = 1e-6
    total_time: float = 2.5
    cart_limit_hi: float = 2.0
    cart_limit_lo: float = -2.0
    stay_put_window: float = 0.6

    def __post_init__(self):
        super().__post_init__()
        # the mass matrix determinant stays positive for all angles as long
        # as the rod has its own moment of inertia
        det_floor = (self.cart_mass + self.pole_mass) * self.inertia
        if det_floor <= 0:
            raise ParameterError("masses and inertia must keep the mass matrix invertible")


_DEFAULT = CartPoleParams()


def cartpole_dynamics(x, u, p: CartPoleParams | None = None):
    """Continuous dynamics of (cart position, pole angle, their rates).

    The coupled accelerations come from inverting the 2x2 mass matrix
    [[M+m, ml cos], [ml cos, I+ml^2]] against the force terms.
    """
    p = p or _DEFAULT
    z, theta, zdot, omega = x[0], x[1], x[2], x[3]
    m, M, l = p.pole_mass, p.cart_mass, p.length
    cos_t, sin_t = ad.cos(theta), ad.sin(theta)
    m11 = M + m
    m12 = m * l * cos_t
    m22 = p.inertia + m * l * l
    det = m11 * m22 - m12 * m12
    r1 = -p.friction * zdot + m * l * omega * omega * sin_t + u[0]
    r2 = -m * p.gravity * l * sin_t
    acc_z = (m22 * r1 - m12 * r2) / det
    acc_t = (m11 * r2 - m12 * r1) / det
    return [zdot, omega, acc_z, acc_t]


def cartpole_cost(t: int, x, u, horizon: int, stay_put_from: int,
                  p: CartPoleParams | None = None):
    """Cart-position barrier and torque penalty; inverted-pole penalty from
    ``stay_put_from`` onward.

    The barrier hinges are smooth approximations of max(., 0) so the cost
    stays twice differentiable.
    """
    p = p or _DEFAULT
    z, theta, omega = x[0], x[1], x[3]
    acc = p.barrier_weight * (
        ad.smoothmax(z - p.cart_limit_hi, HINGE_SHARPNESS)
        + ad.smoothmax(p.cart_limit_lo - z, HINGE_SHARPNESS)
    )
    if t < horizon:
        for uk in u:
            acc = acc + p.ctrl_weight * uk * uk
    if t >= stay_put_from:
        dev = theta + math.pi
        acc = acc + dev * dev + p.speed_weight * omega * omega
    return acc


def stay_put_start(horizon: int, p: CartPoleParams | None = None) -> int:
    """First step at which the pole must already be inverted and still."""
    p = p or _DEFAULT
    dt = p.total_time / horizon
    # guard against 0.6/0.1 rounding down to 5 in floating point
    return horizon - int(math.floor(p.stay_put_window / dt + 1e-9))
