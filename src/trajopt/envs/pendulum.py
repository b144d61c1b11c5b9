"""Torque-driven pendulum swing-up."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import autodiff as ad
from ..core import _Params

__all__ = ["PendulumParams", "pendulum_dynamics", "pendulum_cost"]


@dataclass(frozen=True)
class PendulumParams(_Params):
    """Benchmark constants.

    The torque penalty is nearly free while the terminal speed penalty is
    not; with these weights the optimal trajectory genuinely swings the
    pendulum up instead of staying near the hanging state.
    """

    mass: float = 1.0
    gravity: float = 10.0
    length: float = 1.0
    friction: float = 0.01
    ctrl_weight: float = 1e-6
    speed_weight: float = 0.1
    total_time: float = 2.0

    _positive = ("mass", "length")
    _non_negative = ("friction", "ctrl_weight", "speed_weight")


_DEFAULT = PendulumParams()


def pendulum_dynamics(x, u, p: PendulumParams | None = None):
    """Continuous dynamics of (angle, angular speed) under a torque input."""
    p = p or _DEFAULT
    theta, omega = x[0], x[1]
    ml2 = p.mass * p.length * p.length
    acc = -(p.gravity / p.length) * ad.sin(theta) - (p.friction / ml2) * omega + u[0] / ml2
    return [omega, acc]


def pendulum_cost(t: int, x, u, horizon: int, p: PendulumParams | None = None):
    """Torque penalty while running; upright-and-still penalty at the end."""
    p = p or _DEFAULT
    if t < horizon:
        acc = 0.0
        for uk in u:
            acc = acc + p.ctrl_weight * uk * uk
        return acc
    dev = math.pi - x[0]
    return dev * dev + p.speed_weight * x[1] * x[1]


def pendulum_energy(x, p: PendulumParams | None = None) -> float:
    """Mechanical energy, zero at the hanging rest state (test support)."""
    p = p or _DEFAULT
    theta, omega = float(x[0]), float(x[1])
    kinetic = 0.5 * p.mass * p.length**2 * omega**2
    potential = p.mass * p.gravity * p.length * (1.0 - math.cos(theta))
    return kinetic + potential
