"""Car models for racing benchmarks: kinematic simple car and dynamic bicycle.

The bicycle model follows a miniature-scale car with a DC-motor
longitudinal force and a simplified magic-formula lateral tire force
D sin(C arctan(B alpha)) in the slip angle alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import autodiff as ad
from ..core import _Params
from ..errors import DomainError

__all__ = [
    "SimpleCarParams",
    "BicycleParams",
    "simple_car_dynamics",
    "bicycle_dynamics",
    "squash_steering",
    "squash_acceleration",
]

# Squashed-control ranges: steering in (-pi/3, pi/3), acceleration command
# (PWM duty cycle for the bicycle model) in (ACCEL_LO, ACCEL_HI).
ACCEL_LO = -0.1
ACCEL_HI = 1.0


@dataclass(frozen=True)
class SimpleCarParams(_Params):
    length: float = 1.0
    v_ref: float = 3.0
    v_init: float = 1.0
    ctrl_weight: float = 1e-6
    total_time: float = 2.0

    _positive = ("length",)


@dataclass(frozen=True)
class BicycleParams(_Params):
    # motor / rolling-resistance constants
    c_m1: float = 0.287
    c_m2: float = 0.0545
    c_r0: float = 0.0518
    c_rd: float = 0.00035
    # rear and front tire curves
    b_r: float = 3.3852
    c_r: float = 1.2691
    d_r: float = 0.1737
    l_r: float = 0.033
    b_f: float = 2.579
    c_f: float = 1.2
    d_f: float = 0.192
    l_f: float = 0.029
    mass: float = 0.041
    inertia_z: float = 27.8e-6
    # cost weights
    contour_weight: float = 0.1
    lag_weight: float = 10.0
    speed_weight: float = 0.1
    border_weight: float = 100.0
    v_ref: float = 3.0
    v_init: float = 1.0
    ctrl_weight: float = 1e-6
    barrier_eps: float = 1e-6
    total_time: float = 1.0
    car_width: float = 0.06

    _positive = ("mass", "inertia_z", "l_r", "l_f", "b_r", "c_r", "d_r", "b_f", "c_f", "d_f")


_SIMPLE = SimpleCarParams()
_BICYCLE = BicycleParams()


def simple_car_dynamics(x, u, p: SimpleCarParams | None = None):
    """Kinematic car (x, y, yaw, speed) steered through the front-axle angle."""
    p = p or _SIMPLE
    theta, v = x[2], x[3]
    accel, steer = u[0], u[1]
    steer_val = ad.value(steer)
    if ad.anywhere(abs(steer_val) >= math.pi / 2):
        raise DomainError("tan", steer_val)
    return [
        v * ad.cos(theta),
        v * ad.sin(theta),
        v * ad.tan(steer) / p.length,
        accel,
    ]


def bicycle_dynamics(x, u, p: BicycleParams | None = None):
    """Dynamic bicycle model (x, y, yaw, v_x, v_y, yaw rate).

    ``u`` is (acceleration, steering), optionally followed by the cosine
    and sine of the steering, so that a multi-stage integrator step
    computes them once.  Slip angles divide by the longitudinal speed, so
    the model is only defined while the car moves forward.
    """
    p = p or _BICYCLE
    theta, vx, vy, omega = x[2], x[3], x[4], x[5]
    accel, steer = u[0], u[1]
    cos_s, sin_s = u[2:] if len(u) > 2 else (ad.cos(steer), ad.sin(steer))
    vx_val = ad.value(vx)
    if ad.anywhere(vx_val <= 0.0):
        raise DomainError("arctan2", f"longitudinal speed must stay positive, got {vx_val}")

    f_rx = (p.c_m1 - p.c_m2 * vx) * accel - p.c_r0 - p.c_rd * vx * vx
    alpha_f = steer - ad.arctan2(omega * p.l_f + vy, vx)
    alpha_r = ad.arctan2(omega * p.l_r - vy, vx)
    f_fy = p.d_f * ad.sin(p.c_f * ad.arctan(p.b_f * alpha_f))
    f_ry = p.d_r * ad.sin(p.c_r * ad.arctan(p.b_r * alpha_r))

    cos_t, sin_t = ad.cos(theta), ad.sin(theta)
    return [
        vx * cos_t - vy * sin_t,
        vx * sin_t + vy * cos_t,
        omega,
        (f_rx - f_fy * sin_s) / p.mass + vy * omega,
        (f_ry + f_fy * cos_s) / p.mass - vx * omega,
        (f_fy * p.l_f * cos_s - f_ry * p.l_r) / p.inertia_z,
    ]


def squash_steering(raw):
    """Map the real line onto the admissible steering range (-pi/3, pi/3)."""
    return (2.0 / 3.0) * ad.arctan(raw)


def squash_acceleration(raw):
    """Map the real line onto the admissible acceleration range (lo, hi)."""
    span = ACCEL_HI - ACCEL_LO
    return span * ad.sigmoid(4.0 * raw / span) + ACCEL_LO
