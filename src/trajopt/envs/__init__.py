"""Benchmark systems, discretizers, tracks and racing cost machinery."""

from .build import DISCRETIZERS, ENV_DISCRETIZERS, ENV_KINDS, build_problem
from .cars import (
    BicycleParams,
    SimpleCarParams,
    bicycle_dynamics,
    simple_car_dynamics,
    squash_acceleration,
    squash_steering,
)
from .cartpole import CartPoleParams, cartpole_cost, cartpole_dynamics, stay_put_start
from .integrators import euler_step, rk4_step, rk4_varying_step
from .pendulum import PendulumParams, pendulum_cost, pendulum_dynamics, pendulum_energy
from .track import (
    Track,
    TrackPoint,
    border_cost,
    bundled_track,
    contouring_errors,
    track_build,
    track_eval,
    track_loads,
)
