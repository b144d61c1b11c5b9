"""Assembly of the benchmark control problems from models, costs and tracks."""

from __future__ import annotations

import math
import numbers
from types import MappingProxyType

from .. import autodiff as ad
from ..core import TrajectoryProblem
from ..errors import ConfigError, ParameterError
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
from .pendulum import PendulumParams, pendulum_cost, pendulum_dynamics
from .track import Track, bundled_track, contouring_errors, border_cost, track_eval

__all__ = ["ENV_KINDS", "ENV_DISCRETIZERS", "DISCRETIZERS", "env_discretizer", "build_problem"]

# Each env and the discretizers it allows, its default first.  The bicycle
# model augments its state with the curve parameter; that pair integrates
# with a plain Euler rule regardless of the physical scheme, so the
# varying-control stencil has no consistent meaning for it.
ENV_DISCRETIZERS = MappingProxyType({
    "pendulum": ("euler", "rk4", "rk4-varying"),
    "cartpole": ("euler", "rk4", "rk4-varying"),
    "simple-car": ("euler", "rk4", "rk4-varying"),
    "bicycle-car": ("rk4", "euler"),
})
ENV_KINDS = tuple(ENV_DISCRETIZERS)

# scheme -> (step function, control blocks per stage)
_SCHEMES = {
    "euler": (euler_step, 1),
    "rk4": (rk4_step, 1),
    "rk4-varying": (rk4_varying_step, 3),
}
DISCRETIZERS = tuple(_SCHEMES)


def env_discretizer(env: str, discretizer: str | None = None) -> str:
    """``discretizer``, or env's default when it is empty; ``ConfigError`` if env disallows it."""
    allowed = ENV_DISCRETIZERS[env]
    scheme = discretizer or allowed[0]
    if scheme not in allowed:
        raise ConfigError("discretizer", f"got {scheme!r}, {env} allows one of {allowed}")
    return scheme


def _discretize(f_cont, scheme: str, dt: float):
    step = _SCHEMES[scheme][0]
    return lambda z, u: step(f_cont, z, u, dt)


def _step_size(p, horizon: int) -> float:
    dt = p.total_time / horizon
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"total_time / horizon must be finite and positive, got {dt}")
    return dt


def build_problem(
    env: str,
    horizon: int,
    discretizer: str | None = None,
    track: Track | None = None,
    params=None,
) -> TrajectoryProblem:
    """Build one of the four benchmark problems at the given horizon.

    The discretizer defaults to the env's first entry in
    :data:`ENV_DISCRETIZERS`.  The step size is the model's total time
    divided by the horizon; a step size that is not finite and positive
    raises ``ParameterError``.  Car problems default to the bundled
    'simple' track.  The returned problem carries build metadata (params,
    track, step size) in ``meta``.
    """
    if env not in ENV_KINDS:
        raise ConfigError("env", f"unknown environment {env!r}; expected one of {ENV_KINDS}")
    if not isinstance(horizon, numbers.Integral) or horizon < 1:
        raise ConfigError("horizon", f"must be an integer >= 1, got {horizon!r}")
    scheme = env_discretizer(env, discretizer)

    if env == "pendulum":
        return _build_pendulum(horizon, scheme, params or PendulumParams())
    if env == "cartpole":
        return _build_cartpole(horizon, scheme, params or CartPoleParams())
    track = track or bundled_track("simple")
    if env == "simple-car":
        return _build_simple_car(horizon, scheme, track, params or SimpleCarParams())
    return _build_bicycle(horizon, scheme, track, params or BicycleParams())


def _build_pendulum(horizon, scheme, p: PendulumParams) -> TrajectoryProblem:
    dt = _step_size(p, horizon)
    f = _discretize(lambda z, u: pendulum_dynamics(z, u, p), scheme, dt)
    # the running cost reads t only to tell it from the final cost, so one
    # callable serves every stage and its expansion runs in blocks
    running = lambda x, u: pendulum_cost(0, x, u, horizon, p)
    return TrajectoryProblem(
        dynamics=(f,) * horizon,
        running_costs=(running,) * horizon,
        final_cost=lambda x: pendulum_cost(horizon, x, (), horizon, p),
        x0=[0.0, 0.0],
        n_x=2,
        n_u=1 * _SCHEMES[scheme][1],
        meta={"env": "pendulum", "params": p, "dt": dt, "discretizer": scheme},
    )


def _build_cartpole(horizon, scheme, p: CartPoleParams) -> TrajectoryProblem:
    dt = _step_size(p, horizon)
    tbar = stay_put_start(horizon, p)
    f = _discretize(lambda z, u: cartpole_dynamics(z, u, p), scheme, dt)
    # the running cost takes two forms, split at tbar: one callable each
    early = lambda x, u: cartpole_cost(0, x, u, horizon, tbar, p)
    late = lambda x, u: cartpole_cost(horizon - 1, x, u, horizon, tbar, p)
    costs = tuple(late if t >= tbar else early for t in range(horizon))
    return TrajectoryProblem(
        dynamics=(f,) * horizon,
        running_costs=costs,
        final_cost=lambda x: cartpole_cost(horizon, x, (), horizon, tbar, p),
        x0=[0.0, 0.0, 0.0, 0.0],
        n_x=4,
        n_u=1 * _SCHEMES[scheme][1],
        meta={"env": "cartpole", "params": p, "dt": dt, "discretizer": scheme,
              "stay_put_from": tbar},
    )


def _start_pose(track: Track):
    pt = track_eval(track, 0.0)
    return float(pt.x), float(pt.y), float(pt.theta)


def _build_simple_car(horizon, scheme, track: Track, p: SimpleCarParams) -> TrajectoryProblem:
    dt = _step_size(p, horizon)

    def f_cont(z, u):
        # steering squashed into (-pi/3, pi/3); acceleration unconstrained
        return simple_car_dynamics(z, (u[0], squash_steering(u[1])), p)

    f = _discretize(f_cont, scheme, dt)

    refs = [track_eval(track, dt * p.v_ref * t) for t in range(horizon + 1)]

    def tracking(x, t):
        ex, ey = x[0] - float(refs[t].x), x[1] - float(refs[t].y)
        return ex * ex + ey * ey

    def running(x, u, t):
        acc = tracking(x, t) if t >= 1 else 0.0
        for uk in u:
            acc = acc + p.ctrl_weight * uk * uk
        return acc

    x0, y0, th0 = _start_pose(track)
    return TrajectoryProblem(
        dynamics=(f,) * horizon,
        running_costs=tuple((lambda x, u, t=t: running(x, u, t)) for t in range(horizon)),
        final_cost=lambda x: tracking(x, horizon),
        x0=[x0, y0, th0, p.v_init],
        n_x=4,
        n_u=2 * _SCHEMES[scheme][1],
        meta={"env": "simple-car", "params": p, "dt": dt, "discretizer": scheme,
              "track": track},
    )


def _build_bicycle(horizon, scheme, track: Track, p: BicycleParams) -> TrajectoryProblem:
    """Bicycle model with contouring costs.

    The state carries the curve parameter and its rate (s, s_rate) next to
    the six physical coordinates; a control component drives the rate so
    the reference point races along with the car.  The physical state
    integrates with the configured scheme while the curve pair uses a
    plain Euler update.
    """
    dt = _step_size(p, horizon)
    phys_step = _discretize(lambda z, u: bicycle_dynamics(z, u, p), scheme, dt)

    def f(x, u):
        phys, s, s_rate = x[:6], x[6], x[7]
        steer = squash_steering(u[1])
        accel = squash_acceleration(u[0])
        nxt = phys_step(phys, (accel, steer))
        return list(nxt) + [s + dt * s_rate, s_rate + dt * u[2]]

    def stage_cost(x, u):
        s_rate = x[7]
        pt = track_eval(track, x[6])
        e_c, e_l = contouring_errors(pt, x[0], x[1])
        dv = s_rate - p.v_ref
        acc = (
            p.contour_weight * e_c * e_c
            + p.lag_weight * e_l * e_l
            + p.speed_weight * dv * dv
            - p.barrier_eps * ad.log(s_rate)
            + p.border_weight * border_cost(track, pt, x[0], x[1], p.car_width)
        )
        for uk in u:
            acc = acc + p.ctrl_weight * uk * uk
        return acc

    x0, y0, th0 = _start_pose(track)
    return TrajectoryProblem(
        dynamics=(f,) * horizon,
        running_costs=(stage_cost,) * horizon,
        final_cost=lambda x: 0.0 * x[0],
        x0=[x0, y0, th0, p.v_init, 0.0, 0.0, 0.0, p.v_ref],
        n_x=8,
        n_u=3,
        meta={"env": "bicycle-car", "params": p, "dt": dt, "discretizer": scheme,
              "track": track},
    )
