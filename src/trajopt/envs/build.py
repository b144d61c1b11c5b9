"""Assembly of the benchmark control problems from models, costs and tracks."""

from __future__ import annotations

from types import MappingProxyType

from .. import autodiff as ad
from ..core import TrajectoryProblem, _scalar
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

# scheme -> (step function, control blocks per stage)
_SCHEMES = {
    "euler": (euler_step, 1),
    "rk4": (rk4_step, 1),
    "rk4-varying": (rk4_varying_step, 3),
}
DISCRETIZERS = tuple(_SCHEMES)


# Each builder takes (horizon, params, step size, discretize, track or None)
# and returns what differs between the envs: the dynamics callable of every
# stage, the running costs, the final cost, x0, the controls per block and
# extra meta.  ``discretize`` makes a vector field the configured stage map.


def _pendulum(horizon, p: PendulumParams, dt, discretize, track):
    f = discretize(lambda z, u: pendulum_dynamics(z, u, p))
    # the running cost reads t only to tell it from the final cost, so one
    # callable serves every stage and its expansion runs in blocks
    running = lambda x, u: pendulum_cost(0, x, u, horizon, p)
    final = lambda x: pendulum_cost(horizon, x, (), horizon, p)
    return f, (running,) * horizon, final, [0.0, 0.0], 1, {}


def _cartpole(horizon, p: CartPoleParams, dt, discretize, track):
    tbar = stay_put_start(horizon, p)
    f = discretize(lambda z, u: cartpole_dynamics(z, u, p))
    # the running cost takes two forms, split at tbar: one callable each
    early = lambda x, u: cartpole_cost(0, x, u, horizon, tbar, p)
    late = lambda x, u: cartpole_cost(horizon - 1, x, u, horizon, tbar, p)
    costs = tuple(late if t >= tbar else early for t in range(horizon))
    final = lambda x: cartpole_cost(horizon, x, (), horizon, tbar, p)
    return f, costs, final, [0.0, 0.0, 0.0, 0.0], 1, {"stay_put_from": tbar}


def _on_track(track: Track | None):
    """The track (the bundled 'simple' one if None) and the start pose on it."""
    track = track or bundled_track("simple")
    pt = track_eval(track, 0.0)
    return track, [float(pt.x), float(pt.y), float(pt.theta)]


def _simple_car(horizon, p: SimpleCarParams, dt, discretize, track):
    track, pose = _on_track(track)

    def f_cont(z, u):
        # steering squashed into (-pi/3, pi/3); acceleration unconstrained
        return simple_car_dynamics(z, (u[0], squash_steering(u[1])), p)

    refs = [track_eval(track, dt * p.v_ref * t) for t in range(horizon + 1)]

    def tracking(x, t):
        ex, ey = x[0] - float(refs[t].x), x[1] - float(refs[t].y)
        return ex * ex + ey * ey

    def running(x, u, t):
        acc = tracking(x, t) if t >= 1 else 0.0
        for uk in u:
            acc = acc + p.ctrl_weight * uk * uk
        return acc

    costs = tuple((lambda x, u, t=t: running(x, u, t)) for t in range(horizon))
    final = lambda x: tracking(x, horizon)
    return discretize(f_cont), costs, final, pose + [p.v_init], 2, {"track": track}


def _bicycle(horizon, p: BicycleParams, dt, discretize, track):
    """Bicycle model with contouring costs.

    The state carries the curve parameter and its rate (s, s_rate) next to
    the six physical coordinates; a control component drives the rate so
    the reference point races along with the car.  The physical state
    integrates with the configured scheme while the curve pair uses a
    plain Euler update.
    """
    track, pose = _on_track(track)
    phys_step = discretize(lambda z, u: bicycle_dynamics(z, u, p))

    def f(x, u):
        phys, s, s_rate = x[:6], x[6], x[7]
        steer = squash_steering(u[1])
        accel = squash_acceleration(u[0])
        # the steering's cosine and sine, once per step for all of its stages
        nxt = phys_step(phys, (accel, steer, ad.cos(steer), ad.sin(steer)))
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

    x0 = pose + [p.v_init, 0.0, 0.0, 0.0, p.v_ref]
    return f, (stage_cost,) * horizon, lambda x: 0.0 * x[0], x0, 3, {"track": track}


# env -> (discretizers it allows, default first; params class; builder)
_ENVS = {
    "pendulum": (("euler", "rk4", "rk4-varying"), PendulumParams, _pendulum),
    "cartpole": (("euler", "rk4", "rk4-varying"), CartPoleParams, _cartpole),
    "simple-car": (("euler", "rk4", "rk4-varying"), SimpleCarParams, _simple_car),
    # the curve pair (s, s_rate) integrates with a plain Euler rule whatever
    # the physical scheme, so the varying-control stencil has no consistent
    # meaning for it
    "bicycle-car": (("rk4", "euler"), BicycleParams, _bicycle),
}
ENV_DISCRETIZERS = MappingProxyType({env: row[0] for env, row in _ENVS.items()})
ENV_KINDS = tuple(_ENVS)


def env_discretizer(env: str, discretizer: str | None = None) -> str:
    """``discretizer``, or env's default when it is empty; ``ConfigError`` if env disallows it."""
    if env not in ENV_KINDS:
        raise ConfigError("env", f"unknown environment {env!r}; expected one of {ENV_KINDS}")
    allowed = ENV_DISCRETIZERS[env]
    scheme = discretizer or allowed[0]
    if scheme not in allowed:
        raise ConfigError("discretizer", f"got {scheme!r}, {env} allows one of {allowed}")
    return scheme


def build_problem(
    env: str,
    horizon: int,
    discretizer: str | None = None,
    track: Track | None = None,
    params=None,
) -> TrajectoryProblem:
    """Build one of the four benchmark problems at the given horizon.

    The discretizer defaults to the env's first entry in
    :data:`ENV_DISCRETIZERS`.  ``params`` defaults to the env's params
    class; an instance of another class raises ``ParameterError``, as do
    a ``track`` that is not a :class:`Track` and a step size (the model's
    total time divided by the horizon) that is not finite and positive.
    Car problems default to the bundled 'simple' track.  The returned
    problem carries build metadata (params, track, step size) in ``meta``.
    """
    scheme = env_discretizer(env, discretizer)
    _scalar(horizon, "horizon", 1, ends="[)", integer=True, error=ConfigError)
    _, params_type, build = _ENVS[env]
    p = params_type() if params is None else params
    if not isinstance(p, params_type):
        raise ParameterError(f"{env} takes {params_type.__name__}, got {type(p).__name__}")
    if track is not None and not isinstance(track, Track):
        raise ParameterError(f"track must be a Track, got {type(track).__name__}")
    dt = p.total_time / horizon
    _scalar(dt, "total_time / horizon", 0.0)
    step, blocks = _SCHEMES[scheme]
    f, costs, final, x0, n_u, meta = build(
        horizon, p, dt, lambda f_cont: (lambda z, u: step(f_cont, z, u, dt)), track
    )
    return TrajectoryProblem(
        dynamics=(f,) * horizon,
        running_costs=costs,
        final_cost=final,
        x0=x0,
        n_x=len(x0),
        n_u=n_u * blocks,
        meta={"env": env, "params": p, "dt": dt, "discretizer": scheme, **meta},
    )
