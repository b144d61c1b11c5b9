#!/usr/bin/env python3
"""Print a hash per bundled track, then two per problem: its oracle computations and short solves.

A track's hash covers the shape, dtype and bytes of its spline
coefficients ``x_coeffs`` and ``y_coeffs``, so the gate sees track build
directly and not only through the car problems built on the tracks.

A cell is one env under one discretizer it allows, at horizon 7 or 30 and
seed 0 or 1.  Its first hash covers, from the seeded controls
``trajopt.cli.initial_controls`` draws and from zero controls:

- every ``ExpansionBundle`` field at derivative orders (1, 1), (1, 2) and
  (2, 2), and the bundle's ``bundle_gradient``;
- every ``OracleDirection`` field (``feasible``, ``failed_stage``,
  ``c0_zero``, ``K``, ``k``, ``direction``) of each oracle kind at its
  default ridge, 1 and 100.

Its second hash gates the line-search layer: one ``solve`` per search
setting in ``SEARCHES``, oracle kind and step rule from the seeded
controls, stopped after at most ``SOLVE_ITERS`` iterations.  It covers the
status, the iteration count, every ``TraceRow`` field but ``time_ms`` and
the final controls.  At the default backtracking factor 0.5 every
directional stepsize is a power of two, so the linearized kinds scale one
unit roll-out; 0.3 makes their trials roll out one by one.  Under the
regularized rule the same two factors sweep ladders of 5 and 3 ridges as
the lanes of one backward pass.  The third setting raises the smallest
stepsize to 0.1, which cuts ladders short, and searches stall, with and
without a decrease, under both rules.

Arrays enter as their shape, dtype and bytes, so two checkouts that print
the same lines compute the same derivatives, oracle directions and
iterates bit for bit.  A bundle's dynamics curvature enters over every
pair, (horizon, n_x, m(m+1)/2): the pairs it stores at their positions
``curvature_pairs`` and +0.0 in the others, so bundles that store fewer
pairs hash as bundles that store them all.  A forward pass, oracle or
solve that raises a numeric, shape or parameter error enters as the
error's family and, where it names one, its stage ``t``, not its message.

Usage: python scripts/oracle_hashes.py [env ...]   (default: every env; the
track lines are always printed)
"""

import argparse
import dataclasses
import hashlib
import itertools
import sys

import numpy as np

from trajopt.cli import initial_controls
from trajopt.envs import bundled_track
from trajopt.envs.build import ENV_DISCRETIZERS, ENV_KINDS, build_problem
from trajopt.errors import NumericError, ParameterError, ShapeError
from trajopt.linesearch import STEP_RULES, LineSearchConfig, StopCriteria, solve
from trajopt.oracles import ORACLE_KINDS, ORACLES, bundle_gradient, forward, oracle_step

HORIZONS = (7, 30)
SEEDS = (0, 1)
RIDGES = (None, 1.0, 100.0)  # None: the kind's start_nu
ORDERS = ((1, 1), (1, 2), (2, 2))
SOLVE_ITERS = 10
SEARCHES = ({"rho_dec": 0.5}, {"rho_dec": 0.3}, {"rho_dec": 0.5, "gamma_min": 0.1})
TRACKS = ("simple", "complex")
FAMILIES = (NumericError, ShapeError, ParameterError)


def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(f"{value.shape}{value.dtype}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(digest, item)
    else:
        digest.update(repr(value).encode())


def _feed_fields(digest, record, skip=()) -> None:
    for field in dataclasses.fields(record):
        if field.name not in skip:
            digest.update(field.name.encode())
            _feed(digest, getattr(record, field.name))


def _feed_bundle(digest, bundle) -> None:
    """Every bundle field but the problem, the curvature over every pair."""
    stored = getattr(bundle, "curvature_pairs", None)  # None: every pair is stored
    for field in dataclasses.fields(bundle):
        if field.name in ("problem", "curvature_pairs"):
            continue
        value = getattr(bundle, field.name)
        if field.name == "curvature" and stored is not None:
            m = bundle.problem.n_x + bundle.problem.n_u
            value = np.zeros(value.shape[:2] + (m * (m + 1) // 2,))
            value[..., stored] = bundle.curvature
        digest.update(field.name.encode())
        _feed(digest, value)


def _error(err) -> str:
    """A raised error as its family and, where it names one, its stage."""
    family = next(cls for cls in FAMILIES if isinstance(err, cls))
    return f"{family.__name__} t={getattr(err, 't', None)}"


def track_hash(name: str) -> str:
    digest = hashlib.sha256()
    track = bundled_track(name)
    _feed(digest, (track.x_coeffs, track.y_coeffs))
    return digest.hexdigest()


def cell_hash(problem, u) -> str:
    digest = hashlib.sha256()
    for controls in (u, np.zeros_like(u)):
        bundles = {}
        for o_f, o_h in ORDERS:
            try:
                bundles[o_f, o_h] = forward(problem, controls, o_f, o_h)
            except FAMILIES as err:
                _feed(digest, f"forward({o_f}, {o_h}) {_error(err)}")
                continue
            _feed_bundle(digest, bundles[o_f, o_h])
            _feed(digest, bundle_gradient(bundles[o_f, o_h]))
        for kind in ORACLE_KINDS:
            spec = ORACLES[kind]
            bundle = bundles.get((spec.o_f, spec.o_h))
            if bundle is None:
                continue
            for nu in RIDGES:
                try:
                    step = oracle_step(bundle, kind, spec.start_nu if nu is None else nu)
                except FAMILIES as err:
                    _feed(digest, f"{kind} nu={nu} {_error(err)}")
                    continue
                _feed_fields(digest, step)
    return digest.hexdigest()


def solve_hash(problem, u) -> str:
    digest = hashlib.sha256()
    for search, kind, rule in itertools.product(SEARCHES, ORACLE_KINDS, STEP_RULES):
        try:
            u_end, trace = solve(problem, u, kind, LineSearchConfig(rule=rule, **search),
                                 StopCriteria(max_iters=SOLVE_ITERS))
        except FAMILIES as err:
            _feed(digest, f"{search} {kind} {rule} {_error(err)}")
            continue
        _feed(digest, (trace.status, trace.iterations))
        for row in trace.rows:
            _feed_fields(digest, row, skip=("time_ms",))
        _feed(digest, u_end)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("envs", nargs="*", metavar="env", help=f"any of {', '.join(ENV_KINDS)}")
    args = parser.parse_args()
    unknown = sorted(set(args.envs) - set(ENV_KINDS))
    if unknown:
        parser.error(f"unknown env {unknown[0]!r}; expected any of {', '.join(ENV_KINDS)}")
    for name in TRACKS:
        print(f"track/{name} {track_hash(name)}", flush=True)
    for env in args.envs or ENV_KINDS:
        for scheme in ENV_DISCRETIZERS[env]:
            for horizon in HORIZONS:
                problem = build_problem(env, horizon, scheme)
                for seed in SEEDS:
                    u = initial_controls(problem, seed)
                    print(f"{env}/{scheme}/h{horizon}/seed{seed} {cell_hash(problem, u)} "
                          f"{solve_hash(problem, u)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
