#!/usr/bin/env python3
"""Measure how backward+roll-out time scales with the horizon, per oracle.

Prints one row per oracle kind with median wall times over a horizon
sweep on the pendulum; the per-step work is constant, so times should
grow linearly.

Usage: python scripts/horizon_scaling.py [--horizons 500,1000,2000] [--reps 10]
"""

import argparse
import statistics
import time

import numpy as np

from trajopt.envs import build_problem
from trajopt.oracles import ORACLE_KINDS, ORACLES, forward, oracle_step


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizons", default="500,1000,2000")
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args()
    horizons = [int(h) for h in args.horizons.split(",")]

    bundles = {}
    for tau in horizons:
        problem = build_problem("pendulum", tau)
        u = np.zeros((tau, 1))
        for orders in {(spec.o_f, spec.o_h) for spec in ORACLES.values()}:
            bundles[(tau, orders)] = forward(problem, u, *orders)

    header = "kind    " + "".join(f"  tau={tau:<6d}" for tau in horizons)
    print(header)
    for kind in ORACLE_KINDS:
        spec = ORACLES[kind]
        cells = []
        for tau in horizons:
            bundle = bundles[(tau, (spec.o_f, spec.o_h))]
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                oracle_step(bundle, kind, spec.start_nu)
                times.append(time.perf_counter() - t0)
            cells.append(f"{statistics.median(times) * 1e3:8.1f}ms")
        print(f"{kind:8s}" + "  ".join(cells))


if __name__ == "__main__":
    main()
