#!/usr/bin/env python3
"""Measure how backward+roll-out time and oracle memory scale with the horizon, per oracle.

Prints one row per oracle kind over a horizon sweep on one env (default
the pendulum).  Per horizon, the row gives the median wall time of the
backward pass and roll-out, then the tracemalloc peak of one whole
``oracle`` call from zero controls (forward pass included, as perfbench's
``peak_kib`` measures it).  The per-step work and storage are constant,
so both should grow linearly.  A kind whose sweep stops early at its
start ridge, as the bicycle car's do from zero controls, prints the stage
it stopped at (``stop@43``) in place of the time and the peak.
Acceptance criterion 3 bounds the ne and ddp-q peaks by 3x the gn peak;
two last rows give those ratios per horizon, ``-`` where a peak is
missing.

Usage: python scripts/horizon_scaling.py [--env pendulum] [--horizons 500,1000,2000] [--reps 10]
"""

import argparse
import gc
import statistics
import time
import tracemalloc

import numpy as np

from trajopt.envs import ENV_KINDS, build_problem
from trajopt.oracles import ORACLE_KINDS, ORACLES, forward, oracle, oracle_step


def peak_kib(problem, u, kind) -> float:
    """Tracemalloc peak of one ``oracle`` call, in KiB."""
    gc.collect()
    tracemalloc.start()
    try:
        oracle(problem, u, kind)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--env", default="pendulum", choices=ENV_KINDS)
    parser.add_argument("--horizons", default="500,1000,2000")
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args()
    horizons = [int(h) for h in args.horizons.split(",")]

    bundles = {}
    for tau in horizons:
        problem = build_problem(args.env, tau)
        u = np.zeros((tau, problem.n_u))
        for orders in {(spec.o_f, spec.o_h) for spec in ORACLES.values()}:
            bundles[(tau, orders)] = forward(problem, u, *orders)

    header = "kind    " + "".join(f"  tau={tau:<17d}" for tau in horizons)
    print(header)
    peaks = {}
    for kind in ORACLE_KINDS:
        spec = ORACLES[kind]
        cells = []
        for tau in horizons:
            bundle = bundles[(tau, (spec.o_f, spec.o_h))]
            result = oracle_step(bundle, kind, spec.start_nu)
            if not result.feasible:  # an early exit is not a backward pass and roll-out
                cells.append(f"{'stop@' + str(result.failed_stage):>21s}")
                continue
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                oracle_step(bundle, kind, spec.start_nu)
                times.append(time.perf_counter() - t0)
            peaks[kind, tau] = peak = peak_kib(bundle.problem, bundle.u, kind)
            cells.append(f"{statistics.median(times) * 1e3:8.1f}ms {peak:9.1f}KiB")
        print(f"{kind:8s}" + "  ".join(cells))
    for kind in ("ne", "ddp-q"):  # criterion 3: each at most 3
        ratios = [f"{peaks[kind, tau] / peaks['gn', tau]:8.2f}"
                  if {(kind, tau), ("gn", tau)} <= peaks.keys() else f"{'-':>8s}" for tau in horizons]
        print(f"{kind + '/gn':8s}" + "  ".join(ratio + " " * 13 for ratio in ratios))


if __name__ == "__main__":
    main()
