#!/usr/bin/env python3
"""Run the full benchmark grid behind the convergence figures.

Covers every environment under each discretizer it allows, with all
applicable algorithms and both step rules at two horizons each.  Traces
and the summary of each env and discretizer land in their own directory
``outdir/<env>/<discretizer>``; plot log(rel_subopt) over iter or time_ms
from the CSVs.

Usage: python scripts/run_benchmarks.py [outdir] [--parallel N] [--quick]
"""

import argparse
import sys

from trajopt.cli import main as cli_main
from trajopt.envs.build import ENV_DISCRETIZERS
from trajopt.linesearch import STEP_RULES
from trajopt.oracles import ORACLE_KINDS

ALL_ALGOS = ",".join(ORACLE_KINDS)
GRID = [
    # env, algos, horizons, iters
    ("pendulum", ALL_ALGOS, "50,100", 200),
    ("cartpole", ALL_ALGOS, "25,50", 200),
    ("simple-car", ALL_ALGOS, "25,50", 200),
    # gradient steps are numerically unstable on the tire-force model
    ("bicycle-car", ",".join(kind for kind in ORACLE_KINDS if kind != "gd"), "30,50", 150),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="benchmark_results")
    parser.add_argument("--parallel", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="smaller horizons and budgets for a smoke run")
    args = parser.parse_args()

    worst = 0
    for env, algos, horizons, iters in GRID:
        if args.quick:
            horizons = horizons.split(",")[0]
            iters = min(iters, 40)
        for scheme in ENV_DISCRETIZERS[env]:
            code = cli_main([
                "benchmark", "--env", env, "--algo", algos,
                "--linesearch", ",".join(STEP_RULES),
                "--horizon", horizons, "--max-iters", str(iters), "--discretizer", scheme,
                # one directory per env and discretizer: the cell names omit the
                # discretizer, and each grid keeps its own summary.csv
                "--out", f"{args.outdir}/{env}/{scheme}", "--parallel", str(args.parallel),
            ])
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
