#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads racing,swingup,long-horizon]
                                [--seeds 1-10] [--seconds 25] [--trace 0]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for each metric the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, for the raw (unscaled) medians that
run.py prints beside them too.  It also prints, per kind of repetition,
the median over the runs of the host probe's band/gap ratio (see
hostspeed.py).  Each run's result line is appended to
perfbench/results/<workload>.jsonl.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="racing,swingup,long-horizon")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    worst = 0
    for workload in args.workloads.split(","):
        values, failed, probes = {}, [], {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                worst = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for label, ratio in re.findall(r"^probe (.+?): .* band/gap ([0-9.]+)$",
                                           proc.stdout, re.MULTILINE):
                probes.setdefault(label, []).append(float(ratio))
            with open(out_dir / f"{workload}.jsonl", "a") as fh:
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
            failed.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, raw in re.findall(r"^(\w+): .* raw median ([0-9.]+)", proc.stdout, re.MULTILINE):
                values.setdefault(f"{name} raw", []).append(float(raw))
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload} {name}: median {med:.6g} quartiles {q1:.6g} {q3:.6g} "
                  f"spread {spread:.4f}")
        for label, ratios in probes.items():
            print(f"{workload} probe {label}: band/gap median {statistics.median(ratios):.4f} "
                  f"min {min(ratios):.4f} max {max(ratios):.4f}")
        print(f"{workload} failed share per run: {sorted(set(failed))}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
