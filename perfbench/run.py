#!/usr/bin/env python3
"""Solver benchmark: one workload per invocation, every result checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload racing --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``solve_s``,
``oracle_ms``, ``peak_kib``); ``--trace 1`` runs the same solve traced and
untraced and prints the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times are nominal: work time scaled to a fixed host speed
by a probe sampled during each repetition (see hostspeed.py and
perfbench/README.md).
"""

import os

# One process, one thread: pin the BLAS pools before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5  # timed fresh interpreters per run, after one untimed one
ORACLE_REPS_PER_ROUND = 2
MIN_ROUNDS = 2


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "trajopt" / "__init__.py").is_file():
    _fail(f"no trajopt package under {SRC}; run from the root of a trajopt checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import trajopt  # noqa: E402
from trajopt import LineSearchConfig, StopCriteria  # noqa: E402
from trajopt.envs import build_problem  # noqa: E402

import checks  # noqa: E402
from hostspeed import HostSampler  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import ORACLE_NU, WORKLOADS, initial_controls  # noqa: E402

if Path(trajopt.__file__).resolve().parent != SRC / "trajopt":
    _fail(f"imported trajopt from {trajopt.__file__}, not from {SRC}")


class Tally:
    """Operations attempted and failed; each failure is printed with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, verdicts: dict) -> bool:
        self.attempted += 1
        bad = [name for name, ok in verdicts.items() if not ok]
        if bad:
            self.failed += 1
            print(f"FAILED {what}: {', '.join(bad)}")
        return not bad

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {what}: raised")
        traceback.print_exc()


def measure_setup(w, tally: Tally) -> list:
    """(nominal import s, nominal build s) per timed fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with compiled bytecode
    env_name, horizon, disc = w.build_args()
    cmd = [sys.executable, str(HERE / "setup_child.py"), env_name, str(horizon), disc or ""]
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and Path(out["file"]).resolve().parent == SRC / "trajopt"
        except (IndexError, ValueError, KeyError):
            ok = False
        if not tally.record(f"setup interpreter {i}", {"child-ok": ok}):
            print(proc.stderr, file=sys.stderr)
        elif i > 0:  # the first interpreter compiles bytecode and is not timed
            samples.append((out["import_s"], out["build_s"]))
    return samples


class Cell:
    """The workload's problem, inputs and solver settings, and its checks."""

    def __init__(self, w, seed: int):
        self.w = w
        self.problem = build_problem(*w.build_args())
        shape = (self.problem.horizon, self.problem.n_u)
        self.u_solve = initial_controls(*shape, seed if w.solve_seed is None else w.solve_seed)
        self.u_oracle = initial_controls(*shape, seed)
        self.cfg = LineSearchConfig(rule=w.rule)
        self.stop = StopCriteria(max_iters=w.max_iters)
        self.first = None  # (u, trace) of the first solve, for the repeat check

    def solve(self):
        return trajopt.solve(self.problem, self.u_solve, self.w.kind, self.cfg, self.stop)

    def oracle(self):
        return trajopt.oracle(self.problem, self.u_oracle, self.w.kind, ORACLE_NU)

    def oracle_batch(self):
        return [self.oracle() for _ in range(self.w.oracle_batch)]

    def check_solve(self, tally: Tally, what: str, out) -> bool:
        u, trace = out
        verdicts = checks.solve_checks(self.problem, u, trace, self.w.rule,
                                       self.cfg.gamma_min, self.w.expect_converged)
        if self.first is None:
            self.first = out
        else:
            verdicts["repeats-exactly"] = checks.repeats(self.first, out)
        return tally.record(what, verdicts)

    def check_oracle(self, tally: Tally, what: str, res) -> bool:
        verdicts = checks.oracle_checks(self.problem, self.u_oracle, res.direction, res.feasible)
        return tally.record(what, verdicts)

    def selftest(self) -> bool:
        """Each check must fail on a perturbed copy of this run's results."""
        u, trace = self.first
        try:
            direction = self.oracle().direction
        except Exception:
            print("selftest: oracle raised")
            traceback.print_exc()
            return False
        caught = checks.selftest(self.problem, u, trace, self.w.rule, self.cfg.gamma_min,
                                 self.w.expect_converged, self.u_oracle, direction)
        for name, ok in caught.items():
            print(f"selftest {name}: {'caught' if ok else 'NOT CAUGHT'}")
        return all(caught.values())


def _rounds(seconds: float):
    """Round numbers until ``seconds`` have passed, with at least MIN_ROUNDS."""
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        yield rounds


def run_end_to_end(cell: Cell, setup: list, seconds: float, tally: Tally):
    """End-to-end metrics, or None when a metric has no checked repetition."""
    solve_s, solve_work, oracle_s, oracle_work = [], [], [], []
    batch = cell.w.oracle_batch
    with contextlib.suppress(Exception):  # warm-up: a failure shows again in the counted calls
        cell.oracle()
    with HostSampler() as sampler:
        for r in _rounds(seconds):
            try:
                out, work, nominal = sampler.timed(cell.solve, "solve")
                if cell.check_solve(tally, f"solve round {r}", out):
                    solve_s.append(nominal)
                    solve_work.append(work)
                print(f"round {r}: solve {out[1].status} {out[1].iterations} iterations "
                      f"cost {out[1].rows[-1].cost!r} raw {work:.4f} s nominal {nominal:.4f} s")
            except Exception:  # a crashed repetition is a counted failure
                tally.crashed(f"solve round {r}")
            for k in range(ORACLE_REPS_PER_ROUND):
                try:
                    results, work, nominal = sampler.timed(cell.oracle_batch, "oracle")
                    verdicts = [cell.check_oracle(tally, f"oracle round {r}.{k}.{i}", res)
                                for i, res in enumerate(results)]
                    if all(verdicts):
                        oracle_s.append(nominal / batch)
                        oracle_work.append(work / batch)
                except Exception:
                    tally.crashed(f"oracle round {r}.{k}")
    print("\n".join(sampler.report()))

    peaks = []
    for i in range(batch):  # one traced pass per call of a batch; a small peak varies by a few KiB
        gc.collect()
        tracemalloc.start()
        try:
            res = cell.oracle()
            peak = tracemalloc.get_traced_memory()[1] / 1024.0
        except Exception:
            tally.crashed(f"traced-memory oracle {i}")
            continue
        finally:
            tracemalloc.stop()
        if cell.check_oracle(tally, f"traced-memory oracle {i}", res):
            peaks.append(peak)

    if not (setup and solve_s and oracle_s and peaks):
        return None
    print(f"setup_s: {len(setup)} interpreters, nominal median "
          f"{median([i + b for i, b in setup]):.4f} s")
    print(f"solve_s: {len(solve_s)} repetitions, raw median {median(solve_work):.4f} s, "
          f"nominal median {median(solve_s):.4f} s")
    print(f"oracle_ms: {len(oracle_s)} repetitions of {batch} calls, raw median "
          f"{1e3 * median(oracle_work):.3f} ms, nominal median {1e3 * median(oracle_s):.3f} ms")
    return {
        "setup_s": (median([i + b for i, b in setup]), "s"),
        "solve_s": (median(solve_s), "s"),
        "oracle_ms": (1e3 * median(oracle_s), "ms"),
        "peak_kib": (median(peaks), "KiB"),
    }


LAYER_METRICS = (
    "oracles.forward.expand",
    "autodiff.lambda_hessian",
    "lqsolve.check_subproblem",
    "lqsolve.stage",
    "oracles.objective_value",
    "oracles.rollout",
)


def run_traced(cell: Cell, setup: list, seconds: float, tally: Tally):
    """(per-layer metrics of one solve, whether call counts repeated exactly).

    The metrics are None when no traced and untraced solve passed its checks.
    """
    plain, traced, layers = [], [], []
    reference = None
    repeat = True
    with HostSampler() as sampler:
        for r in _rounds(seconds):
            try:
                out, _, untraced = sampler.timed(cell.solve, "solve")
                if cell.check_solve(tally, f"untraced solve round {r}", out):
                    plain.append(untraced)
                tracer = LayerTracer(sampler.clock)
                with tracer:
                    out, work, nominal = sampler.timed(lambda: tracer.solve(cell.solve),
                                                        "traced solve")
                print(f"round {r}: untraced {untraced:.4f} s traced {nominal:.4f} s nominal")
                if not cell.check_solve(tally, f"traced solve round {r}", out):
                    continue
                traced.append(nominal)
                layers.append({k: v * nominal / work for k, v in tracer.self_s.items()})
                counts = (dict(tracer.calls), tracer.feasible, out[1].iterations)
                if reference is None:
                    reference = counts
                elif counts != reference:
                    repeat = False
                    print(f"per-layer counts differ: {counts} vs {reference}")
            except Exception:
                tally.crashed(f"traced round {r}")
    print("\n".join(sampler.report()))
    if not (setup and plain and traced):
        return None, repeat

    def layer_ms(name):
        return 1e3 * median([sample.get(name, 0.0) for sample in layers])

    calls, feasible, iterations = reference
    trials = calls.get("oracles.objective_value", 0) - calls.get("linesearch.directional_search", 0)
    backward = calls.get("oracles.run_backward", 0)
    metrics = {
        "setup.import_ms": (1e3 * median([i for i, _ in setup]), "ms"),
        "envs.build_problem_ms": (1e3 * median([b for _, b in setup]), "ms"),
        "linesearch.solve.self_ms": (layer_ms("linesearch.solve"), "ms"),
        "linesearch.solve.trace_overhead_ms": (1e3 * (median(traced) - median(plain)), "ms"),
        "linesearch.iterations": (iterations, "count"),
        "linesearch.accept_ratio": (iterations / trials if trials else 1.0, "ratio"),
        "oracles.run_backward.self_ms": (layer_ms("oracles.run_backward"), "ms"),
        "oracles.run_backward.calls": (backward, "count"),
        "oracles.run_backward.feasible_ratio": (feasible / backward if backward else 1.0, "ratio"),
    }
    for layer in LAYER_METRICS:
        metrics[f"{layer}_ms"] = (layer_ms(layer), "ms")
        metrics[f"{layer}_calls"] = (calls.get(layer, 0), "count")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    w = WORKLOADS[args.workload]
    print(f"python {platform.python_version()} numpy {np.__version__} "
          f"scipy {scipy.__version__} nproc {os.cpu_count()}")
    print(f"workload {w.name}: {w.env} horizon {w.horizon} {w.kind} {w.rule} "
          f"max_iters {w.max_iters} seed {args.seed} trace {args.trace}")

    tally = Tally()
    setup = measure_setup(w, tally)
    cell = Cell(w, args.seed)
    if args.trace:
        metrics, correct = run_traced(cell, setup, args.seconds, tally)
    else:
        metrics, correct = run_end_to_end(cell, setup, args.seconds, tally), True
    if metrics is None:
        print("perfbench: no checked repetition for some metric", file=sys.stderr)
        correct, metrics = False, {}
    if cell.first is not None:
        correct &= cell.selftest()

    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
