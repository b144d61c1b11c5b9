"""Command-line harness: single solves, benchmark grids, verification checks.

Subcommands
    solve      one env/algorithm/line-search cell, trace written as CSV
    benchmark  a grid over envs x algorithms x line-searches x horizons
    verify     self-contained correctness checks with printed tolerances

Exit codes: 0 solved (converged or iteration budget exhausted), 1 bad
configuration (a bad flag, value or config file), 2 stalled, 3 diverged;
``verify`` exits 4 when a check fails; its ``--scale``, the multiplier on
the random-instance checks' trial counts, lies in (0, 1000].  The
environment variable ``TRAJOPT_LOG`` in {quiet, info, debug} controls
logging verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import logging
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _testing
from .core import _scalar
from .envs.build import DISCRETIZERS, ENV_KINDS, build_problem, env_discretizer
from .errors import ConfigError, DivergenceError, TrajoptError
from .linesearch import STEP_RULES, LineSearchConfig, SolveTrace, StopCriteria, solve
from .oracles import ORACLE_KINDS

log = logging.getLogger("trajopt")

TRACE_HEADER = ["iter", "cost", "rel_subopt", "stepsize", "regularization", "residual", "time_ms"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STALLED = 2
EXIT_DIVERGED = 3

_STATUS_EXIT = {"converged": EXIT_OK, "max-iters": EXIT_OK, "stalled": EXIT_STALLED,
                "diverged": EXIT_DIVERGED}


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One solve cell; built from flags, optionally seeded by a config file."""

    env: str = "pendulum"
    algo: str = "gn"
    linesearch: str = "directional"
    horizon: int = 50
    discretizer: str = ""  # empty: the environment's default scheme
    max_iters: int = 100
    rel_tol: float = 1e-12
    min_step: float = 1e-20
    seed: int = -1  # -1: no randomization, start from zero controls
    out: str = ""
    parallel: int = 1

    def validate(self) -> "RunConfig":
        for name, kinds in (("env", ENV_KINDS), ("algo", ORACLE_KINDS), ("linesearch", STEP_RULES)):
            if getattr(self, name) not in kinds:
                raise ConfigError(name, f"got {getattr(self, name)!r}, expected one of {kinds}")
        _scalar(self.horizon, "horizon", 1, ends="[)", integer=True, error=ConfigError)
        env_discretizer(self.env, self.discretizer)
        for name, lo in (("max_iters", 0), ("seed", -1), ("parallel", 1)):
            _scalar(getattr(self, name), name, lo, ends="[)", integer=True, error=ConfigError)
        for name in ("rel_tol", "min_step"):
            _scalar(getattr(self, name), name, 0.0, error=ConfigError)
        return self


_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text: str) -> dict:
    """Parse the flat key=value config format; '#' starts a comment line."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(key, "unknown configuration key")
        out[key] = value
    return out


def _cast(name: str, value, kind):
    """``value`` as ``kind``, else :class:`ConfigError` naming ``name``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(name, f"cannot parse {value!r}: {err}") from None


def config_from_sources(args, file_text: str | None) -> RunConfig:
    """Config file first, flags override; both are text, cast here to the field types."""
    merged = {}
    if file_text is not None:
        merged.update(parse_config(file_text))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
    cfg = RunConfig()
    for key, value in merged.items():
        cfg = replace(cfg, **{key: _cast(key, value, type(getattr(cfg, key)))})
    return cfg.validate()


# -- trace files --------------------------------------------------------------


def _write_csv(path: str, header: list, rows: list, footer: str = ""):
    """Atomic write of a CSV file via a temporary file in the target directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
            fh.write(footer)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class TraceFile:
    """CSV rows of one solve plus footer comments (status, seed)."""

    rows: list
    status: str
    footer: dict

    def write(self, path: str):
        footer = dict(self.footer, status=self.status)
        _write_csv(path, TRACE_HEADER, self.rows,
                   "# " + " ".join(f"{k}={v}" for k, v in sorted(footer.items())) + "\n")

    @classmethod
    def read(cls, path: str) -> "TraceFile":
        rows, footer = [], {}
        with open(path, "r", newline="") as fh:
            for record in fh:
                if record.startswith("#"):
                    for item in record[1:].split():
                        key, _, value = item.partition("=")
                        footer[key] = value
                    continue
                rows.append(record.strip())
        parsed = list(csv.reader(rows))
        if not parsed or parsed[0] != TRACE_HEADER:
            raise ConfigError("trace", f"{path} does not carry the expected header")
        data = [[int(r[0])] + [float(v) for v in r[1:]] for r in parsed[1:]]
        status = footer.pop("status", "unknown")
        return cls(data, status, footer)

    @classmethod
    def from_trace(cls, trace: SolveTrace, j_star: float | None, footer: dict) -> "TraceFile":
        """Rows from a solve trace, with suboptimality relative to j_star.

        Without a reference cost the trace's own best (final) cost serves
        as the estimate, making the last row's rel_subopt zero.
        """
        if not trace.rows:  # diverged before the first evaluation
            return cls([], trace.status, footer)
        costs = [r.cost for r in trace.rows]
        ref = min(costs) if j_star is None else j_star
        denom = costs[0] - ref
        rows = []
        for r in trace.rows:
            rel = (r.cost - ref) / denom if denom > 0 else 0.0
            rows.append([
                r.iteration, r.cost, rel, r.stepsize, r.regularization,
                r.residual, r.time_ms,
            ])
        return cls(rows, trace.status, footer)


# -- solve --------------------------------------------------------------------


def initial_controls(problem, seed: int) -> np.ndarray:
    """Zero controls, plus 0.01 * N(0, 1) drawn from ``seed`` when it is >= 0."""
    u0 = np.zeros((problem.horizon, problem.n_u))
    if seed >= 0:
        rng = np.random.default_rng(seed)
        u0 += 0.01 * rng.standard_normal(u0.shape)
    return u0


def run_cell(cfg: RunConfig) -> tuple[SolveTrace, dict]:
    """Build and solve one cell; returns the trace and footer metadata."""
    problem = build_problem(cfg.env, cfg.horizon, cfg.discretizer or None)
    u0 = initial_controls(problem, cfg.seed)
    ls = LineSearchConfig(rule=cfg.linesearch)
    stop = StopCriteria(max_iters=cfg.max_iters, cost_rel_tol=cfg.rel_tol,
                        min_step=cfg.min_step)
    footer = {"env": cfg.env, "algo": cfg.algo, "linesearch": cfg.linesearch,
              "horizon": cfg.horizon, "discretizer": problem.meta["discretizer"],
              "seed": cfg.seed}
    log.info("solving %s/%s/%s horizon=%d", cfg.env, cfg.algo, cfg.linesearch, cfg.horizon)
    try:
        _, trace = solve(problem, u0, cfg.algo, ls, stop)
    except DivergenceError as err:
        trace = err.trace
    log.info("finished: status=%s iterations=%d", trace.status, trace.iterations)
    return trace, footer


def cmd_solve(args) -> int:
    file_text = _read_config_file(args.config)
    cfg = config_from_sources(args, file_text)
    trace, footer = run_cell(cfg)
    out = cfg.out or f"trace_{cfg.env}_{cfg.algo}_{cfg.linesearch}_h{cfg.horizon}.csv"
    TraceFile.from_trace(trace, None, footer).write(out)
    final = f"final_cost={trace.rows[-1].cost:.9g}" if trace.rows else "no finite evaluation"
    print(f"{cfg.env}/{cfg.algo}/{cfg.linesearch} h={cfg.horizon}: "
          f"status={trace.status} iterations={trace.iterations} {final} trace={out}")
    return _STATUS_EXIT[trace.status]


# -- benchmark ----------------------------------------------------------------


def _expand_grid(args) -> list[RunConfig]:
    grid = {name: getattr(args, name) for name in ("env", "algo", "linesearch", "horizon")}
    for name in grid:
        setattr(args, name, None)  # grid axes are expanded below, not cast by the base
    base = config_from_sources(args, _read_config_file(args.config))
    raw = grid["horizon"] if grid["horizon"] is not None else str(base.horizon)
    horizons = [_cast("horizon", horizon, int) for horizon in _split(raw)]
    axes = [_split(grid[name] or getattr(base, name)) for name in ("env", "algo", "linesearch")]
    return [replace(base, env=env, algo=algo, linesearch=ls, horizon=horizon).validate()
            for env, algo, ls, horizon in itertools.product(*axes, horizons)]


def _split(raw: str) -> list[str]:
    return [part.strip() for part in str(raw).split(",") if part.strip()]


def _cell_name(cfg: RunConfig) -> str:
    return f"{cfg.env}_{cfg.algo}_{cfg.linesearch}_h{cfg.horizon}"


def _run_cell_worker(cfg: RunConfig):
    try:
        trace, footer = run_cell(cfg)
        return cfg, trace, footer, None
    except TrajoptError as err:
        return cfg, None, None, str(err)


def cmd_benchmark(args) -> int:
    cells = _expand_grid(args)
    if not cells:
        print("benchmark grid is empty", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or "benchmark_results"
    os.makedirs(out_dir, exist_ok=True)

    if cells[0].parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cells[0].parallel) as pool:
            results = list(pool.map(_run_cell_worker, cells))
    else:
        results = [_run_cell_worker(cfg) for cfg in cells]

    # best final cost per (env, horizon, discretizer) estimates the optimum
    best: dict = {}
    for cfg, trace, _, err in results:
        if trace is None or not trace.rows:
            continue
        key = (cfg.env, cfg.horizon, cfg.discretizer)
        cost = trace.rows[-1].cost
        best[key] = min(best.get(key, math.inf), cost)

    summary_rows = []
    any_ok = False
    for cfg, trace, footer, err in results:
        name = _cell_name(cfg)
        if trace is None or not trace.rows:
            reason = err if trace is None else trace.status
            summary_rows.append([cfg.env, cfg.algo, cfg.linesearch, cfg.horizon,
                                 "error", "", "", "", reason])
            continue
        any_ok = True
        j_star = best[(cfg.env, cfg.horizon, cfg.discretizer)]
        trace_file = TraceFile.from_trace(trace, j_star, footer)
        trace_file.write(os.path.join(out_dir, name + ".csv"))
        final = trace.rows[-1]
        rel = trace_file.rows[-1][TRACE_HEADER.index("rel_subopt")]
        summary_rows.append([cfg.env, cfg.algo, cfg.linesearch, cfg.horizon,
                             trace.status, trace.iterations, f"{final.cost:.12g}",
                             f"{rel:.6g}", f"{final.time_ms:.3f}"])

    summary_path = os.path.join(out_dir, "summary.csv")
    _write_csv(summary_path, ["env", "algo", "linesearch", "horizon", "status",
                              "iterations", "final_cost", "rel_subopt", "time_ms"], summary_rows)
    print(f"wrote {len(summary_rows)} cells to {out_dir} (summary: {summary_path})")
    return EXIT_OK if any_ok else EXIT_CONFIG


def _read_config_file(path: str | None) -> str | None:
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ConfigError("config", f"cannot read {path!r}: {err}") from None


# -- verify -------------------------------------------------------------------


# name: (check, seed, default trials, self-test offset, tolerance); each check
# in trajopt._testing maps (rng, trials, offset) to its worst error, and
# step-acceptance and curvature-fixture run one fixed case whatever the trials
VERIFY_CHECKS = {
    "dense-oracles": (_testing.oracle_equivalence_error, 7, 10, 1e-3, 1e-8),
    "finite-diff": (_testing.finite_difference_error, 11, 20, 1e-3, 1e-6),
    "policy-scaling": (_testing.policy_scaling_deviation, 13, 10, 1e-6, 1e-12),
    "step-acceptance": (_testing.worst_acceptance_violation, 0, 1, 1e-3, 0.0),
    "stationarity": (_testing.stationarity_gap, 17, 10, 1e-3, 1e-8),
    "curvature-fixture": (_testing.concave_fixture_residual, 0, 1, 1e3, 1e-9),
}


def cmd_verify(args) -> int:
    scale = _cast("scale", args.scale, float)
    # at most 1000, so the longest check runs at most 20 000 trials
    _scalar(scale, "scale", 0.0, 1000.0, ends="(]", error=ConfigError)
    names = [args.only] if args.only else list(VERIFY_CHECKS)
    all_ok = True
    for name in names:
        check, seed, default_trials, offset, tol = VERIFY_CHECKS[name]
        trials = max(1, int(default_trials * scale))
        start = time.perf_counter()
        worst = check(np.random.default_rng(seed), trials, offset if args.selftest_perturb else 0.0)
        ok = worst <= tol
        all_ok &= ok
        print(f"{name:18s} max_error={worst: .3e} tolerance={tol:.1e} "
              f"[{time.perf_counter() - start:5.1f}s] {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else 4


# -- entry point --------------------------------------------------------------


def _add_run_flags(sub):
    # no type=: config_from_sources casts flags as it casts config-file values
    sub.add_argument("--env", help=f"one of {', '.join(ENV_KINDS)} (benchmark: comma list)")
    sub.add_argument("--algo", help=f"one of {', '.join(ORACLE_KINDS)} (benchmark: comma list)")
    sub.add_argument("--linesearch",
                     help=f"one of {', '.join(STEP_RULES)} (benchmark: comma list)")
    sub.add_argument("--horizon", help="number of steps (benchmark: comma list)")
    sub.add_argument("--discretizer", help=f"one of {', '.join(DISCRETIZERS)}")
    sub.add_argument("--max-iters", dest="max_iters", help="iteration budget")
    sub.add_argument("--rel-tol", dest="rel_tol", help="relative cost-decrease stop tolerance")
    sub.add_argument("--min-step", dest="min_step",
                     help="smallest accepted stepsize before stopping")
    sub.add_argument("--seed", help="seed for initial-control randomization")
    sub.add_argument("--out", help="output path (solve: trace file, benchmark: directory)")
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--parallel", help="benchmark workers (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajopt",
        description="Iterative linear-quadratic solvers on control benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sol = subs.add_parser("solve", help="run one solve and write its trace")
    _add_run_flags(sol)
    sol.set_defaults(fn=cmd_solve)

    bench = subs.add_parser("benchmark", help="run a grid of solves")
    _add_run_flags(bench)
    bench.set_defaults(fn=cmd_benchmark)

    ver = subs.add_parser("verify", help="run built-in correctness checks")
    ver.add_argument("--only", choices=VERIFY_CHECKS, help="run a single check")
    ver.add_argument("--scale", default=1.0,
                     help="multiplier on the trial counts of the four random-instance checks,"
                          " in (0, 1000]; step-acceptance and curvature-fixture run once")
    ver.add_argument("--selftest-perturb", action="store_true",
                     help="inject an error to confirm the harness detects failures")
    ver.set_defaults(fn=cmd_verify)
    return parser


def _setup_logging():
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("TRAJOPT_LOG", "quiet"), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # --help exits 0; a usage error would exit 2, the stalled code
        return EXIT_CONFIG if stop.code else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
