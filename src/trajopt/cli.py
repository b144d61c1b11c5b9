"""Command-line harness: single solves, benchmark grids, verification checks.

Subcommands
    solve      one env/algorithm/line-search cell, trace written as CSV
    benchmark  a grid over envs x algorithms x line-searches x horizons
    verify     self-contained correctness checks with printed tolerances

Exit codes: 0 solved (converged or iteration budget exhausted), 1 bad
configuration, 2 stalled, 3 diverged.  The environment variable
``TRAJOPT_LOG`` in {quiet, info, debug} controls logging verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import logging
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .envs.build import DISCRETIZERS, ENV_KINDS, build_problem
from .errors import ConfigError, DivergenceError, TrajoptError
from .linesearch import LineSearchConfig, SolveTrace, StopCriteria, solve
from .oracles import ORACLE_KINDS

log = logging.getLogger("trajopt")

TRACE_HEADER = ["iter", "cost", "rel_subopt", "stepsize", "regularization", "residual", "time_ms"]

LINESEARCH_KINDS = ("directional", "regularized")

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
        if self.env not in ENV_KINDS:
            raise ConfigError("env", f"got {self.env!r}, expected one of {ENV_KINDS}")
        if self.algo not in ORACLE_KINDS:
            raise ConfigError("algo", f"got {self.algo!r}, expected one of {ORACLE_KINDS}")
        if self.linesearch not in LINESEARCH_KINDS:
            raise ConfigError(
                "linesearch", f"got {self.linesearch!r}, expected one of {LINESEARCH_KINDS}"
            )
        if self.horizon < 1:
            raise ConfigError("horizon", f"must be >= 1, got {self.horizon}")
        if self.discretizer and self.discretizer not in DISCRETIZERS:
            raise ConfigError(
                "discretizer", f"got {self.discretizer!r}, expected one of {DISCRETIZERS}"
            )
        if self.max_iters < 0:
            raise ConfigError("max_iters", f"must be >= 0, got {self.max_iters}")
        if self.rel_tol <= 0 or self.min_step <= 0:
            raise ConfigError("rel_tol", "tolerances must be positive")
        if self.parallel < 1:
            raise ConfigError("parallel", f"must be >= 1, got {self.parallel}")
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


def serialize_config(values: dict) -> str:
    return "\n".join(f"{k}={values[k]}" for k in sorted(values)) + "\n"


def config_from_sources(args, file_text: str | None) -> RunConfig:
    """Config file first, flags override."""
    merged = {}
    if file_text is not None:
        merged.update(parse_config(file_text))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name.replace("-", "_"), None)
        if flag is not None:
            merged[name] = flag
    cfg = RunConfig()
    casts = {int: int, float: float, str: str}
    for key, value in merged.items():
        typ = type(getattr(cfg, key))
        try:
            cfg = replace(cfg, **{key: casts[typ](value)})
        except (TypeError, ValueError) as err:
            raise ConfigError(key, f"cannot parse {value!r}: {err}") from None
    return cfg.validate()


# -- trace files --------------------------------------------------------------


@dataclass
class TraceFile:
    """CSV rows of one solve plus footer comments (status, seed)."""

    rows: list
    status: str
    footer: dict

    def write(self, path: str):
        """Atomic write via a temporary file in the target directory."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(TRACE_HEADER)
        writer.writerows(self.rows)
        footer = dict(self.footer, status=self.status)
        buf.write("# " + " ".join(f"{k}={v}" for k, v in sorted(footer.items())) + "\n")
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

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


def _initial_controls(problem, seed: int) -> np.ndarray:
    u0 = np.zeros((problem.horizon, problem.n_u))
    if seed >= 0:
        rng = np.random.default_rng(seed)
        u0 += 0.01 * rng.standard_normal(u0.shape)
    return u0


def run_cell(cfg: RunConfig) -> tuple[SolveTrace, dict]:
    """Build and solve one cell; returns the trace and footer metadata."""
    problem = build_problem(cfg.env, cfg.horizon, cfg.discretizer or None)
    u0 = _initial_controls(problem, cfg.seed)
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
        trace = err.trace if err.trace is not None else SolveTrace(status="diverged")
        trace.status = "diverged"
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
          f"status={trace.status} iterations={max(trace.iterations, 0)} {final} trace={out}")
    return _STATUS_EXIT[trace.status]


# -- benchmark ----------------------------------------------------------------


def _expand_grid(args) -> list[RunConfig]:
    grid = {name: getattr(args, name) for name in ("env", "algo", "linesearch", "horizon")}
    for name in grid:
        setattr(args, name, None)  # grid axes are expanded below, not cast by the base
    base = config_from_sources(args, _read_config_file(args.config))
    raw = grid["horizon"] if grid["horizon"] is not None else str(base.horizon)
    try:
        horizons = [int(horizon) for horizon in _split(raw)]
    except ValueError as err:
        raise ConfigError("horizon", f"cannot parse {raw!r}: {err}") from None
    cells = []
    for env in _split(grid["env"] or base.env):
        for algo in _split(grid["algo"] or base.algo):
            for ls in _split(grid["linesearch"] or base.linesearch):
                for horizon in horizons:
                    cells.append(replace(
                        base, env=env, algo=algo, linesearch=ls, horizon=horizon
                    ).validate())
    return cells


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
        TraceFile.from_trace(trace, j_star, footer).write(
            os.path.join(out_dir, name + ".csv")
        )
        final = trace.rows[-1]
        denom = trace.rows[0].cost - j_star
        rel = (final.cost - j_star) / denom if denom > 0 else 0.0
        summary_rows.append([cfg.env, cfg.algo, cfg.linesearch, cfg.horizon,
                             trace.status, trace.iterations, f"{final.cost:.12g}",
                             f"{rel:.6g}", f"{final.time_ms:.3f}"])

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["env", "algo", "linesearch", "horizon", "status",
                         "iterations", "final_cost", "rel_subopt", "time_ms"])
        writer.writerows(summary_rows)
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


def _check_dense_oracles(trials: int, perturb: bool):
    """Gradient/Gauss-Newton/Newton directions against dense assemblies."""
    from ._testing import oracle_equivalence_error

    rng = np.random.default_rng(7)
    return oracle_equivalence_error(rng, trials, 1e-3 if perturb else 0.0), 1e-8


def _check_finite_differences(trials: int, perturb: bool):
    """Env model derivatives against central finite differences."""
    from . import autodiff
    from ._testing import env_interior_point, fd_jacobian

    rng = np.random.default_rng(11)
    worst = 0.0
    for env in ENV_KINDS:
        problem = build_problem(env, 10)
        f = problem.dynamics[0]
        n_x = problem.n_x
        for _ in range(trials):
            z = env_interior_point(env, rng, problem)
            joint = lambda zz: f(zz[:n_x], zz[n_x:])
            jac = autodiff.jacobian(joint, z)
            if perturb:
                jac = jac + 1e-3
            fd = fd_jacobian(joint, z)
            worst = max(worst, float(np.max(np.abs(jac - fd) / (1.0 + np.abs(fd)))))
    return worst, 1e-6


def _check_policy_scaling(trials: int, perturb: bool):
    """Scaled-offset roll-outs on linear maps are exactly linear in gamma."""
    from ._testing import policy_scaling_deviation

    rng = np.random.default_rng(13)
    return policy_scaling_deviation(rng, trials, 1e-6 if perturb else 0.0), 1e-12


def _check_step_acceptance(trials: int, perturb: bool):
    """Accepted steps respect their acceptance inequalities, re-read from traces."""
    from .linesearch import ACCEPT_TIE_RTOL

    worst = -math.inf
    for rule in LINESEARCH_KINDS:
        cfg = RunConfig(env="pendulum", algo="gn", linesearch=rule, horizon=30,
                        max_iters=25)
        trace, _ = run_cell(cfg)
        rows = trace.rows
        for prev, row in zip(rows, rows[1:]):
            if math.isnan(row.model_decrease):
                continue
            bound = row.model_decrease * (row.stepsize if rule == "directional" else 1.0)
            slack = ACCEPT_TIE_RTOL * (1.0 + abs(prev.cost))
            violation = (row.cost - prev.cost) - bound - slack
            if perturb:
                violation += 1e-3
            worst = max(worst, violation)
    return worst, 0.0


def _check_stationarity(trials: int, perturb: bool):
    """Hamiltonian residual equals the dense objective gradient max-norm."""
    from ._testing import stationarity_gap

    rng = np.random.default_rng(17)
    return stationarity_gap(rng, trials, 1e-3 if perturb else 0.0), 1e-8


def _check_curvature_fixture(trials: int, perturb: bool):
    """Concave-stage instance: dense Hessian PD, Newton solves it in <= 3 steps."""
    from ._testing import concave_fixture

    eig_min, residual, _ = concave_fixture()
    if perturb:
        eig_min -= 1e3
    return (residual if eig_min > 0.0 else math.inf), 1e-9


VERIFY_CHECKS = {
    "dense-oracles": (_check_dense_oracles, 10),
    "finite-diff": (_check_finite_differences, 20),
    "policy-scaling": (_check_policy_scaling, 10),
    "step-acceptance": (_check_step_acceptance, 1),
    "stationarity": (_check_stationarity, 10),
    "curvature-fixture": (_check_curvature_fixture, 1),
}


def cmd_verify(args) -> int:
    names = [args.only] if args.only else list(VERIFY_CHECKS)
    if args.only and args.only not in VERIFY_CHECKS:
        print(f"unknown check {args.only!r}; available: {', '.join(VERIFY_CHECKS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    all_ok = True
    for name in names:
        fn, default_trials = VERIFY_CHECKS[name]
        trials = max(1, int(default_trials * args.scale))
        start = time.perf_counter()
        worst, tol = fn(trials, args.selftest_perturb)
        ok = worst <= tol
        all_ok &= ok
        print(f"{name:18s} max_error={worst: .3e} tolerance={tol:.1e} "
              f"[{time.perf_counter() - start:5.1f}s] {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else 4


# -- entry point --------------------------------------------------------------


def _add_run_flags(sub):
    sub.add_argument("--env", help=f"one of {', '.join(ENV_KINDS)} (benchmark: comma list)")
    sub.add_argument("--algo", help=f"one of {', '.join(ORACLE_KINDS)} (benchmark: comma list)")
    sub.add_argument("--linesearch", help="directional or regularized (benchmark: comma list)")
    sub.add_argument("--horizon", help="number of steps (benchmark: comma list)")
    sub.add_argument("--discretizer", help=f"one of {', '.join(DISCRETIZERS)}")
    sub.add_argument("--max-iters", dest="max_iters", type=int, help="iteration budget")
    sub.add_argument("--rel-tol", dest="rel_tol", type=float,
                     help="relative cost-decrease stop tolerance")
    sub.add_argument("--min-step", dest="min_step", type=float,
                     help="smallest accepted stepsize before stopping")
    sub.add_argument("--seed", type=int, help="seed for initial-control randomization")
    sub.add_argument("--out", help="output path (solve: trace file, benchmark: directory)")
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--parallel", type=int, help="benchmark workers (default 1)")


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
    ver.add_argument("--only", help=f"run a single check: {', '.join(VERIFY_CHECKS)}")
    ver.add_argument("--scale", type=float, default=1.0,
                     help="multiplier on per-check trial counts")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
