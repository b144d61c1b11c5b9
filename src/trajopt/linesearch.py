"""Stepsize selection, the full solver iteration loop, and the stationarity check.

Two step rules pick a stepsize gamma for the same oracle, and both run the
same backtracking loop (:func:`_backtrack`): a trial rolls out a policy,
is accepted when the objective decrease meets its bound, and otherwise
gamma shrinks by ``rho_dec``.  The directional rule fixes the policies from
one backward pass, scales their offsets by gamma and starts at gamma = 1;
its bound is gamma times the model decrease (a sufficient-decrease test).
On the linearized step maps its roll-out is linear in the offsets, so one
unit roll-out per search, scaled by each power-of-two gamma, stands in for
the trials' roll-outs bit for bit.  A regularized trial takes its
policies from the backward pass at ridge 1/gamma; its bound is the swept
model value itself.  Those passes run as ladders: the stepsizes the
backtracking would try next sweep as the lanes of one
:func:`~trajopt.oracles.run_backward` call, and the trials read them in
order, so every trial and acceptance is the one-sweep-per-trial loop's.
:func:`solve` warm-starts the regularized stepsize across iterations and
measures it in units of the cost-slope norm, which keeps acceptable raw
stepsizes bounded as the iterates approach stationarity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import TrajectoryProblem, _array, _scalar
from .errors import DivergenceError, NumericError, ParameterError
from .oracles import (
    _LAST_ROLL,
    ExpansionBundle,
    bundle_gradient,
    checked_controls,
    forward,
    objective_value,
    oracle_spec,
    rollout,
    run_backward,
)

__all__ = [
    "STEP_RULES",
    "LineSearchConfig",
    "StopCriteria",
    "SolveTrace",
    "TraceRow",
    "directional_search",
    "regularized_search",
    "solve",
    "stationarity_residual",
]

# Acceptance comparisons carry a relative tie tolerance so that exact-model
# steps (where decrease and model value agree to round-off) are not
# rejected on the last floating-point bit.  The value matches the relative
# cost-decrease resolution of the stopping rule.
ACCEPT_TIE_RTOL = 1e-12

# A run that stops on small cost decrease or a stalled search is reported
# as converged only if the stationarity residual is below this relative
# level, otherwise as stalled.
CONVERGED_RESIDUAL_RTOL = 1e-6

# Regularization escalation gives up beyond this value; the iterate is then
# classified by its stationarity residual.
NU_MAX = 1e40

# The two step rules, in the order run grids iterate them.
STEP_RULES = ("directional", "regularized")

# The most stepsizes a regularized search sweeps as the lanes of one backward pass.
LADDER_MAX = 8


@dataclass(frozen=True)
class LineSearchConfig:
    """Step-rule selection and its constants."""

    rule: str = "directional"
    rho_dec: float = 0.5
    rho_inc: float = 10.0
    gamma_min: float = 1e-12
    nu_init: float = 1e-6

    def __post_init__(self):
        if self.rule not in STEP_RULES:
            raise ParameterError(f"unknown line-search rule {self.rule!r}")
        _scalar(self.rho_dec, "rho_dec", 0.0, 1.0)
        _scalar(self.rho_inc, "rho_inc", 1.0)
        _scalar(self.gamma_min, "gamma_min", 0.0)
        _scalar(self.nu_init, "nu_init", 0.0)
        if 1.0 / self.nu_init == math.inf:  # the stepsize of the first nonzero ridge rung
            raise ParameterError(f"nu_init must have a finite reciprocal, got {self.nu_init!r}")


@dataclass(frozen=True)
class StopCriteria:
    """Iteration budget and termination tolerances."""

    max_iters: int = 100
    cost_rel_tol: float = 1e-12
    min_step: float = 1e-20

    def __post_init__(self):
        _scalar(self.max_iters, "max_iters", 0, ends="[)", integer=True)
        _scalar(self.cost_rel_tol, "cost_rel_tol", 0.0)
        _scalar(self.min_step, "min_step", 0.0)


@dataclass(frozen=True)
class TraceRow:
    """State of the solve after ``iteration`` accepted steps."""

    iteration: int
    cost: float
    stepsize: float
    regularization: float
    model_decrease: float
    residual: float
    time_ms: float


@dataclass
class SolveTrace:
    """Per-iteration record of a solve, including the initial point as row 0."""

    rows: list = field(default_factory=list)
    status: str = "max-iters"

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.rows])

    @property
    def iterations(self) -> int:
        """Accepted steps; 0 also for a trace whose first forward pass diverged."""
        return max(len(self.rows) - 1, 0)


def _next_gamma(gamma: float, cfg: LineSearchConfig) -> float:
    """The stepsize tried after a rejected ``gamma``: gamma * rho_dec, except that
    gamma = inf (ridge 0) would stay inf, so it goes on from the ridge ladder's first
    nonzero rung, nu_init."""
    return 1.0 / cfg.nu_init if gamma == math.inf else gamma * cfg.rho_dec


def _backtrack(bundle: ExpansionBundle, j_current: float, gamma: float,
               cfg: LineSearchConfig, trial) -> tuple[np.ndarray | None, float, float]:
    """The trial loop both step rules share, from stepsize ``gamma`` down.

    ``trial(gamma)`` gives the control offset of stepsize gamma and the
    bound the objective decrease must meet, or None to reject the stepsize
    outright; a roll-out or trial value that fails reads as a rejection.
    Returns (candidate, gamma, bound) of the first accepted trial.  Once
    gamma falls below the configured minimum the search has stalled: it
    returns the best candidate if it still decreased the objective, else
    None, with that gamma and bound NaN.
    """
    best, best_cost = None, math.inf
    while True:
        try:
            proposal = trial(gamma)
            if proposal is not None:
                offset, bound = proposal
                candidate = bundle.u + offset
                j_trial = objective_value(bundle.problem, candidate)
        except NumericError:
            proposal = None
        if proposal is not None:
            if j_trial - j_current <= bound + ACCEPT_TIE_RTOL * (1.0 + abs(j_current)):
                return candidate, gamma, bound
            if j_trial < best_cost:
                best, best_cost = candidate, j_trial
        gamma = _next_gamma(gamma, cfg)
        if gamma < cfg.gamma_min:
            return (best if best_cost < j_current else None), gamma, math.nan


def directional_search(
    bundle: ExpansionBundle,
    kind: str,
    K: np.ndarray,
    k: np.ndarray,
    c0_zero: float,
    cfg: LineSearchConfig,
) -> tuple[np.ndarray | None, float, float]:
    """Backtracking on the scaled-offset policy family, starting at gamma = 1.

    The policies v_t = K[t] y_t + gamma k[t] roll out along the step map
    of oracle ``kind`` (see :func:`rollout`).  Accepts the first gamma with
    J(u + v_gamma) <= J(u) + gamma * c0(0).  Returns (point, stepsize,
    bound gamma * c0(0)), or a stall as :func:`_backtrack` does.

    On the linearized step maps the roll-out is linear in the offsets, so
    the unit policy (K, k) rolls out once and a trial takes gamma times
    that roll-out.  Above the subnormal range, scaling by a power of two
    commutes with every rounding of the roll-out's products and sums, so
    this is the per-trial roll-out bit for bit.  Any other gamma, the
    increment maps and a unit roll-out that overflowed leave each trial to
    roll out its own policy.
    """
    spec = oracle_spec(kind)
    _scalar(c0_zero, "c0_zero", -math.inf, 0.0, ends="[)")
    tau, n_u, n_x = bundle.horizon, bundle.problem.n_u, bundle.problem.n_x
    K, k = _array(K, "K", (tau, n_u, n_x), steps=True), _array(k, "k", (tau, n_u), steps=True)
    # not bundle.cost: the call is kept for perfbench's trial count (objective_value
    # calls less searches); inside a solve it returns the forward's roll, unevaluated
    j_current = objective_value(bundle.problem, bundle.u)
    unit = None
    if not spec.rolls_original:
        try:
            unit = rollout(bundle, kind, K, k)
        except NumericError:
            pass  # a smaller gamma may stay finite: each trial rolls out

    def trial(gamma):
        if unit is not None and math.frexp(gamma)[0] == 0.5:
            return gamma * unit, gamma * c0_zero
        return rollout(bundle, kind, K, gamma * k), gamma * c0_zero

    return _backtrack(bundle, j_current, 1.0, cfg, trial)


def regularized_search(
    bundle: ExpansionBundle,
    kind: str,
    gamma: float,
    cfg: LineSearchConfig,
) -> tuple[np.ndarray | None, float, float]:
    """Step selection through the ridge: a trial's policies come from the backward pass at 1/gamma.

    From the first trial stepsize ``gamma`` down, the backward pass of
    oracle ``kind`` runs with ridge nu = 1/gamma and its policies roll out
    along the kind's maps; the trial is accepted when the objective
    decrease is at least the swept model value c0(0).  Returns (point,
    stepsize, model value), or a stall as :func:`_backtrack` does.
    ``gamma`` may be +inf, the ridge 0; a stepsize whose ridge lies outside
    the kind's range (ridge 0 for gd, or the infinite ridge of a subnormal
    stepsize) is a rejected trial.

    A trial not yet swept sweeps a ladder: its stepsize and those the
    backtracking tries after it, down to ``gamma_min``, as many as lie
    between a warm start rho_inc times the last accepted stepsize and that
    stepsize (at most :data:`LADDER_MAX`), as the lanes of one
    :func:`run_backward` call.  Each lane is the one-ridge sweep bit for
    bit, so the trials, their order and the result are the per-trial
    sweep's.
    """
    _scalar(gamma, "gamma", 0.0, math.inf, ends="(]")
    spec = oracle_spec(kind)  # an unknown kind is named before any trial
    # the rungs from a warm start rho_inc * gamma back down to gamma
    size = min(LADDER_MAX, 1 + math.ceil(math.log(cfg.rho_inc) / -math.log(cfg.rho_dec)))
    swept = {}  # stepsize -> its sweep, or None for a ridge out of the kind's range

    def trial(gamma):
        if gamma not in swept:
            rungs = [gamma]
            while len(rungs) < size and (nxt := _next_gamma(rungs[-1], cfg)) >= cfg.gamma_min:
                rungs.append(nxt)
            swept.update(dict.fromkeys(rungs))
            usable = [g for g in rungs if spec._admits(1.0 / g)]
            if usable:
                swept.update(zip(usable, run_backward(bundle, kind, [1.0 / g for g in usable])))
        result = swept[gamma]
        if result is not None and result.feasible and result.c0_zero < 0.0:
            return rollout(bundle, kind, result.K, result.k), result.c0_zero
        return None

    return _backtrack(bundle, bundle.cost, gamma, cfg, trial)


def _escalate_directional(bundle: ExpansionBundle, kind: str, cfg: LineSearchConfig):
    """Walk the ridge ladder 0, nu_init, nu_init * rho_inc, ... to a usable descent model.

    The walk starts at the kind's starting ridge.  Returns (result, nu), or
    (None, nu) when it gives up: past NU_MAX, at a stationary point (no
    stage strictly decreases the cost-to-go) or for a linear-cost kind,
    whose ridge only scales its step.
    """
    spec = oracle_spec(kind)
    stationary = -1e-18 * (1.0 + abs(bundle.cost))
    nu = spec.start_nu
    while nu <= NU_MAX:
        result = run_backward(bundle, kind, nu)
        if result.feasible and result.c0_zero < 0.0:
            return result, nu
        if (result.feasible and result.c0_zero >= stationary) or spec.o_h == 1:
            break
        nu = cfg.nu_init if nu == 0.0 else nu * cfg.rho_inc
    return None, nu


def _classify(residual: float, cost: float) -> str:
    if residual <= CONVERGED_RESIDUAL_RTOL * (1.0 + abs(cost)):
        return "converged"
    return "stalled"


def solve(
    problem: TrajectoryProblem,
    u0,
    kind: str,
    cfg: LineSearchConfig | None = None,
    stop: StopCriteria | None = None,
    callback=None,
) -> tuple[np.ndarray, SolveTrace]:
    """Full iteration loop for one oracle kind under one step rule.

    Row 0 of the returned trace records the initial point; each further row
    one accepted step.  A row's cost exceeds the one before by at most the
    acceptance tie slack ``ACCEPT_TIE_RTOL * (1 + |J_prev|)``, so a step
    near stationarity may raise it by round-off.  A search that stalls
    with a decrease still takes its best candidate (a regularized row then
    records NaN ridge and model value); one that stalls without a decrease
    ends the solve, classified by the stationarity residual.  Divergence of
    an accepted iterate re-raises with the partial trace attached.
    ``u0`` must be a finite (horizon, n_u) array, else :class:`ShapeError`.

    Within a solve each control sequence is rolled once: the forward pass
    on an accepted trial and the directional search's J(u) read back the
    roll just made at the same controls (see :func:`oracles._roll`).

    ``callback`` gets each accepted row's fields but ``time_ms`` as keywords,
    and ``u``, a read-only view of the next search's base point: writing
    into it raises ``ValueError``.  The returned controls stay writable.
    """
    spec = oracle_spec(kind)
    cfg = LineSearchConfig() if cfg is None else cfg
    stop = StopCriteria() if stop is None else stop
    if not (isinstance(cfg, LineSearchConfig) and isinstance(stop, StopCriteria)):
        raise ParameterError(f"cfg and stop must be settings objects, got {cfg!r} and {stop!r}")

    u = checked_controls(problem, u0, "u0").copy()
    trace = SolveTrace()

    def expand(controls):
        try:
            return forward(problem, controls, o_f=spec.o_f, o_h=spec.o_h)
        except DivergenceError as err:
            trace.status = "diverged"
            err.trace = trace
            raise

    token = _LAST_ROLL.set([None])  # each control sequence rolls once per solve
    try:
        t0 = time.perf_counter()
        bundle = expand(u)
        carry = time.perf_counter() - t0  # forward time attributed to the first iteration
        j_current = bundle.cost
        residual = _residual(bundle)
        trace.rows.append(TraceRow(0, j_current, math.nan, math.nan, math.nan, residual, 0.0))
        cum_ms = 0.0
        gamma_prev = 1.0 / cfg.nu_init

        for k in range(1, stop.max_iters + 1):
            t0 = time.perf_counter()
            if cfg.rule == "directional":
                result, nu = _escalate_directional(bundle, kind, cfg)
                u_next = None
                if result is not None:
                    c0 = result.c0_zero
                    u_next, gamma, _ = directional_search(bundle, kind, result.K, result.k, c0, cfg)
            else:
                # the stepsize warm-starts in units of the cost-slope norm
                scale = bundle.cost_slope_norm()
                if scale <= 0.0 or not math.isfinite(scale):
                    scale = 1.0
                u_next, gamma, c0 = regularized_search(
                    bundle, kind, cfg.rho_inc * gamma_prev / scale, cfg
                )
                if math.isnan(c0):  # stalled: no trial passed, so no ridge to report
                    nu = math.nan
                else:
                    gamma_prev, nu = gamma * scale, 1.0 / gamma
            if u_next is None:  # no descent model, or a stall without a decrease
                trace.status = _classify(residual, j_current)
                break

            bundle = expand(u_next)
            elapsed = time.perf_counter() - t0
            j_next = bundle.cost
            residual = _residual(bundle)
            cum_ms += (carry + elapsed) * 1e3
            carry = 0.0
            trace.rows.append(TraceRow(k, j_next, gamma, nu, c0, residual, cum_ms))
            if callback is not None:
                seen = u_next.view()  # the next search starts from u_next
                seen.flags.writeable = False
                callback(iteration=k, u=seen, cost=j_next, stepsize=gamma,
                         regularization=nu, model_decrease=c0, residual=residual)

            stop_small_cost = abs(j_current - j_next) <= stop.cost_rel_tol * (1.0 + abs(j_current))
            stop_small_step = gamma < stop.min_step
            u, j_current = u_next, j_next
            if stop_small_cost or stop_small_step:
                trace.status = _classify(residual, j_current)
                break

        return u, trace
    finally:
        _LAST_ROLL.reset(token)


def stationarity_residual(problem: TrajectoryProblem, u) -> float:
    """First-order optimality certificate: the max-norm of the objective gradient.

    The gradient comes from one order-1 forward pass and the adjoint
    recursion of :func:`bundle_gradient`; it is zero exactly at stationary
    points.
    """
    u = checked_controls(problem, u, "u")
    return _residual(forward(problem, u, o_f=1, o_h=1))


def _residual(bundle: ExpansionBundle) -> float:
    """The max-norm of the objective gradient at the bundle's controls."""
    return float(np.max(np.abs(bundle_gradient(bundle))))
