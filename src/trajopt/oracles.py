"""Forward pass, backward passes and roll-outs for the five solver oracles.

Each oracle evaluation is one forward pass recording expansions of the
dynamics and costs along the visited trajectory, one backward Bellman
sweep producing affine policies and the cost-to-go at time 0, and one
roll-out of the policies along either the linearized step maps (gradient,
Gauss-Newton, Newton) or the original-dynamics increment maps (the two
DDP variants).  :data:`ORACLES` is the single description of the kinds,
and :func:`rollout`, the one roll-out, reads its map from there.

The forward pass stores the stage matrices stacked over the stages
(:class:`ExpansionBundle`).  :func:`run_backward` is the one public sweep:
it checks the ridge once, then runs the kind's sweep on those raw arrays.
Given a ladder of ridges it sweeps them as the lanes of one pass and
returns a :class:`RidgeLadder` of per-ridge results, each the one-ridge
sweep's bit for bit.  The gradient sweep (``_backward_gd``) reads its
offsets -grad J / nu from the bundle's adjoint recursion, the one the
package runs, once per ridge; ``lbp`` is its stage written alone.  The
quadratic sweep (``_backward_quadratic``) factors each stage's control
Hessian once (``check_subproblem``) and reuses the factor in the
closed-form stage (``lqbp``); on a ladder both run once per stage over
every lane, their products stacked over a leading lane axis.  It adds the
blocks of the packed curvature contraction
(:func:`autodiff.hessian_blocks`): for Newton against the adjoints, one
block of stages at a time, so no temporary spans the horizon; for DDP-Q
against the cost-to-go slope, stage by stage.  Each second-order
expansion of the forward pass, of the dynamics as of the costs, traces
every long run before its first sweep.  The dynamics curvature is stored
over only the pairs the traced blocks seeded
(:attr:`ExpansionBundle.curvature_pairs`); both folds go through
``_folded``, which widens the contraction to every pair, an unstored pair
reading as a +0.0 column folds.  The policies come out
stacked as gains ``K`` (horizon, n_u, n_x) and offsets ``k`` (horizon,
n_u); :func:`rollout` takes them with the bundle and the kind, and its DDP
maps difference the original dynamics against the states the bundle
visited.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import autodiff
from .core import TrajectoryProblem, _array, _scalar, _sym
from .errors import DivergenceError, ParameterError, ShapeError

__all__ = [
    "ORACLES",
    "ORACLE_KINDS",
    "OracleSpec",
    "ExpansionBundle",
    "OracleDirection",
    "RidgeLadder",
    "oracle_spec",
    "forward",
    "objective_value",
    "check_subproblem",
    "lqbp",
    "lbp",
    "run_backward",
    "bundle_gradient",
    "rollout",
    "oracle_step",
    "oracle",
]


@dataclass(frozen=True)
class OracleSpec:
    """What one oracle kind expands, folds into its sweep and rolls out along."""

    o_f: int
    o_h: int
    contraction: str | None
    rolls_original: bool
    start_nu: float

    def _admits(self, nu: float) -> bool:
        """Whether the ridge nu is in range: 0 < nu < inf (linear costs) or 0 <= nu < inf."""
        return 0.0 <= nu < math.inf and (nu > 0.0 or self.o_h == 2)

    def check_ridge(self, nu) -> None:
        """:class:`ParameterError` unless nu is a real number the kind :meth:`_admits`."""
        _scalar(nu, "nu", ends="[]")
        if not self._admits(nu):
            raise ParameterError(f"nu must be in [0, inf), or (0, inf) for linear costs, got {nu!r}")


# The oracle kinds.  ``o_f`` and ``o_h`` are the forward-pass orders of the
# dynamics and the costs.  Order-1 costs make the sweep gradient
# back-propagation (:func:`_backward_gd`); order-2 costs make it one Bellman
# sweep on linearized dynamics and quadratic costs, where each stage cost
# gains the curvature of f_t contracted against the vector ``contraction``:
#   None           none: the Gauss-Newton (ILQR) step;
#   "adjoint"      the adjoint lam_{t+1}, run as lam_t = grad_x h_t + A_t' lam_{t+1}
#                  from the final cost slope, which makes the swept subproblem
#                  the exact second-order model of the objective (Newton);
#   "value-slope"  the slope of the running cost-to-go at the origin (DDP-Q).
# ``rolls_original``: the roll-out (:func:`rollout`) follows the
# original-dynamics increment maps instead of the linearized ones.
# ``start_nu`` is the ridge a search starts from: the gradient sweep needs
# nu > 0, and at nu = 1 its direction is exactly the negative gradient.
ORACLES = MappingProxyType({
    "gd": OracleSpec(1, 1, None, False, 1.0),
    "gn": OracleSpec(1, 2, None, False, 0.0),
    "ne": OracleSpec(2, 2, "adjoint", False, 0.0),
    "ddp-lq": OracleSpec(1, 2, None, True, 0.0),
    "ddp-q": OracleSpec(2, 2, "value-slope", True, 0.0),
})

ORACLE_KINDS = tuple(ORACLES)


def oracle_spec(kind: str) -> OracleSpec:
    """The table entry of an oracle kind; unknown kinds raise :class:`ParameterError`."""
    if kind not in ORACLE_KINDS:
        raise ParameterError(f"unknown oracle kind {kind!r}; expected one of {ORACLE_KINDS}")
    return ORACLES[kind]


# Floats a number of a blocked derivative sweep carries over a block: a
# first-order number's gradient, m per stage, within SLOT_BUDGET; a
# second-order jet's m + P (its gradient and its P seeded pairs) within
# 3 * SLOT_BUDGET.  Longer blocks run faster but hold larger temporaries.
# The Newton fold (P floats per stage) and the length from which a run is
# traced count SLOT_BUDGET // P stages, P = m(m+1)/2.
SLOT_BUDGET = 264


def _cap(floats: int, budget: int = SLOT_BUDGET) -> int:
    """Stages per block when each stage takes ``floats`` of ``budget`` (see SLOT_BUDGET)."""
    return max(1, budget // floats)


@dataclass(frozen=True)
class ExpansionBundle:
    """Derivative information recorded by one forward pass, stacked over the stages.

    ``xs`` (horizon + 1, n_x) holds the visited states, x_0 first, and
    ``cost`` the objective, its stage costs summed in stage order.  Orders
    0/1/2 control what is stored: nothing beyond the trajectory and cost,
    first derivatives, or second derivatives.  Order-1 dynamics give
    ``A`` (horizon, n_x, n_x) and ``B`` (horizon, n_x, n_u), views of the
    stacked Jacobians.  Order-1 costs give the slopes ``p`` (horizon, n_x)
    and ``q`` (horizon, n_u) and the final slope; order-2 costs add the
    C-contiguous blocks ``H``, ``Q``, ``R`` (horizon, n_x, n_u) and the
    final Hessian, taken from the packed cost Hessians.  For order-2
    dynamics ``curvature`` (horizon, n_x, k) holds each stage's per-output
    second derivatives in the joint point (x_t, u_t) along k pairs (i, j)
    of its m = n_x + n_u inputs: the pairs some traced block of the
    dynamics seeded, at the positions ``curvature_pairs`` in the pair
    order of :func:`autodiff.block_jacobian_curvature`, or every pair,
    k = m(m+1)/2, in that order when ``curvature_pairs`` is None (a run
    seeded them all).  A pair that is not stored is +0.0 at every stage.
    The backward sweep contracts a stage's rows against whatever vector it
    needs.  :func:`rollout` steps along ``A`` and ``B``, or along the
    original dynamics from ``xs`` and ``u``.
    """

    problem: TrajectoryProblem
    u: np.ndarray
    xs: np.ndarray
    cost: float
    o_f: int
    o_h: int
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    H: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    p: np.ndarray | None = None
    q: np.ndarray | None = None
    final_slope: np.ndarray | None = None
    final_quad: np.ndarray | None = None
    curvature: np.ndarray | None = None
    curvature_pairs: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.problem.horizon

    @cached_property
    def adjoints(self) -> np.ndarray:
        """The adjoints lam_1 .. lam_tau of the objective, stacked (horizon, n_x).

        Row t is lam_{t+1}, the slope of the cost-to-go at x_{t+1}: lam_tau
        is the final cost slope and lam_t = p_t + A_t' lam_{t+1}.  Computed
        once per bundle; :func:`bundle_gradient` and the Newton sweep both
        read it.
        """
        if self.o_h < 1 or self.o_f < 1:
            raise ParameterError("the adjoint recursion needs order-1 information")
        A, p = self.A, self.p
        lam = np.empty((self.horizon, self.problem.n_x))
        lam[-1] = self.final_slope
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite adjoint
            for t in range(self.horizon - 1, 0, -1):
                lam[t - 1] = p[t] + A[t].T @ lam[t]
        return lam

    def cost_slope_norm(self) -> float:
        """Euclidean norm of all stage-cost gradients along the trajectory."""
        if self.p is None:
            raise ParameterError("bundle was built with o_h=0; no cost slopes stored")
        total = float(self.final_slope @ self.final_slope)
        for p, q in zip(self.p, self.q):
            total += float(p @ p) + float(q @ q)
        return math.sqrt(total)


@dataclass(frozen=True)
class OracleDirection:
    """Result of one oracle evaluation.

    ``K`` (horizon, n_u, n_x) and ``k`` (horizon, n_u) are the policies
    v_t = K_t y_t + k_t and ``c0_zero`` the swept cost-to-go at time 0.
    ``feasible`` is False when a stage failed its factorization or descent
    test, or the sweep's output was not finite; ``failed_stage`` then names
    that stage, the policies are None and ``c0_zero`` reads +inf, so
    line-search loops can branch on it without exception handling.
    """

    K: np.ndarray | None
    k: np.ndarray | None
    c0_zero: float
    feasible: bool
    direction: np.ndarray | None = None
    failed_stage: int | None = None


def checked_controls(problem: TrajectoryProblem, u, name: str) -> np.ndarray:
    """Controls given to a public entry point as a finite (horizon, n_u) array.

    Runs before any model, so bad input is named here instead of failing
    inside a cost or dynamics evaluation.
    """
    return _array(u, name, (problem.horizon, problem.n_u), steps=True)


def objective_value(problem: TrajectoryProblem, u: np.ndarray) -> float:
    """Total cost of rolling controls u through the problem (order-0 forward)."""
    return forward(problem, u, o_f=0, o_h=0).cost


def _step(problem: TrajectoryProblem, t: int, x: list, u_t: list) -> list:
    """f_t(x, u_t) on plain floats as n_x floats: the one checked dynamics step.

    The roll and the DDP roll-outs (:func:`rollout`) both step here.  A model's
    ``ArithmeticError`` or a non-finite entry raises :class:`DivergenceError`
    naming t, an output that is not n_x long :class:`ShapeError`.
    """
    try:
        x = [float(v) for v in problem.dynamics[t](x, u_t)]
    except ArithmeticError as err:
        raise DivergenceError(t, f"dynamic evaluation failed at t={t}: {err}") from err
    if len(x) != problem.n_x:
        raise ShapeError(f"dynamics at t={t} gave {len(x)} entries, expected n_x={problem.n_x}")
    if not all(map(math.isfinite, x)):
        raise DivergenceError(t)
    return x


def _cost(problem: TrajectoryProblem, t: int, x: list, u_t: list | None) -> float:
    """Cost stage t at plain floats, checked as :func:`_step` checks; a non-scalar is a ShapeError.

    Stage ``horizon`` is the final cost at x, as in :func:`_expansions`.
    """
    try:
        value = problem.running_costs[t](x, u_t) if t < problem.horizon else problem.final_cost(x)
        try:
            h_val = float(value)
        except TypeError:
            raise ShapeError(f"the cost at t={t} gave a {type(value).__name__}, "
                             "expected a scalar") from None
    except ArithmeticError as err:
        raise DivergenceError(t, f"cost evaluation failed at t={t}: {err}") from err
    if not math.isfinite(h_val):
        raise DivergenceError(t)
    return h_val


# Inside a solve, a one-entry list: its last completed roll, (problem, (shape, bytes)
# of the controls, states, total), or None.  Per context, so threads and nested solves
# keep their own; None outside a solve.
_LAST_ROLL = contextvars.ContextVar("trajopt_last_roll", default=None)


def _roll(problem: TrajectoryProblem, u: np.ndarray) -> tuple[np.ndarray, float]:
    """States (horizon + 1, n_x) and total cost of controls u, on plain floats.

    Each stage runs the checked cost and dynamics step (:func:`_cost`,
    :func:`_step`), so no stage wraps its few-entry vectors in numpy; the
    state entries go into one flat list, stacked once at the end.  Inside a
    solve (:data:`_LAST_ROLL`), a roll of the same problem at controls of
    the same shape and bytes as the last completed roll returns that roll
    and evaluates no model; bytes, not values, so -0.0 and +0.0 differ.
    """
    memo = _LAST_ROLL.get()
    if memo is not None:
        key = (u.shape, u.tobytes())
        if memo[0] is not None and memo[0][0] is problem and memo[0][1] == key:
            return memo[0][2:]
    x = problem.x0.tolist()
    flat = list(x)
    total = 0.0
    for t, u_t in enumerate(u.tolist()):
        total += _cost(problem, t, x, u_t)
        x = _step(problem, t, x, u_t)
        flat += x
    total += _cost(problem, problem.horizon, x, None)
    xs = np.array(flat).reshape(problem.horizon + 1, problem.n_x)
    if memo is not None:
        memo[0] = (problem, key, xs, total)
    return xs, total


def _joint(fn, n_x: int):
    """A stage model (x, u) -> ... as a function of the joint point z = (x, u)."""
    return lambda z: fn(z[:n_x], z[n_x:])


def _jacobian_sweep(g, zs):
    return (autodiff.block_jacobian(g, zs),)


def _runs(fns):
    """(start, stop) of each run of consecutive stages that share one callable."""
    start = 0
    while start < len(fns):
        stop = start + 1
        while stop < len(fns) and fns[stop] is fns[start]:
            stop += 1
        yield start, stop
        start = stop


def _store(results, parts, start: int, stop: int, n: int, stored=None) -> tuple:
    """``results`` (allocated for n stages on first use) with ``parts`` in rows start..stop-1.

    ``stored``, pair positions, keeps only those columns of the second part,
    a block's packed second derivatives.  Passing a sweep's result straight
    in frees it before the next sweep.
    """
    if stored is not None:
        parts = parts[0], parts[1][..., stored]
    if results is None:
        results = tuple(np.empty((n,) + p.shape[1:]) for p in parts)
    for out, part in zip(results, parts):
        out[start:stop] = part
    return results


def _every_pair(packed: np.ndarray, stored: np.ndarray, pairs: int, fill=0.0) -> np.ndarray:
    """``packed``, columns over the pair positions ``stored``, widened to all ``pairs`` columns.

    The other columns read ``fill``, a number or a column that broadcasts
    against the rows.
    """
    full = np.empty(packed.shape[:-1] + (pairs,))
    full[...] = fill
    full[..., stored] = packed
    return full


def _traced_lanes(g, zs) -> tuple:
    # a floating-point exception raises here, so the run falls back to full
    # seeds and its sweeps fail, or not, exactly as an untraced run's do
    with np.errstate(all="raise", under="ignore"):
        return autodiff.structural_lanes(g, zs)


def _traced_run(g, zs: np.ndarray, start: int, stop: int) -> tuple | None:
    """The blocks of one run and the pairs each seeds, traced before any of its sweeps.

    The run's pattern sizes its blocks; each block then seeds the pattern
    traced at its own points, since a branch may go another way there.
    Returns ``((lo, hi, lanes), ...)``, or None when a trace fails: the run
    then seeds every pair.
    """
    try:
        lanes = _traced_lanes(g, zs[start:stop])
        cap = _cap(zs.shape[1] + len(lanes), 3 * SLOT_BUDGET)
        if cap >= stop - start:
            return ((start, stop, lanes),)
        return tuple([(lo, min(lo + cap, stop), _traced_lanes(g, zs[lo:min(lo + cap, stop)]))
                      for lo in range(start, stop, cap)])
    except ArithmeticError:
        return None


def _traced_ahead(fns, zs: np.ndarray, n_x: int, order: int) -> tuple:
    """The traces of every run of an ``order`` expansion, taken before any sweep, and their pairs.

    Returns ``(ahead, stored)``: ``ahead`` maps each run's (start, stop),
    in stage order, to its :func:`_traced_run`, or to None for a run that
    is not traced: a first-order run, or one whose untraced second-order
    sweeps are cheap, at most two Newton fold blocks long (see
    :data:`SLOT_BUDGET`).  ``stored`` holds the positions of the pairs some
    block seeds, or is None for every pair, as when a run seeds them all.
    """
    pairs = zs.shape[1] * (zs.shape[1] + 1) // 2
    short = 2 * _cap(pairs) if order == 2 else len(fns)
    ahead = {(start, stop): _traced_run(_joint(fns[start], n_x), zs, start, stop)
             if stop - start > short else None for start, stop in _runs(fns)}
    if None in ahead.values():
        return ahead, None
    seeded = sorted(set().union(*(lanes for blocks in ahead.values() for *_, lanes in blocks)))
    if len(seeded) == pairs:
        return ahead, None
    stored = np.array(seeded, dtype=np.intp)
    stored.flags.writeable = False
    return ahead, stored


def _expand(sweep, fns, zs: np.ndarray, n_x: int, order: int) -> tuple:
    """Results of ``sweep`` of derivative ``order`` at every stage's point, and the pairs they keep.

    A run of consecutive stages that share one callable is cut into blocks
    as :data:`SLOT_BUDGET` sizes them; ``sweep`` evaluates a block once on
    all of its points, and a block of one stage runs on plain floats.  A
    first-order sweep seeds the m inputs.  A second-order sweep seeds all
    m(m+1)/2 pairs, unless its run is long: every run is then traced
    (:func:`_traced_ahead`) before the first sweep, and each block seeds
    only the pairs traced at its own points, which gives the same results
    bit for bit, and +0.0 in the pairs it does not seed.  A trace or a
    traced sweep that fails sends its run back to full seeds, so errors
    name the same stage.

    Returns ``(stacks, stored)``: the results stacked over the stages, and
    the pair positions the second stack keeps, or None for every pair.  A
    run that falls back to full seeds widens the stack to every pair.
    """
    n, m = len(fns), zs.shape[1]
    pairs = m * (m + 1) // 2
    cap = _cap(m) if order == 1 else _cap(m + pairs, 3 * SLOT_BUDGET)
    ahead, stored = _traced_ahead(fns, zs, n_x, order)
    results = None
    for (start, stop), blocks in ahead.items():
        g = _joint(fns[start], n_x)
        if blocks is not None:
            try:
                for lo, hi, lanes in blocks:
                    results = _store(results, sweep(g, zs[lo:hi], lanes), lo, hi, n, stored)
                continue
            except ArithmeticError:  # full seeds fill every pair's column
                if stored is not None and results is not None:
                    results = results[0], _every_pair(results[1], stored, pairs)
                stored = None
        for lo in range(start, stop, cap):
            hi = min(lo + cap, stop)
            try:
                results = _store(results, sweep(g, zs[lo:hi]), lo, hi, n)
            except ArithmeticError as err:
                raise DivergenceError(
                    lo, f"model differentiation failed in steps {lo}..{hi - 1}: {err}"
                ) from err
    return results, stored


def _finite_rows(*stacks: np.ndarray) -> np.ndarray:
    """Per stage of stacked derivatives: whether all their entries are finite."""
    return np.logical_and.reduce([np.isfinite(s.reshape(len(s), -1)).all(axis=1) for s in stacks])


_SWEEPS = (None, _jacobian_sweep, autodiff.block_jacobian_curvature)  # by derivative order


def _expansions(problem: TrajectoryProblem, xs: np.ndarray, u: np.ndarray, o_f: int,
                o_h: int) -> dict:
    """Bundle fields holding the derivatives at the visited points.

    One :func:`_expand` call expands the dynamics and one the costs: a
    cost is a model with one output, and the final cost is cost stage
    ``horizon``, at (x_tau, zero controls).  Each cost Hessian block is
    gathered from the packed pairs by one ``take`` at its
    :func:`autodiff.hessian_blocks` positions.  Raises
    :class:`DivergenceError` at the first stage whose derivatives fail or
    are not finite; stage ``horizon`` is the final cost.
    """
    tau, n_x, n_u = problem.horizon, problem.n_x, problem.n_u
    zs = np.hstack([xs, np.vstack([u, np.zeros((1, n_u))])])
    ok = np.ones(tau + 1, dtype=bool)
    fields = {}
    if o_f:
        # A and B stay strided views: with contiguous copies the sweep's
        # matmuls take other BLAS paths, and the offsets and c0 of cart-pole
        # and bicycle-car sweeps change in their last bits
        (jac, *curvature), stored = _expand(_SWEEPS[o_f], problem.dynamics, zs, n_x, o_f)
        ok[:tau] = _finite_rows(jac, *curvature)
        fields.update(A=jac[:, :, :n_x], B=jac[:, :, n_x:])
        if curvature:
            (curvature,) = curvature
            fields.update(curvature=curvature, curvature_pairs=stored)
    if o_h:
        costs = problem.running_costs + (lambda x, _: problem.final_cost(x),)
        # the final cost is a one-stage run, which seeds every pair: no pair is dropped
        (grad, *packed), _ = _expand(_SWEEPS[o_h], costs, zs, n_x, o_h)
        ok &= _finite_rows(grad, *packed)
        grad = grad[:, 0]
        fields.update(p=grad[:tau, :n_x], q=grad[:tau, n_x:], final_slope=grad[tau, :n_x])
    del zs  # freed before the Hessian blocks are allocated
    if not ok.all():
        t = int(np.argmin(ok))
        raise DivergenceError(t, f"non-finite derivative at t={t}")
    if o_h == 2:
        # take(at, axis=-1), not pairs[:tau, at]: the fancy index returns a
        # strided stack, which slows the sweep's stage arithmetic
        at_H, at_Q, at_R = autodiff.hessian_blocks(n_x, n_u)
        pairs = packed[0][:, 0]
        fields.update(H=pairs[:tau].take(at_H, axis=-1), Q=pairs[:tau].take(at_Q, axis=-1),
                      R=pairs[:tau].take(at_R, axis=-1), final_quad=pairs[tau].take(at_H, axis=-1))
    return fields


def forward(problem: TrajectoryProblem, u, o_f: int = 1, o_h: int = 2) -> ExpansionBundle:
    """Roll the trajectory for controls ``u`` and record expansions.

    ``u`` has shape (horizon, n_u), else :class:`ShapeError`.  The states and
    costs come from one sequential pass on plain floats; the expansions at
    the visited points are independent and taken block by block (see
    :func:`_expand`).  At ``o_f == 2`` one second-order sweep per block
    gives both the dynamics Jacobians and the stacked curvature.  Raises
    :class:`DivergenceError` when a state, cost or derivative turns
    non-finite, carrying the offending step.
    """
    _scalar(o_f, "o_f, the dynamics order", 0, 2, ends="[]", integer=True)
    _scalar(o_h, "o_h, the cost order", 0, 2, ends="[]", integer=True)
    u = _array(u, "u", (problem.horizon, problem.n_u), finite=False, steps=True)
    xs, total = _roll(problem, u)
    fields = {}
    if o_f or o_h:
        # overflow shows as a non-finite derivative, which _expansions reports
        with np.errstate(all="ignore"):
            fields = _expansions(problem, xs, u, o_f, o_h)
    return ExpansionBundle(
        problem=problem,
        u=u,
        xs=xs,
        cost=total,
        o_f=o_f,
        o_h=o_h,
        **fields,
    )


def _infeasible(t: int) -> OracleDirection:
    return OracleDirection(K=None, k=None, c0_zero=math.inf, feasible=False, failed_stage=t)


def _overflowed(K: np.ndarray, k: np.ndarray) -> int | None:
    """The last stage (the first swept) whose policy is not finite, else None."""
    bad = np.flatnonzero(~(np.isfinite(K).all(axis=(1, 2)) & np.isfinite(k).all(axis=1)))
    return int(bad[-1]) if bad.size else None


def _swept(K: np.ndarray, k: np.ndarray, c0_zero: float) -> OracleDirection:
    """The sweep's result after one finiteness check of its stacked output.

    A stage whose policy overflowed names itself (see :func:`_overflowed`).
    A non-finite c0 alone names stage 0.
    """
    t = _overflowed(K, k)
    if t is not None:
        return _infeasible(t)
    if not math.isfinite(c0_zero):
        return _infeasible(0)
    return OracleDirection(K, k, c0_zero, True)


def _backward_gd(bundle: ExpansionBundle, nu: float) -> OracleDirection:
    """Backward sweep with linear models: gradient back-propagation.

    The policies are the constant offsets -grad_t J / nu, read from
    :func:`bundle_gradient`, and the affine cost-to-go at 0 equals
    -|grad J|^2 / (2 nu).
    """
    g = bundle_gradient(bundle)
    # summed stage by stage from the last, as a sweep would: a vectorized
    # sum differs in its last bits
    j0 = 0.0
    for t in range(bundle.horizon - 1, -1, -1):
        j0 = j0 - float(g[t] @ g[t]) / (2.0 * nu)
    return _swept(np.zeros(g.shape + (bundle.problem.n_x,)), -g / nu, j0)


def lbp(A, B, p, q, j, j0: float, nu: float) -> tuple:
    """One stage of ``_backward_gd``: linear dynamics and costs, ridge nu.

    The cost-to-go stays affine and the policy is a constant offset.
    Returns ``(j_t, j0_t, k)``.
    """
    _scalar(nu, "nu", 0.0)
    g = q + B.T @ j
    return p + A.T @ j, j0 - float(g @ g) / (2.0 * nu), -g / nu


# Round-off allowance for the descent check: a stage whose cost-to-go
# offset decrement is zero up to this relative level (a zero-slope stage)
# is still solvable and must not flip between valid and invalid on the
# sign of a rounding error.
DESCENT_STRICTNESS = 1e-14


@lru_cache(maxsize=None)
def _lapack():
    """LAPACK's ``(dpotrf, dpotrs)``, imported at the first call.

    The stages call them raw, as ``scipy.linalg.cho_factor``/``cho_solve``
    do after argument checks that cost several times the factorization of
    a block a few numbers wide.  Only blocks of more than one control get
    here, so one-control problems never load scipy.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def check_subproblem(B, Q, q, J, j, j0: float):
    """Factor a stage's control Hessian and run the stage's descent test.

    The control Hessian is M = Q + B'JB and the control slope m = q + B'j.
    Returns ``(factor, m, Minv_m, decrement)``, the input of :func:`lqbp`:
    ``factor`` is the lower Cholesky factor of M as ``dpotrf`` leaves it (a
    Fortran-ordered array whose upper triangle still holds M's entries) and
    ``decrement`` the cost-to-go offset decrement -0.5 m'M^-1 m.  Returns
    None when the factorization fails or the decrement comes out positive
    beyond round-off; a zero-slope stage (e.g. the last step of a problem
    started at a rest state) passes.  Whether the whole sweep descends is
    the sign of its c0, which the step rules of :mod:`trajopt.linesearch`
    test.

    A 1x1 block makes no LAPACK call and gives ``dpotrf``/``dpotrs``'s
    results bit for bit: the factor l = sqrt(a), rejected at a <= 0, and a
    solve ``(b * r) * r`` with r = 1/l, as OpenBLAS's triangular solves
    multiply by the reciprocal of the diagonal; ``(b / l) / l`` would not be.

    Laned form, G stages at once: ``J`` (G, n_x, n_x), ``j`` (G, n_x, 1)
    and ``j0`` (G,) stack G next cost-to-go functions, ``q`` is a column
    (n_u, 1) and ``Q`` may stack G blocks.  Each lane is the 2-D call's
    arithmetic, bit for bit, with ``m`` and ``Minv_m`` as (G, n_u, 1)
    columns.  The tuple always returns: a failed lane's ``decrement``
    reads NaN, and for n_u > 1 ``factor`` is a list of per-lane factors,
    None where ``dpotrf`` failed.  Run it under ``np.errstate`` to silence
    a failed lane's arithmetic.
    """
    M, m = Q + B.T @ J @ B, q + B.T @ j
    if J.ndim == 3:
        return _check_lanes(M, m, j0)
    if len(m) == 1:
        a = M.item()
        a = 0.5 * (a + a)
        if a <= 0.0:  # dpotrf's test; a NaN block fails the descent test below
            return None
        factor = np.array([[math.sqrt(a)]])
        r = 1.0 / factor.item()
        slope = m.item()
        x = (slope * r) * r
        # x has the slope's sign: slope * x is never -0.0, so it is ddot's 0.0 + slope * x
        Minv_m, decrement = np.array([x]), -0.5 * (slope * x)
    else:
        dpotrf, dpotrs = _lapack()
        factor, info = dpotrf(_sym(M), lower=1, clean=0)
        if info:
            return None
        Minv_m = dpotrs(factor, m, lower=1)[0]
        decrement = -0.5 * float(m @ Minv_m)
    if not decrement < DESCENT_STRICTNESS * (1.0 + abs(j0)):
        return None
    return factor, m, Minv_m, decrement


def _check_lanes(M: np.ndarray, m: np.ndarray, j0: np.ndarray) -> tuple:
    """:func:`check_subproblem` on G lanes, M (G, n_u, n_u) and m (G, n_u, 1), lane by lane.

    A 1x1 lane runs the closed form on its own floats, a wider one its own
    ``dpotrf``/``dpotrs`` calls; a lane that fails either test keeps a NaN
    decrement.
    """
    lanes = len(m)
    decrement = [math.nan] * lanes
    if m.shape[1] == 1:
        factor, Minv_m = [math.nan] * lanes, [math.nan] * lanes
        for g, (a, slope) in enumerate(zip(M.ravel().tolist(), m.ravel().tolist())):
            a = 0.5 * (a + a)
            if a > 0.0:  # dpotrf's test; a NaN block would fail the descent test
                factor[g] = math.sqrt(a)
                r = 1.0 / factor[g]
                Minv_m[g] = (slope * r) * r
                decrement[g] = -0.5 * (slope * Minv_m[g])
        factor, Minv_m = np.array(factor)[:, None, None], np.array(Minv_m)[:, None, None]
    else:
        dpotrf, dpotrs = _lapack()
        factor, Minv_m = [], np.full(m.shape, np.nan)
        for g, M_g in enumerate(_sym(M)):
            f, info = dpotrf(M_g, lower=1, clean=0)
            factor.append(None if info else f)
            if not info:
                Minv_m[g] = dpotrs(f, m[g], lower=1)[0]
                decrement[g] = -0.5 * float(m[g, :, 0] @ Minv_m[g, :, 0])
    for g, level in enumerate(j0.tolist()):
        if not decrement[g] < DESCENT_STRICTNESS * (1.0 + abs(level)):
            decrement[g] = math.nan
    return factor, m, Minv_m, np.array(decrement)


def _solve_lanes(factor, N: np.ndarray) -> np.ndarray:
    """M^-1 N' per lane from a laned :func:`check_subproblem` factor, as :func:`lqbp` solves."""
    if isinstance(factor, np.ndarray):  # the 1x1 closed form
        r = 1.0 / factor
        return (N.swapaxes(-1, -2) * r) * r
    # each lane Fortran-ordered, as the 2-D solve returns it
    Minv_NT = np.full(N.shape, np.nan).swapaxes(-1, -2)
    for g, f in enumerate(factor):
        if f is not None:
            Minv_NT[g] = _lapack()[1](f, N[g].T, lower=1)[0]
    return Minv_NT


def lqbp(A, B, H, R, p, J, j, j0: float, checked) -> tuple:
    """Closed-form solution of one linear-quadratic Bellman stage.

    The stage is the step ``y_next = A y + B v``, the stage cost
    0.5 y'Hy + 0.5 v'Qv + y'Rv + p'y + q'v and the next cost-to-go
    0.5 y'Jy + j'y + j0; Q and q enter through ``checked``, the stage's
    :func:`check_subproblem` result.  Returns ``(J_t, j_t, j0_t, K, k)``:
    the cost-to-go at time t and the minimizing policy v = K y + k.

    Laned form: ``J``, ``j``, ``j0`` and ``checked`` as the laned
    :func:`check_subproblem` takes and gives them, ``p`` a column (n_x, 1),
    and ``H`` and ``R`` shared or stacked over the G lanes.  Each output
    gains the lane axis, ``j_t`` and ``k`` as columns, and each lane is the
    2-D call's result bit for bit; a failed lane's outputs are not finite.
    """
    factor, m, Minv_m, decrement = checked
    AtJ = A.T @ J
    # Cross term between state and control of the stage-plus-to-go quadratic.
    N = R + AtJ @ B  # (n_x, n_u)
    if J.ndim == 3:
        Minv_NT = _solve_lanes(factor, N)
    elif len(m) == 1:
        r = 1.0 / factor.item()
        Minv_NT = (N.T * r) * r
    else:
        Minv_NT = _lapack()[1](factor, N.T, lower=1)[0]
    J_t = _sym(H + AtJ @ A - N @ Minv_NT)
    j_t = p + A.T @ j - N @ Minv_m
    return J_t, j_t, j0 + decrement, -Minv_NT, -Minv_m


def _folded(bundle: ExpansionBundle, stages, lam: np.ndarray) -> np.ndarray:
    """The dynamics curvature of ``stages`` (a stage or a slice) folded against ``lam``, over every pair.

    :func:`autodiff.contract_curvature` of the stored pairs, widened to all
    m(m+1)/2.  A pair the bundle does not store is +0.0 at every stage, so
    it reads the fold of a +0.0 column, 0.0 + sum_k lam_k * 0.0: +0.0, or
    NaN where ``lam`` is not finite.  Folding the stored pairs alone keeps
    the fold's temporaries at their width.
    """
    curvature, stored = bundle.curvature[stages], bundle.curvature_pairs
    sums = autodiff.contract_curvature(curvature, lam)
    if stored is None:
        return sums
    m = bundle.problem.n_x + bundle.problem.n_u
    unstored = 0.0  # folded only where lam is not finite: the test costs less than the fold
    if not np.isfinite(lam).all():
        unstored = autodiff.contract_curvature(np.zeros((curvature.shape[-2], 1)), lam)
    return _every_pair(sums, stored, m * (m + 1) // 2, unstored)


class RidgeLadder(tuple):
    """The :class:`OracleDirection` of each ridge of a ladder swept as one laned pass, in order."""

    @property
    def feasible(self) -> bool:
        """Whether any lane is feasible."""
        return any(lane.feasible for lane in self)


def _failed_stage(t: int, K: np.ndarray, k: np.ndarray) -> int:
    """The stage to name when stage t fails its check: an earlier overflow fails
    later checks, so a stage swept before t whose policy overflowed names itself."""
    late = _overflowed(K[t + 1:], k[t + 1:])
    return t if late is None else t + 1 + late


def _backward_quadratic(
    bundle: ExpansionBundle, nu, contraction: str | None
) -> OracleDirection | RidgeLadder:
    """The Bellman sweep of every order-2-cost oracle (see :data:`ORACLES`).

    ``nu`` is one ridge, or a 1-D array of G ridges swept at once as lanes:
    a stage's cost-to-go and blocks then carry a leading lane axis and its
    vectors are columns, so every product runs per lane on the 2-D operands
    of the one-ridge sweep and each lane gives its result bit for bit.  A
    lane that fails a check keeps its failed stage and is carried on
    masked, and the pass ends once every lane has failed.
    """
    if bundle.o_h != 2:
        raise ParameterError("quadratic backward passes need order-2 cost information")
    if contraction is not None and bundle.curvature is None:
        raise ParameterError("curvature contraction needs order-2 dynamics information")
    tau, n_x, n_u = bundle.horizon, bundle.problem.n_x, bundle.problem.n_u
    A, B, p, q = bundle.A, bundle.B, bundle.p, bundle.q
    J, j, j0 = bundle.final_quad, bundle.final_slope, 0.0
    at_H, at_Q, at_R = autodiff.hessian_blocks(n_x, n_u)  # where the blocks sit in a packed fold
    # each K[t] (of each lane) Fortran-ordered, the layout of dpotrs's
    # solves: with C-ordered rows the roll-out's K[t] @ y takes another
    # BLAS path, and bicycle-car directions change in their last bits
    laned = isinstance(nu, np.ndarray)
    if laned:  # a block's Q gains the lane axis after its stage axis
        G = len(nu)
        ridge, Q_all, at_Q_block = nu[:, None, None] * np.eye(n_u), bundle.Q[:, None], at_Q[None]
        p, q = p[..., None], q[..., None]
        J, j, j0 = np.repeat(J[None], G, 0), np.repeat(j[None, :, None], G, 0), np.zeros(G)
        K, k = np.empty((tau, G, n_x, n_u)).swapaxes(-1, -2), np.empty((tau, G, n_u, 1))
        failed = [None] * G
    else:
        ridge, Q_all, at_Q_block = nu * np.eye(n_u), bundle.Q, at_Q
        K, k = np.empty((tau, n_x, n_u)).swapaxes(-1, -2), np.empty((tau, n_u))

    cap = _cap((n_x + n_u) * (n_x + n_u + 1) // 2)
    for lo in reversed(range(0, tau, cap)):  # one block's fold at a time, from the last
        hi = min(lo + cap, tau)
        # the ridge goes on before any curvature, (Q + nu I) + W_uu: the other
        # order moves the last bits of Newton directions at nu > 0
        H, Q, R = bundle.H[lo:hi], Q_all[lo:hi] + ridge, bundle.R[lo:hi]
        if contraction == "adjoint":  # the adjoints are known before the sweep
            W = _folded(bundle, slice(lo, hi), bundle.adjoints[lo:hi])
            H, Q, R = (H + W.take(at_H, axis=-1), Q + W.take(at_Q_block, axis=-1),
                       R + W.take(at_R, axis=-1))
        for t, H_t, Q_t, R_t in zip(range(hi - 1, lo - 1, -1), H[::-1], Q[::-1], R[::-1]):
            if contraction == "value-slope":  # the slope is only known here, stage by stage
                w = _folded(bundle, t, j[..., 0] if laned else j)
                H_t, Q_t, R_t = (H_t + w.take(at_H, axis=-1), Q_t + w.take(at_Q, axis=-1),
                                 R_t + w.take(at_R, axis=-1))
            checked = check_subproblem(B[t], Q_t, q[t], J, j, j0)
            if laned:
                for g, decrement in enumerate(checked[3].tolist()):
                    if math.isnan(decrement) and failed[g] is None:
                        failed[g] = _failed_stage(t, K[:, g], k[:, g, :, 0])
                if None not in failed:
                    return RidgeLadder(map(_infeasible, failed))
            elif checked is None:
                return _infeasible(_failed_stage(t, K, k))
            J, j, j0, K[t], k[t] = lqbp(A[t], B[t], H_t, R_t, p[t], J, j, j0, checked)
    if not laned:
        return _swept(K, k, j0)
    return _swept_lanes(K, k, j0, failed)


def _swept_lanes(K: np.ndarray, k: np.ndarray, j0: np.ndarray, failed: list) -> RidgeLadder:
    """A laned sweep's result: each lane as :func:`_swept` reads it, or the stage it failed at.

    Kept out of the sweep: a generator there would make K, k and j0 cell
    variables, one allocation each on every sweep, the one-ridge sweeps too.
    """
    return RidgeLadder(_swept(K[:, g], k[:, g, :, 0], float(j0[g])) if stage is None
                       else _infeasible(stage) for g, stage in enumerate(failed))


def run_backward(bundle: ExpansionBundle, kind: str, nu) -> OracleDirection | RidgeLadder:
    """The backward pass of one oracle kind, as :data:`ORACLES` describes it.

    ``nu`` is one ridge, or a ladder: a non-empty list, tuple or 1-D array
    of ridges, swept as the lanes of one pass.  A ladder returns a
    :class:`RidgeLadder` holding, per ridge, what the one-ridge call gives,
    bit for bit.  A ridge outside the kind's range
    (:meth:`OracleSpec.check_ridge`) or an empty ladder raises
    :class:`ParameterError`.
    """
    spec = oracle_spec(kind)
    ladder = isinstance(nu, (list, tuple)) or (isinstance(nu, np.ndarray) and nu.ndim == 1)
    for ridge in nu if ladder else (nu,):
        spec.check_ridge(ridge)
    if ladder:
        if len(nu) == 0:
            raise ParameterError("nu, a ladder of ridges, is empty")
        nu = np.array(nu, dtype=float)
    with np.errstate(all="ignore"):  # overflow ends as an infeasible result
        if spec.o_h == 1:  # linear cost models: gradient back-propagation
            if ladder:  # map: a generator would make the bundle a cell on every call
                return RidgeLadder(map(_backward_gd, [bundle] * len(nu), nu.tolist()))
            return _backward_gd(bundle, nu)
        return _backward_quadratic(bundle, nu, spec.contraction)


def bundle_gradient(bundle: ExpansionBundle) -> np.ndarray:
    """Objective gradient (horizon, n_u) recovered from order-1 bundle data.

    Stage t's gradient is q_t + B_t' lam_{t+1}, from the bundle's adjoint
    stack (:attr:`ExpansionBundle.adjoints`), the one adjoint recursion
    the package runs, which raises :class:`ParameterError` without order-1
    information, as does an argument that is not a bundle.
    """
    if not isinstance(bundle, ExpansionBundle):
        raise ParameterError(f"bundle must be an ExpansionBundle, got {type(bundle).__name__}")
    B, lam = bundle.B, bundle.adjoints
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite gradient
        return bundle.q + (B.transpose(0, 2, 1) @ lam[:, :, None])[:, :, 0]


def rollout(bundle: ExpansionBundle, kind: str, K, k) -> np.ndarray:
    """Controls (horizon, n_u) of the policies v_t = K[t] y_t + k[t], rolled out from y_0 = 0.

    The map is the one ``kind`` names in :data:`ORACLES`: the linearized
    step A_t y + B_t v, or for the DDP kinds the original-dynamics increment
    f_t(x_t + y, u_t + v) - f_t(x_t, u_t), whose base is the ``xs[t + 1]``
    the forward pass stored on the same floats, so only the moved point is
    evaluated, by the checked step (:func:`_step`).  A non-bundle, an
    unknown kind, or a linearized kind on a bundle without order-1 dynamics
    raises :class:`ParameterError`; ``K`` (horizon, n_u, n_x) and ``k``
    (horizon, n_u), flat forms accepted, must be finite, else
    :class:`ShapeError`.  A non-finite state raises :class:`DivergenceError`
    with the offending step; it is tested on the state's Python floats,
    which costs less than numpy's test on a few entries.
    """
    if not isinstance(bundle, ExpansionBundle):
        raise ParameterError(f"bundle must be an ExpansionBundle, got {type(bundle).__name__}")
    original = oracle_spec(kind).rolls_original
    if not original and bundle.o_f < 1:
        raise ParameterError(f"the {kind} roll-out needs a bundle with order-1 dynamics")
    problem, xs, u, A, B = bundle.problem, bundle.xs, bundle.u, bundle.A, bundle.B
    tau, n_u, n_x = problem.horizon, problem.n_u, problem.n_x
    K = _array(K, "K", (tau, n_u, n_x), steps=True)
    k = _array(k, "k", (tau, n_u), steps=True)
    y = np.zeros(n_x)
    controls = np.empty(k.shape)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite state
        for t in range(tau):
            v = K[t] @ y + k[t]
            controls[t] = v
            if original:
                moved = _step(problem, t, (xs[t] + y).tolist(), (u[t] + v).tolist())
                y = np.array(moved) - xs[t + 1]
            else:
                y = A[t] @ y + B[t] @ v
            if not all(map(math.isfinite, y.tolist())):
                raise DivergenceError(t)
    return controls


def oracle_step(bundle: ExpansionBundle, kind: str, nu: float) -> OracleDirection:
    """Backward pass on ``bundle``, then the roll-out along the kind's maps.

    The gradient oracle's constant policies make its roll-out a no-op, so
    it returns the stacked offsets directly.  An infeasible sweep returns
    without a roll-out.  ``nu`` is one ridge, checked as
    :meth:`OracleSpec.check_ridge` checks it.
    """
    spec = oracle_spec(kind)
    spec.check_ridge(nu)
    result = run_backward(bundle, kind, nu)
    if not result.feasible:
        return result
    if spec.o_h == 1:  # constant policies
        direction = result.k.copy()
    else:
        direction = rollout(bundle, kind, result.K, result.k)
    return replace(result, direction=direction)


def oracle(problem: TrajectoryProblem, u, kind: str, nu: float | None = None) -> OracleDirection:
    """One oracle evaluation: forward pass, backward pass and roll-out.

    ``u`` must be a finite (horizon, n_u) array, else :class:`ShapeError`.
    ``nu`` defaults to the kind's ``start_nu`` in :data:`ORACLES` and is
    checked as :func:`run_backward` checks it, before any model runs.
    """
    spec = oracle_spec(kind)
    u = checked_controls(problem, u, "u")
    if nu is None:
        nu = spec.start_nu
    spec.check_ridge(nu)
    return oracle_step(forward(problem, u, o_f=spec.o_f, o_h=spec.o_h), kind, nu)
