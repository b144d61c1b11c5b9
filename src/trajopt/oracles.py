"""Forward pass, backward passes and roll-outs for the five solver oracles.

Each oracle evaluation is one forward pass recording expansions of the
dynamics and costs along the visited trajectory, one backward Bellman
sweep producing affine policies and the cost-to-go at time 0, and one
roll-out of the policies along either the linearized step maps (gradient,
Gauss-Newton, Newton) or the original-dynamics increment maps (the two
DDP variants).  :data:`ORACLES` is the single description of the kinds.

The forward pass stores the stage matrices stacked over the stages
(:class:`ExpansionBundle`), and the sweeps run on those raw arrays: each
stage's control Hessian is factored once (``check_subproblem``) and the
factor is reused by the closed-form stage (``lqbp``).  The Newton sweep
folds the dynamics curvature of every stage against the bundle's adjoints
before its stage loop.  The policies come out stacked as gains ``K``
(horizon, n_u, n_x) and offsets ``k`` (horizon, n_u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import autodiff
from .core import TrajectoryProblem, _sym, finite_difference_dynamic
from .errors import DivergenceError, ParameterError, ShapeError
from .lqsolve import check_subproblem, lbp, lqbp

__all__ = [
    "ORACLES",
    "ORACLE_KINDS",
    "OracleSpec",
    "ExpansionBundle",
    "OracleDirection",
    "oracle_spec",
    "forward",
    "objective_value",
    "backward_gd",
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

    def step_map(self, bundle: ExpansionBundle):
        """The per-stage map ``(t, y, v) -> y_next`` this kind's roll-out follows."""
        return bundle.increment_step if self.rolls_original else bundle.linear_step


# The oracle kinds.  ``o_f`` and ``o_h`` are the forward-pass orders of the
# dynamics and the costs.  Order-1 costs make the sweep gradient
# back-propagation (:func:`backward_gd`); order-2 costs make it one Bellman
# sweep on linearized dynamics and quadratic costs, where each stage cost
# gains the curvature of f_t contracted against the vector ``contraction``:
#   None           none: the Gauss-Newton (ILQR) step;
#   "adjoint"      the adjoint lam_{t+1}, run as lam_t = grad_x h_t + A_t' lam_{t+1}
#                  from the final cost slope, which makes the swept subproblem
#                  the exact second-order model of the objective (Newton);
#   "value-slope"  the slope of the running cost-to-go at the origin (DDP-Q).
# ``rolls_original``: the roll-out follows the original-dynamics increment
# maps instead of the linearized ones.  ``start_nu`` is the ridge a search
# starts from: the gradient sweep needs nu > 0, and at nu = 1 its
# direction is exactly the negative gradient.
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


# Lanes one blocked derivative sweep carries in total: a block holds at
# most max(1, SLOT_BUDGET // lanes) stages, where a stage's lanes are what
# its sweep seeds: the m inputs for a Jacobian, the direction pairs for
# second derivatives (all m(m+1)/2, or the traced ones).  Longer blocks
# run faster but hold larger temporaries.
SLOT_BUDGET = 264


@dataclass(frozen=True)
class ExpansionBundle:
    """Derivative information recorded by one forward pass, stacked over the stages.

    ``xs`` (horizon + 1, n_x) holds the visited states, x_0 first, and
    ``step_costs`` the stage costs, the final cost last.  Orders 0/1/2
    control what is stored: nothing beyond the trajectory and cost, first
    derivatives, or second derivatives.  Order-1 dynamics give
    ``A`` (horizon, n_x, n_x) and ``B`` (horizon, n_x, n_u), views of the
    stacked Jacobians.  Order-1 costs give the slopes ``p`` (horizon, n_x)
    and ``q`` (horizon, n_u) and the final slope; order-2 costs add the
    blocks ``H``, ``Q`` (symmetrized once here), ``R`` (horizon, n_x, n_u)
    and the final Hessian.  For order-2 dynamics ``curvature`` (horizon,
    n_x, m(m+1)/2), m = n_x + n_u, holds each stage's per-output second
    derivatives in the joint point (x_t, u_t), packed over the pairs of
    ``np.triu_indices(m)`` (see :func:`autodiff.block_jacobian_curvature`);
    the backward sweep contracts a stage's rows against whatever vector it
    needs.
    """

    problem: TrajectoryProblem
    u: np.ndarray
    xs: np.ndarray
    step_costs: tuple
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

    @property
    def horizon(self) -> int:
        return self.problem.horizon

    def linear_step(self, t: int, y, v) -> np.ndarray:
        """The linearized dynamics of stage t: A_t y + B_t v."""
        return self.A[t] @ y + self.B[t] @ v

    def increment_step(self, t: int, y, v) -> np.ndarray:
        """The original-dynamics increment of stage t around the visited point.

        The forward pass stored f_t(x_t, u_t) as ``xs[t + 1]``, evaluated on
        the same floats, so only the moved point is evaluated here.
        """
        return finite_difference_dynamic(
            self.problem.dynamics[t], self.xs[t], self.u[t], y, v, t=t, base=self.xs[t + 1]
        )

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


def _shaped_controls(problem: TrajectoryProblem, u, name: str) -> np.ndarray:
    """Controls as a (horizon, n_u) float array, else :class:`ShapeError`."""
    u = np.asarray(u, dtype=float)
    shape = (problem.horizon, problem.n_u)
    if u.size != shape[0] * shape[1]:
        raise ShapeError(f"{name} has shape {u.shape}, expected {shape}")
    return u.reshape(shape)


def checked_controls(problem: TrajectoryProblem, u, name: str) -> np.ndarray:
    """Controls given to a public entry point as a finite (horizon, n_u) array.

    Runs before any model, so bad input is named here instead of failing
    inside a cost or dynamics evaluation.
    """
    u = _shaped_controls(problem, u, name)
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        raise ShapeError(f"{name} must be finite; step t={int(np.argmin(finite))} is not")
    return u


def objective_value(problem: TrajectoryProblem, u: np.ndarray) -> float:
    """Total cost of rolling controls u through the problem (order-0 forward)."""
    return forward(problem, u, o_f=0, o_h=0).cost


def _roll(problem: TrajectoryProblem, u: np.ndarray) -> tuple[np.ndarray, list, float]:
    """States (horizon + 1, n_x), step costs (final cost last) and total cost.

    The pass runs on Python float lists, so the models see plain floats
    and no stage wraps its few-entry vectors in numpy; the states are
    stacked once at the end.
    """
    x = problem.x0.tolist()
    xs = [x]
    step_costs = []
    total = 0.0
    for t, u_t in enumerate(u.tolist()):
        try:
            h_val = float(problem.running_costs[t](x, u_t))
            x = [float(v) for v in problem.dynamics[t](x, u_t)]
        except ArithmeticError as err:
            raise DivergenceError(t, f"model evaluation failed at t={t}: {err}") from err
        if not (math.isfinite(h_val) and all(map(math.isfinite, x))):
            raise DivergenceError(t)
        step_costs.append(h_val)
        total += h_val
        xs.append(x)
    tau = problem.horizon
    try:
        h_val = float(problem.final_cost(x))
    except ArithmeticError as err:
        raise DivergenceError(tau, f"final cost evaluation failed: {err}") from err
    if not math.isfinite(h_val):
        raise DivergenceError(tau)
    step_costs.append(h_val)
    return np.array(xs), step_costs, total + h_val


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


def _store(results, parts, start: int, stop: int, n: int) -> tuple:
    """``results`` (allocated for n stages on first use) with ``parts`` in rows start..stop-1.

    Passing a sweep's result straight in frees it before the next sweep.
    """
    if results is None:
        results = tuple(np.empty((n,) + p.shape[1:]) for p in parts)
    for out, part in zip(results, parts):
        out[start:stop] = part
    return results


def _traced_lanes(g, zs) -> tuple:
    # a floating-point exception raises here, so the run falls back to full
    # seeds and its sweeps fail, or not, exactly as an untraced run's do
    with np.errstate(all="raise", under="ignore"):
        return autodiff.structural_lanes(g, zs)


def _expand_traced(sweep, g, zs: np.ndarray, start: int, stop: int, results, n: int) -> tuple:
    """The second-order sweeps of one run, each block seeding only its traced pairs.

    The run's pattern sizes its blocks; each block then seeds the pattern
    traced at its own points, since a branch may go another way there.
    """
    lanes = _traced_lanes(g, zs[start:stop])
    cap = max(1, SLOT_BUDGET // len(lanes))
    for lo in range(start, stop, cap):
        hi = min(lo + cap, stop)
        if hi - lo < stop - start:
            lanes = _traced_lanes(g, zs[lo:hi])
        results = _store(results, sweep(g, zs[lo:hi], lanes), lo, hi, n)
    return results


def _expand(sweep, fns, zs: np.ndarray, n_x: int, order: int) -> tuple:
    """Results of ``sweep`` of derivative ``order`` at every stage's point, stacked over the stages.

    A run of consecutive stages that share one callable is cut into blocks
    of at most max(1, SLOT_BUDGET // lanes) stages; ``sweep`` evaluates a
    block once on all of its points, and a block of one stage runs on plain
    floats.  A first-order sweep seeds the m inputs.  A second-order sweep
    seeds all m(m+1)/2 pairs, unless its run would take more than two such
    blocks: the run is then traced (:func:`autodiff.structural_lanes`) and
    each block seeds only the pairs traced at its own points, which gives
    the same results bit for bit.  A trace or a traced sweep that fails
    sends its run back to full seeds, so errors name the same stage.
    """
    m, n = zs.shape[1], len(fns)
    cap = max(1, SLOT_BUDGET // (m if order == 1 else m * (m + 1) // 2))
    results = None
    for start, stop in _runs(fns):
        g = _joint(fns[start], n_x)
        if order == 2 and stop - start > 2 * cap:
            try:
                results = _expand_traced(sweep, g, zs, start, stop, results, n)
                continue
            except ArithmeticError:
                pass
        for lo in range(start, stop, cap):
            hi = min(lo + cap, stop)
            try:
                results = _store(results, sweep(g, zs[lo:hi]), lo, hi, n)
            except ArithmeticError as err:
                raise DivergenceError(
                    lo, f"model differentiation failed in steps {lo}..{hi - 1}: {err}"
                ) from err
    return results


def _finite_rows(*stacks: np.ndarray) -> np.ndarray:
    """Per stage of stacked derivatives: whether all their entries are finite."""
    return np.logical_and.reduce([np.isfinite(s.reshape(len(s), -1)).all(axis=1) for s in stacks])


@lru_cache(maxsize=64)
def _block_index(n_x: int, n_u: int) -> tuple:
    """Where the H, Q and R blocks of a Hessian in z = (x, u) sit among its packed pairs."""
    pairs = autodiff._pair_index(n_x + n_u)
    return pairs[:n_x, :n_x], pairs[n_x:, n_x:], pairs[:n_x, n_x:]


_SWEEPS = (None, _jacobian_sweep, autodiff.block_jacobian_curvature)  # by derivative order


def _expansions(problem: TrajectoryProblem, xs: np.ndarray, u: np.ndarray, o_f: int,
                o_h: int) -> dict:
    """Bundle fields holding the derivatives at the visited points.

    One :func:`_expand` call expands the dynamics and one the costs: a
    cost is a model with one output, and the final cost is cost stage
    ``horizon``, at (x_tau, zero controls).  The cost Hessian blocks are
    gathered straight from the packed pairs.  Raises
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
        jac, *curvature = _expand(_SWEEPS[o_f], problem.dynamics, zs, n_x, o_f)
        ok[:tau] = _finite_rows(jac, *curvature)
        fields.update(A=jac[:, :, :n_x], B=jac[:, :, n_x:],
                      curvature=curvature[0] if curvature else None)
    if o_h:
        costs = problem.running_costs + (lambda x, _: problem.final_cost(x),)
        grad, *packed = _expand(_SWEEPS[o_h], costs, zs, n_x, o_h)
        ok &= _finite_rows(grad, *packed)
        grad = grad[:, 0]
        fields.update(p=grad[:tau, :n_x], q=grad[:tau, n_x:], final_slope=grad[tau, :n_x])
    if not ok.all():
        t = int(np.argmin(ok))
        raise DivergenceError(t, f"non-finite derivative at t={t}")
    if o_h == 2:
        # np.take gathers C-ordered; a fancy index on the last axis gives a
        # transposed layout, on which the sweep runs slower
        at_H, at_Q, at_R = _block_index(n_x, n_u)
        pairs = packed[0][:, 0]
        H = np.take(pairs, at_H, axis=-1)
        fields.update(
            H=_sym(H[:tau]), Q=_sym(np.take(pairs[:tau], at_Q, axis=-1)),
            R=np.take(pairs[:tau], at_R, axis=-1), final_quad=_sym(H[tau]),
        )
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
    for order in (o_f, o_h):
        if order not in (0, 1, 2):
            raise ParameterError(f"derivative order must be 0, 1 or 2, got {order}")
    u = _shaped_controls(problem, u, "u")
    xs, step_costs, total = _roll(problem, u)
    fields = {}
    if o_f or o_h:
        # overflow shows as a non-finite derivative, which _expansions reports
        with np.errstate(all="ignore"):
            fields = _expansions(problem, xs, u, o_f, o_h)
    return ExpansionBundle(
        problem=problem,
        u=u,
        xs=xs,
        step_costs=tuple(step_costs),
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


def backward_gd(bundle: ExpansionBundle, nu: float) -> OracleDirection:
    """Backward sweep with linear models: gradient back-propagation.

    The policies are constant offsets -(q_t + B_t' j_{t+1}) / nu and the
    affine cost-to-go at 0 equals -|grad J|^2 / (2 nu).
    """
    if nu <= 0.0:
        raise ParameterError(f"gradient backward pass requires nu > 0, got {nu}")
    if bundle.o_h < 1 or bundle.o_f < 1:
        raise ParameterError("gradient backward pass needs order-1 information")
    tau, n_x, n_u = bundle.horizon, bundle.problem.n_x, bundle.problem.n_u
    A, B, p, q = bundle.A, bundle.B, bundle.p, bundle.q
    k = np.empty((tau, n_u))
    j, j0 = bundle.final_slope, 0.0
    for t in range(tau - 1, -1, -1):
        j, j0, k[t] = lbp(A[t], B[t], p[t], q[t], j, j0, nu)
    return _swept(np.zeros((tau, n_u, n_x)), k, j0)


def _backward_quadratic(
    bundle: ExpansionBundle, nu: float, contraction: str | None
) -> OracleDirection:
    """The Bellman sweep of every order-2-cost oracle (see :data:`ORACLES`)."""
    if nu < 0.0:
        raise ParameterError(f"regularization must be >= 0, got {nu}")
    if bundle.o_h != 2:
        raise ParameterError("quadratic backward passes need order-2 cost information")
    if contraction is not None and bundle.curvature is None:
        raise ParameterError("curvature contraction needs order-2 dynamics information")
    tau, n_x, n_u = bundle.horizon, bundle.problem.n_x, bundle.problem.n_u
    A, B, p, q = bundle.A, bundle.B, bundle.p, bundle.q
    # the ridge goes on before any curvature, (Q + nu I) + W_uu: the other
    # order moves the last bits of Newton directions at nu > 0
    H, Q, R = bundle.H, bundle.Q + nu * np.eye(n_u), bundle.R
    if contraction == "adjoint":
        # the adjoints are known before the sweep: fold every stage at once
        W = autodiff.contract_curvature(bundle.curvature, bundle.adjoints)
        H = H + W[:, :n_x, :n_x]
        Q = Q + W[:, n_x:, n_x:]
        R = R + W[:, :n_x, n_x:]
    # each K[t] Fortran-ordered like dpotrs's output: with C-ordered rows
    # the roll-out's K[t] @ y takes another BLAS path, and bicycle-car
    # directions change in their last bits
    K = np.empty((tau, n_x, n_u)).transpose(0, 2, 1)
    k = np.empty((tau, n_u))

    at_H, at_Q, at_R = _block_index(n_x, n_u)  # where the blocks sit in a packed fold
    J, j, j0 = bundle.final_quad, bundle.final_slope, 0.0
    for t in range(tau - 1, -1, -1):
        H_t, Q_t, R_t = H[t], Q[t], R[t]
        if contraction == "value-slope":  # the slope is only known here, stage by stage
            # contract_curvature's sum for one point, gathered straight into the blocks
            w = np.add.reduce(j[:, None] * bundle.curvature[t], axis=0, initial=0.0)
            H_t, Q_t, R_t = H_t + w[at_H], Q_t + w[at_Q], R_t + w[at_R]
        checked = check_subproblem(B[t], Q_t, q[t], J, j, j0)
        if checked is None:  # an earlier overflow fails later checks: name the overflow
            late = _overflowed(K[t + 1:], k[t + 1:])
            return _infeasible(t if late is None else t + 1 + late)
        J, j, j0, K[t], k[t] = lqbp(A[t], B[t], H_t, R_t, p[t], J, j, j0, checked)
    return _swept(K, k, j0)


def run_backward(bundle: ExpansionBundle, kind: str, nu: float) -> OracleDirection:
    """The backward pass of one oracle kind, as :data:`ORACLES` describes it."""
    spec = oracle_spec(kind)
    with np.errstate(all="ignore"):  # overflow ends as an infeasible result
        if spec.o_h == 1:  # linear cost models: gradient back-propagation
            return backward_gd(bundle, nu)
        return _backward_quadratic(bundle, nu, spec.contraction)


def bundle_gradient(bundle: ExpansionBundle) -> np.ndarray:
    """Objective gradient (horizon, n_u) recovered from order-1 bundle data.

    Stage t's gradient is q_t + B_t' lam_{t+1}, from the bundle's adjoint
    stack (:attr:`ExpansionBundle.adjoints`), the one adjoint recursion
    the package runs.
    """
    if bundle.o_h < 1 or bundle.o_f < 1:
        raise ParameterError("gradient recovery needs order-1 information")
    B, lam = bundle.B, bundle.adjoints
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite gradient
        return bundle.q + (B.transpose(0, 2, 1) @ lam[:, :, None])[:, :, 0]


def rollout(y0, K: np.ndarray, k: np.ndarray, step) -> np.ndarray:
    """Apply the policies v_t = K[t] y_t + k[t] along a step map.

    ``step(t, y, v)`` gives the next state as a sequence of n_x floats,
    for example :meth:`ExpansionBundle.linear_step`.  Returns the controls
    (horizon, n_u); a non-finite state raises :class:`DivergenceError`
    with the offending step.  Finiteness is tested on the state's Python
    floats, which costs less than numpy's test on a few entries.
    """
    y = np.asarray(y0, dtype=float).ravel()
    controls = np.empty(k.shape)
    for t in range(len(k)):
        v = K[t] @ y + k[t]
        controls[t] = v
        y = np.asarray(step(t, y, v), dtype=float)
        if not all(map(math.isfinite, y.tolist())):
            raise DivergenceError(t)
    return controls


def oracle_step(bundle: ExpansionBundle, kind: str, nu: float) -> OracleDirection:
    """Backward pass on ``bundle``, then the roll-out along the kind's maps.

    The gradient oracle's constant policies make its roll-out a no-op, so
    it returns the stacked offsets directly.  An infeasible sweep returns
    without a roll-out.
    """
    spec = oracle_spec(kind)
    result = run_backward(bundle, kind, nu)
    if not result.feasible:
        return result
    if spec.o_h == 1:  # constant policies
        direction = result.k.copy()
    else:
        direction = rollout(np.zeros(bundle.problem.n_x), result.K, result.k, spec.step_map(bundle))
    return replace(result, direction=direction)


def oracle(problem: TrajectoryProblem, u, kind: str, nu: float | None = None) -> OracleDirection:
    """One oracle evaluation: forward pass, backward pass and roll-out.

    ``u`` must be a finite (horizon, n_u) array, else :class:`ShapeError`.
    ``nu`` defaults to the kind's ``start_nu`` in :data:`ORACLES`.
    """
    spec = oracle_spec(kind)
    u = checked_controls(problem, u, "u")
    if nu is None:
        nu = spec.start_nu
    return oracle_step(forward(problem, u, o_f=spec.o_f, o_h=spec.o_h), kind, nu)
