"""Forward pass, backward passes and roll-outs for the five solver oracles.

Each oracle evaluation is one forward pass recording expansions of the
dynamics and costs along the visited trajectory, one backward Bellman
sweep producing affine policies and the cost-to-go at time 0, and one
roll-out of the policies along either the linearized step maps (gradient,
Gauss-Newton, Newton) or the original-dynamics increment maps (the two
DDP variants).  :data:`ORACLES` is the single description of the kinds.

The forward pass stores the stage matrices stacked over the stages
(:class:`ExpansionBundle`).  :func:`run_backward` is the one public sweep:
it checks the ridge once, then runs the kind's sweep on those raw arrays.
The gradient sweep (``_backward_gd``) reads its offsets -grad J / nu from
the bundle's adjoint recursion, the one the package runs; ``lbp`` is its
stage written alone.  The quadratic sweep (``_backward_quadratic``) factors
each stage's control Hessian once (``check_subproblem``) and reuses the
factor in the closed-form stage (``lqbp``).  It adds the blocks of the
packed curvature contraction (:func:`autodiff.hessian_blocks`): for Newton
against the adjoints, one block of stages at a time, so no temporary spans
the horizon; for DDP-Q against the cost-to-go slope, stage by stage.  The
DDP roll-outs difference the original dynamics against the states the
bundle visited.  The policies come out stacked as gains ``K`` (horizon,
n_u, n_x) and offsets ``k`` (horizon, n_u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import autodiff
from .core import TrajectoryProblem, _array, _scalar, _sym
from .errors import DivergenceError, NumericError, ParameterError, ShapeError

__all__ = [
    "ORACLES",
    "ORACLE_KINDS",
    "OracleSpec",
    "ExpansionBundle",
    "OracleDirection",
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

    def step_map(self, bundle: ExpansionBundle):
        """The per-stage map ``(t, y, v) -> y_next`` this kind's roll-out follows."""
        return bundle.increment_step if self.rolls_original else bundle.linear_step

    def check_ridge(self, nu) -> None:
        """:class:`ParameterError` unless 0 < nu < inf (linear costs) or 0 <= nu < inf."""
        _scalar(nu, "nu", 0.0, ends="()" if self.o_h == 1 else "[)")


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
    ``step_costs`` the stage costs, the final cost last.  Orders 0/1/2
    control what is stored: nothing beyond the trajectory and cost, first
    derivatives, or second derivatives.  Order-1 dynamics give
    ``A`` (horizon, n_x, n_x) and ``B`` (horizon, n_x, n_u), views of the
    stacked Jacobians.  Order-1 costs give the slopes ``p`` (horizon, n_x)
    and ``q`` (horizon, n_u) and the final slope; order-2 costs add the
    C-contiguous blocks ``H``, ``Q``, ``R`` (horizon, n_x, n_u) and the
    final Hessian, taken from the packed cost Hessians.  For order-2
    dynamics ``curvature`` (horizon, n_x, m(m+1)/2), m = n_x + n_u, holds
    each stage's per-output second derivatives in the joint point
    (x_t, u_t), packed as :func:`autodiff.block_jacobian_curvature` packs
    them; the backward sweep contracts a stage's rows against whatever
    vector it needs.
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
        """The original-dynamics increment f_t(x_t + y, u_t + v) - f_t(x_t, u_t).

        The forward pass stored f_t(x_t, u_t) as ``xs[t + 1]``, evaluated on
        the same floats, so only the moved point is evaluated here, on plain
        floats.  A model that raises an ``ArithmeticError`` or returns a
        non-finite value raises :class:`NumericError` naming t.
        """
        try:
            moved = self.problem.dynamics[t]((self.xs[t] + y).tolist(), (self.u[t] + v).tolist())
        except ArithmeticError as err:
            raise NumericError(f"dynamic evaluation failed at t={t}: {err}") from err
        out = np.asarray(moved, dtype=float) - self.xs[t + 1]
        if not all(map(math.isfinite, out.tolist())):
            raise NumericError(f"dynamic returned a non-finite increment at t={t}")
        return out

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


def _roll(problem: TrajectoryProblem, u: np.ndarray) -> tuple[np.ndarray, list, float]:
    """States (horizon + 1, n_x), step costs (final cost last) and total cost.

    The pass runs on Python float lists, so the models see plain floats
    and no stage wraps its few-entry vectors in numpy; the states are
    stacked once at the end.  A cost that is not a scalar or a next state
    that is not n_x long raises :class:`ShapeError` naming the stage.
    """
    n_x = problem.n_x
    x = problem.x0.tolist()
    xs = [x]
    step_costs = []
    total = 0.0
    for t, u_t in enumerate(u.tolist()):
        try:
            h_val = problem.running_costs[t](x, u_t)
            try:
                h_val = float(h_val)
            except TypeError:
                raise _non_scalar_cost(t, h_val) from None
            x = [float(v) for v in problem.dynamics[t](x, u_t)]
        except ArithmeticError as err:
            raise DivergenceError(t, f"model evaluation failed at t={t}: {err}") from err
        if len(x) != n_x:
            raise ShapeError(f"dynamics at t={t} gave {len(x)} entries, expected n_x={n_x}")
        if not (math.isfinite(h_val) and all(map(math.isfinite, x))):
            raise DivergenceError(t)
        step_costs.append(h_val)
        total += h_val
        xs.append(x)
    tau = problem.horizon
    try:
        h_val = problem.final_cost(x)
        try:
            h_val = float(h_val)
        except TypeError:
            raise _non_scalar_cost(tau, h_val) from None
    except ArithmeticError as err:
        raise DivergenceError(tau, f"final cost evaluation failed: {err}") from err
    if not math.isfinite(h_val):
        raise DivergenceError(tau)
    step_costs.append(h_val)
    return np.array(xs), step_costs, total + h_val


def _non_scalar_cost(t: int, value) -> ShapeError:
    return ShapeError(f"the cost at t={t} gave a {type(value).__name__}, expected a scalar")


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
    cap = _cap(zs.shape[1] + len(lanes), 3 * SLOT_BUDGET)
    for lo in range(start, stop, cap):
        hi = min(lo + cap, stop)
        if hi - lo < stop - start:
            lanes = _traced_lanes(g, zs[lo:hi])
        results = _store(results, sweep(g, zs[lo:hi], lanes), lo, hi, n)
    return results


def _expand(sweep, fns, zs: np.ndarray, n_x: int, order: int) -> tuple:
    """Results of ``sweep`` of derivative ``order`` at every stage's point, stacked over the stages.

    A run of consecutive stages that share one callable is cut into blocks
    as :data:`SLOT_BUDGET` sizes them; ``sweep`` evaluates a block once on
    all of its points, and a block of one stage runs on plain floats.  A
    first-order sweep seeds the m inputs.  A second-order sweep seeds all
    m(m+1)/2 pairs, unless its run is longer than twice SLOT_BUDGET //
    (m(m+1)/2) stages: the run is then traced
    (:func:`autodiff.structural_lanes`) and each block seeds only the pairs
    traced at its own points, which gives the same results bit for bit.  A
    trace or a traced sweep that fails sends its run back to full seeds, so
    errors name the same stage.
    """
    n, m = len(fns), zs.shape[1]
    pairs = m * (m + 1) // 2
    cap = _cap(m) if order == 1 else _cap(m + pairs, 3 * SLOT_BUDGET)
    results = None
    for start, stop in _runs(fns):
        g = _joint(fns[start], n_x)
        if order == 2 and stop - start > 2 * _cap(pairs):
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
    """
    M, m = Q + B.T @ J @ B, q + B.T @ j
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


def lqbp(A, B, H, R, p, J, j, j0: float, checked) -> tuple:
    """Closed-form solution of one linear-quadratic Bellman stage.

    The stage is the step ``y_next = A y + B v``, the stage cost
    0.5 y'Hy + 0.5 v'Qv + y'Rv + p'y + q'v and the next cost-to-go
    0.5 y'Jy + j'y + j0; Q and q enter through ``checked``, the stage's
    :func:`check_subproblem` result.  Returns ``(J_t, j_t, j0_t, K, k)``:
    the cost-to-go at time t and the minimizing policy v = K y + k.
    """
    factor, m, Minv_m, decrement = checked
    AtJ = A.T @ J
    # Cross term between state and control of the stage-plus-to-go quadratic.
    N = R + AtJ @ B  # (n_x, n_u)
    if len(m) == 1:
        r = 1.0 / factor.item()
        Minv_NT = (N.T * r) * r
    else:
        Minv_NT = _lapack()[1](factor, N.T, lower=1)[0]
    J_t = _sym(H + AtJ @ A - N @ Minv_NT)
    j_t = p + A.T @ j - N @ Minv_m
    return J_t, j_t, j0 + decrement, -Minv_NT, -Minv_m


def _backward_quadratic(
    bundle: ExpansionBundle, nu: float, contraction: str | None
) -> OracleDirection:
    """The Bellman sweep of every order-2-cost oracle (see :data:`ORACLES`)."""
    if bundle.o_h != 2:
        raise ParameterError("quadratic backward passes need order-2 cost information")
    if contraction is not None and bundle.curvature is None:
        raise ParameterError("curvature contraction needs order-2 dynamics information")
    tau, n_x, n_u = bundle.horizon, bundle.problem.n_x, bundle.problem.n_u
    A, B, p, q = bundle.A, bundle.B, bundle.p, bundle.q
    ridge = nu * np.eye(n_u)
    # each K[t] Fortran-ordered, the layout of dpotrs's solves: with
    # C-ordered rows the roll-out's K[t] @ y takes another BLAS path, and
    # bicycle-car directions change in their last bits
    K = np.empty((tau, n_x, n_u)).transpose(0, 2, 1)
    k = np.empty((tau, n_u))

    at_H, at_Q, at_R = autodiff.hessian_blocks(n_x, n_u)  # where the blocks sit in a packed fold
    J, j, j0 = bundle.final_quad, bundle.final_slope, 0.0
    cap = _cap((n_x + n_u) * (n_x + n_u + 1) // 2)
    for lo in reversed(range(0, tau, cap)):  # one block's fold at a time, from the last
        hi = min(lo + cap, tau)
        # the ridge goes on before any curvature, (Q + nu I) + W_uu: the other
        # order moves the last bits of Newton directions at nu > 0
        H, Q, R = bundle.H[lo:hi], bundle.Q[lo:hi] + ridge, bundle.R[lo:hi]
        if contraction == "adjoint":  # the adjoints are known before the sweep
            W = autodiff.contract_curvature(bundle.curvature[lo:hi], bundle.adjoints[lo:hi])
            H, Q, R = (H + W.take(at_H, axis=-1), Q + W.take(at_Q, axis=-1),
                       R + W.take(at_R, axis=-1))
        for t, H_t, Q_t, R_t in zip(range(hi - 1, lo - 1, -1), H[::-1], Q[::-1], R[::-1]):
            if contraction == "value-slope":  # the slope is only known here, stage by stage
                w = autodiff.contract_curvature(bundle.curvature[t], j)
                H_t, Q_t, R_t = H_t + w[at_H], Q_t + w[at_Q], R_t + w[at_R]
            checked = check_subproblem(B[t], Q_t, q[t], J, j, j0)
            if checked is None:  # an earlier overflow fails later checks: name the overflow
                late = _overflowed(K[t + 1:], k[t + 1:])
                return _infeasible(t if late is None else t + 1 + late)
            J, j, j0, K[t], k[t] = lqbp(A[t], B[t], H_t, R_t, p[t], J, j, j0, checked)
    return _swept(K, k, j0)


def run_backward(bundle: ExpansionBundle, kind: str, nu: float) -> OracleDirection:
    """The backward pass of one oracle kind, as :data:`ORACLES` describes it.

    A ridge outside the kind's range (:meth:`OracleSpec.check_ridge`)
    raises :class:`ParameterError`.
    """
    spec = oracle_spec(kind)
    spec.check_ridge(nu)
    with np.errstate(all="ignore"):  # overflow ends as an infeasible result
        if spec.o_h == 1:  # linear cost models: gradient back-propagation
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


def rollout(y0, K: np.ndarray, k: np.ndarray, step) -> np.ndarray:
    """Apply the policies v_t = K[t] y_t + k[t] along a step map.

    ``step(t, y, v)`` gives the next state as a sequence of n_x floats,
    for example :meth:`ExpansionBundle.linear_step`.  ``K`` (horizon, n_u,
    n_x), ``k`` (horizon, n_u) and ``y0`` (n_x) must be finite, else
    :class:`ShapeError`.  Returns the controls (horizon, n_u); a non-finite
    state raises :class:`DivergenceError` with the offending step.
    Finiteness is tested on the state's Python floats, which costs less
    than numpy's test on a few entries.
    """
    k = _array(k, "k", (None, None))
    K = _array(K, "K", k.shape + (None,))
    y = _array(y0, "y0", K.shape[2:])
    if not callable(step):
        raise ShapeError(f"step must be callable, got {type(step).__name__}")
    controls = np.empty(k.shape)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite state
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
    ``nu`` defaults to the kind's ``start_nu`` in :data:`ORACLES` and is
    checked as :func:`run_backward` checks it, before any model runs.
    """
    spec = oracle_spec(kind)
    u = checked_controls(problem, u, "u")
    if nu is None:
        nu = spec.start_nu
    spec.check_ridge(nu)
    return oracle_step(forward(problem, u, o_f=spec.o_f, o_h=spec.o_h), kind, nu)
