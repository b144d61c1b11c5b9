"""The Bellman stage functions of :mod:`trajopt.oracles` (``check_subproblem``,
``lqbp``, ``lbp``), one and laned, and one Gauss-Newton step as the exact LQ solve."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

import trajopt.core as core
from trajopt.errors import ParameterError
from trajopt.oracles import DESCENT_STRICTNESS, check_subproblem, lbp, lqbp, oracle

from conftest import kkt_solve_lq, random_lq_problem, random_spd


def scalar_stage(A, B, H, Q, R, p, q, J, j, j0):
    """One stage's raw arrays: A, B, H, Q, R, p, q and the next cost-to-go J, j, j0."""
    m = lambda v: np.array([[float(v)]])
    return dict(A=m(A), B=m(B), H=m(H), Q=m(Q), R=m(R), p=np.array([float(p)]),
                q=np.array([float(q)]), J=m(J), j=np.array([float(j)]), j0=float(j0))


def check(s):
    return check_subproblem(s["B"], s["Q"], s["q"], s["J"], s["j"], s["j0"])


def solve_stage(s):
    """check_subproblem then lqbp on one stage: (J_t, j_t, j0_t, K, k)."""
    return lqbp(s["A"], s["B"], s["H"], s["R"], s["p"], s["J"], s["j"], s["j0"], check(s))


def cost_to_go(J, j, j0, y):
    return 0.5 * y @ J @ y + j @ y + j0


class TestLqbp:
    def test_hand_evaluated_scalar_stage(self):
        J, j, j0, K, k = solve_stage(scalar_stage(A=1, B=1, H=0, Q=1, R=0, p=0, q=0, J=0, j=1, j0=0))
        assert J[0, 0] == pytest.approx(0.0)
        assert j[0] == pytest.approx(1.0)
        assert j0 == pytest.approx(-0.5)
        assert K[0, 0] == pytest.approx(0.0)
        assert k[0] == pytest.approx(-1.0)

    def test_nothing_to_control(self):
        J, j, j0, K, k = solve_stage(
            scalar_stage(A=0.7, B=1, H=2.0, Q=1, R=0, p=0, q=0, J=0, j=0, j0=0.3)
        )
        assert J[0, 0] == pytest.approx(2.0)
        assert j[0] == pytest.approx(0.0)
        assert j0 == pytest.approx(0.3)
        np.testing.assert_allclose(K, [[0.0]])
        np.testing.assert_allclose(k, [0.0])

    def test_matches_one_step_kkt_minimization(self, rng):
        """The policy minimizes stage cost plus cost-to-go of the stepped state."""
        A, B = rng.standard_normal((2, 2)), rng.standard_normal((2, 1))
        G = rng.standard_normal((3, 3))
        joint = G @ G.T + 0.2 * np.eye(3)
        H, Q, R = joint[:2, :2], joint[2:, 2:], joint[:2, 2:]
        p, q = rng.standard_normal(2), rng.standard_normal(1)
        Jn, jn, j0n = np.eye(2) * 0.5, rng.standard_normal(2), 0.1
        checked = check_subproblem(B, Q, q, Jn, jn, j0n)
        J, j, j0, K, k = lqbp(A, B, H, R, p, Jn, jn, j0n, checked)
        for _ in range(5):
            y = rng.standard_normal(2)
            # dense one-step minimization over v
            M = Q + B.T @ Jn @ B
            rhs = q + R.T @ y + B.T @ (Jn @ (A @ y) + jn)
            v_star = np.linalg.solve(M, -rhs)
            np.testing.assert_allclose(K @ y + k, v_star, atol=1e-10)
            direct = (
                0.5 * y @ H @ y + 0.5 * v_star @ Q @ v_star + y @ R @ v_star
                + p @ y + q @ v_star + cost_to_go(Jn, jn, j0n, A @ y + B @ v_star)
            )
            assert cost_to_go(J, j, j0, y) == pytest.approx(direct, abs=1e-10)


class TestLbp:
    def test_zero_slope_keeps_value(self):
        j, j0, k = lbp(np.eye(1), np.eye(1), np.zeros(1), np.zeros(1), np.zeros(1), 0.7, nu=2.0)
        assert j0 == pytest.approx(0.7)
        np.testing.assert_allclose(k, [0.0])

    def test_hand_evaluated_stage(self):
        j, j0, k = lbp(np.eye(1), np.eye(1), np.zeros(1), np.ones(1), np.array([2.0]), 0.0,
                       nu=2.0)
        assert j[0] == pytest.approx(2.0)
        assert j0 == pytest.approx(-2.25)
        assert k[0] == pytest.approx(-1.5)

    @pytest.mark.parametrize("nu", [0.0, math.nan, math.inf])
    def test_requires_positive_nu(self, nu):
        with pytest.raises(ParameterError):
            lbp(np.eye(1), np.eye(1), np.zeros(1), np.ones(1), np.zeros(1), 0.0, nu=nu)


class TestCheckSubproblem:
    def test_valid_identity_block(self):
        checked = check(scalar_stage(A=1, B=0, H=0, Q=1, R=0, p=0, q=0, J=0, j=0, j0=0))
        assert checked is not None
        factor, *_ = checked
        np.testing.assert_allclose(factor, [[1.0]])  # Cholesky factor of M = 1

    def test_invalid_negative_block(self):
        assert check(scalar_stage(A=1, B=0, H=0, Q=-1, R=0, p=0, q=0, J=0, j=0, j0=0)) is None

    def test_descent_witness_is_offset_decrement(self):
        checked = check(scalar_stage(A=1, B=1, H=0, Q=1, R=0, p=0, q=0, J=0, j=1, j0=0))
        assert checked is not None
        _, m, Minv_m, _ = checked
        assert -0.5 * float(m @ Minv_m) == pytest.approx(-0.5)

    def test_descent_accepts_solvable_zero_slope_stage(self):
        checked = check(scalar_stage(A=1, B=1, H=0, Q=1, R=0, p=0, q=0, J=0, j=0, j0=0))
        assert checked is not None
        _, m, Minv_m, _ = checked
        assert float(m @ Minv_m) == 0.0

    def test_descent_reports_failed_factorization(self, cholesky_spy):
        assert check(scalar_stage(A=1, B=0, H=0, Q=-2, R=0, p=0, q=0, J=0, j=1, j0=0)) is None
        # a 2-control block goes through dpotrf; a 1x1 block is factored in closed form
        two = dict(B=np.zeros((1, 2)), Q=np.diag([1.0, -2.0]), q=np.zeros(2), J=np.zeros((1, 1)),
                   j=np.ones(1), j0=0.0)
        assert check(two) is None
        assert cholesky_spy == ["failed"]


def _sym(a):
    return 0.5 * (a + a.T)


def random_stage(rng, n_x, n_u):
    """A stage with jointly convex costs and a convex next cost-to-go."""
    joint = random_spd(rng, n_x + n_u)
    return dict(
        A=rng.standard_normal((n_x, n_x)), B=rng.standard_normal((n_x, n_u)),
        H=joint[:n_x, :n_x], Q=joint[n_x:, n_x:], R=joint[:n_x, n_x:],
        p=rng.standard_normal(n_x), q=rng.standard_normal(n_u),
        J=random_spd(rng, n_x), j=rng.standard_normal(n_x), j0=float(rng.standard_normal()),
    )


def scipy_reference(s):
    """The stage solved with scipy.linalg.cho_factor / cho_solve: (factor, J_t, j_t, j0_t, K, k)."""
    A, B, J, j = s["A"], s["B"], s["J"], s["j"]
    factor = scipy.linalg.cho_factor(_sym(s["Q"] + B.T @ J @ B), lower=True, check_finite=False)
    m = s["q"] + B.T @ j
    Minv_m = scipy.linalg.cho_solve(factor, m, check_finite=False)
    N = s["R"] + A.T @ J @ B
    Minv_NT = scipy.linalg.cho_solve(factor, np.ascontiguousarray(N.T), check_finite=False)
    J_t = _sym(s["H"] + A.T @ J @ A - N @ Minv_NT)
    j_t = s["p"] + A.T @ j - N @ Minv_m
    j0_t = s["j0"] - 0.5 * float(m @ Minv_m)
    return factor[0], J_t, j_t, j0_t, -Minv_NT, -Minv_m


class TestScipyReference:
    """The direct LAPACK calls give cho_factor / cho_solve's results bit for bit."""

    @pytest.mark.parametrize("n_u", [1, 2, 3])
    @pytest.mark.parametrize("n_x", [1, 4, 9])
    def test_stage_equals_cho_factor_cho_solve(self, rng, n_x, n_u):
        for _ in range(5):
            s = random_stage(rng, n_x, n_u)
            checked = check(s)
            assert checked is not None
            factor, *expected = scipy_reference(s)
            assert np.array_equal(checked[0], factor)
            stage = solve_stage(s)
            for got, want in zip(stage, expected):
                assert np.array_equal(got, want)
            assert stage[3].flags.f_contiguous  # the layout the roll-out's K[t] @ y relies on

    @pytest.mark.parametrize("n_u", [1, 2, 3])
    def test_indefinite_control_hessian_is_rejected(self, rng, n_u):
        s = random_stage(rng, 4, n_u)
        M = s["Q"] + s["B"].T @ s["J"] @ s["B"]
        s["Q"] = s["Q"] - (np.linalg.eigvalsh(M)[0] + 1.0) * np.eye(n_u)  # M's least eigenvalue: -1
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy_reference(s)
        assert check(s) is None


# 1x1 control blocks and slopes at the edges of the double range
EDGES = (0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan, -1e-300, -1.0, -np.inf, 0.3, 2.5)


def lapack_reference(s):
    """A stage through dpotrf/dpotrs, as stages with wider control blocks run.

    Returns (factor, m, M^-1 m, decrement, K, k) or None when dpotrf or the
    descent test rejects the stage.
    """
    A, B, J = s["A"], s["B"], s["J"]
    factor, info = dpotrf(_sym(s["Q"] + B.T @ J @ B), lower=1, clean=0)
    if info:
        return None
    m = s["q"] + B.T @ s["j"]
    Minv_m = dpotrs(factor, m, lower=1)[0]
    decrement = -0.5 * float(m @ Minv_m)
    if not decrement < DESCENT_STRICTNESS * (1.0 + abs(s["j0"])):
        return None
    N = s["R"] + A.T @ J @ B
    return factor, m, Minv_m, decrement, -dpotrs(factor, N.T, lower=1)[0], -Minv_m


class TestClosedFormScalarBlock:
    """A 1x1 control block is factored and solved in closed form, as dpotrf/dpotrs would."""

    @pytest.mark.parametrize("block", EDGES)
    def test_equals_dpotrf_dpotrs_bytes(self, block):
        # B = 1 against J = j = -0.0 leaves M = Q, m = q and N = R exactly
        for slope in EDGES:
            for cross in (-0.0, 1e-300, 2.0, -1e300):
                s = scalar_stage(A=1, B=1, H=0, Q=block, R=cross, p=0, q=slope, J=-0.0, j=-0.0,
                                 j0=0)
                with np.errstate(all="ignore"):
                    want = lapack_reference(s)
                    checked = check(s)
                assert (checked is None) == (want is None), (block, slope)
                if checked is None:
                    continue
                with np.errstate(all="ignore"):
                    _, _, j0_t, K, k = solve_stage(s)
                got = (*checked, K, k)
                for g, w in zip(got, want):
                    assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (block, slope, cross)
                assert j0_t == want[3]


def lane_stack(stages):
    """G stages' (Q, J, j, j0) in the laned form, q and p as columns of the shared stage 0."""
    s = stages[0]
    return dict(A=s["A"], B=s["B"], H=s["H"], R=s["R"], p=s["p"][:, None], q=s["q"][:, None],
                Q=np.stack([t["Q"] for t in stages]), J=np.stack([t["J"] for t in stages]),
                j=np.stack([t["j"] for t in stages])[..., None],
                j0=np.array([t["j0"] for t in stages]))


def assert_lanes_equal_one_stage_calls(stages):
    """The laned check and stage give, lane by lane, the 2-D calls' results by bytes;
    a lane the 2-D check rejects reads a NaN decrement.  Returns the lanes rejected."""
    shared = {key: stages[0][key] for key in ("A", "B", "H", "R", "p", "q")}
    lanes = lane_stack(stages)
    rejected = []
    with np.errstate(all="ignore"):
        factor, m, Minv_m, decrement = check(lanes)
        laned = solve_stage(lanes)
        for g, stage in enumerate(stages):
            one = {**stage, **shared}
            want = check(one)
            if want is None:
                assert math.isnan(decrement[g]), g
                rejected.append(g)
                continue
            got = (factor[g], m[g, :, 0], Minv_m[g, :, 0], decrement[g])
            got += (laned[0][g], laned[1][g, :, 0], laned[2][g], laned[3][g], laned[4][g, :, 0])
            want += solve_stage(one)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), g
            assert laned[3][g].flags.f_contiguous  # the layout the roll-out's K[t] @ y relies on
    return rejected


class TestLanes:
    """G stages at once, sharing A, B, H, R, p and q: each lane is the 2-D call bit for bit."""

    @pytest.mark.parametrize("n_u", [1, 2, 3])
    @pytest.mark.parametrize("n_x", [1, 4])
    def test_lanes_equal_one_stage_calls(self, rng, n_x, n_u):
        base = random_stage(rng, n_x, n_u)
        stages = []
        for ridge in (0.0, 1e-3, 1.0, 100.0, -50.0):  # the last makes M indefinite
            J = random_spd(rng, n_x)
            stages.append({**base, "Q": base["Q"] + ridge * np.eye(n_u), "J": J,
                           "j": rng.standard_normal(n_x), "j0": float(rng.standard_normal())})
        assert assert_lanes_equal_one_stage_calls(stages) == [4]

    def test_descent_test_rejects_its_own_lanes(self):
        # M = 1 in every lane; a NaN slope or offset fails the descent test of its lane only
        lanes = [scalar_stage(A=1, B=1, H=0, Q=1, R=0, p=0, q=0, J=0, j=j, j0=j0)
                 for j, j0 in ((1, 0.0), (math.nan, 0.0), (1, math.nan), (1, math.inf))]
        assert assert_lanes_equal_one_stage_calls(lanes) == [1, 2]

    @pytest.mark.parametrize("block", EDGES)
    def test_scalar_block_lanes_at_the_edges(self, block):
        lanes = [scalar_stage(A=1, B=1, H=0, Q=block, R=2.0, p=0, q=slope, J=-0.0, j=-0.0, j0=0)
                 for slope in EDGES]
        assert_lanes_equal_one_stage_calls(lanes)


class TestDynProg:
    def test_infeasible_stage_raises_with_index(self):
        # stage 1 of 3 has a concave control cost and moves nothing
        convex = core.quadratic_cost([[0.0]], [[1.0]], [[0.0]], [0.0], [0.0])
        concave = core.quadratic_cost([[0.0]], [[-1.0]], [[0.0]], [0.0], [0.0])
        problem = core.TrajectoryProblem(
            dynamics=(core.linear_dynamics([[1.0]], [[1.0]]),
                      core.linear_dynamics([[1.0]], [[0.0]]),
                      core.linear_dynamics([[1.0]], [[1.0]])),
            running_costs=(convex, concave, convex),
            final_cost=core.quadratic_state_cost([[1.0]], [0.0]),
            x0=[1.0],
            n_x=1,
            n_u=1,
        )
        step = oracle(problem, np.zeros((problem.horizon, problem.n_u)), "gn", nu=0.0)
        assert not step.feasible and step.failed_stage == 1

    def test_pure_control_penalty(self):
        tau = 4
        problem = core.TrajectoryProblem(
            dynamics=tuple(core.linear_dynamics([[1.0]], [[1.0]]) for _ in range(tau)),
            running_costs=tuple(
                core.quadratic_cost([[0.0]], [[1.0]], [[0.0]], [0.0], [0.0])
                for _ in range(tau)
            ),
            final_cost=core.quadratic_state_cost([[0.0]], [0.0]),
            x0=[1.0],
            n_x=1,
            n_u=1,
        )
        step = oracle(problem, np.zeros((problem.horizon, problem.n_u)), "gn", nu=0.0)
        assert step.feasible
        np.testing.assert_allclose(step.direction, np.zeros((tau, 1)), atol=1e-12)

    def test_single_step_average(self):
        # minimize 0.5 u^2 + 0.5 (u - 1)^2 at u = 0.5 with f(x, u) = u
        problem = core.TrajectoryProblem(
            dynamics=(core.linear_dynamics([[0.0]], [[1.0]]),),
            running_costs=(core.quadratic_cost([[0.0]], [[1.0]], [[0.0]], [0.0], [0.0]),),
            final_cost=core.quadratic_state_cost([[1.0]], [-1.0]),
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        step = oracle(problem, np.zeros((problem.horizon, problem.n_u)), "gn", nu=0.0)
        assert step.feasible
        assert step.direction[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_kkt_on_random_instances(self, rng):
        for _ in range(8):
            tau = int(rng.integers(2, 7))
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 4))
            problem, data = random_lq_problem(rng, tau, n_x, n_u)
            step = oracle(problem, np.zeros((tau, n_u)), "gn", nu=0.0)
            assert step.feasible
            u_dp = step.direction
            u_kkt = kkt_solve_lq(problem, data)
            np.testing.assert_allclose(u_dp, u_kkt, atol=1e-8)

    def test_zero_gradient_at_solution(self, rng):
        for _ in range(100):
            tau = int(rng.integers(1, 11))
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(1, 4))
            problem, _ = random_lq_problem(rng, tau, n_x, n_u)
            step = oracle(problem, np.zeros((tau, n_u)), "gn", nu=0.0)
            assert step.feasible
            u_star = step.direction
            grad_dir = oracle(problem, u_star, "gd", nu=1.0)
            zero_grad = oracle(problem, np.zeros_like(u_star), "gd", nu=1.0)
            scale = 1.0 + float(np.max(np.abs(zero_grad.direction)))
            assert float(np.max(np.abs(grad_dir.direction))) <= 1e-9 * scale
