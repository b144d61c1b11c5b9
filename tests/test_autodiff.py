"""Derivative engine checks: exactness against symbolic and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import autodiff as ad
from trajopt.core import TrajectoryProblem
from trajopt.errors import DomainError, ParameterError, UnsupportedPrimitiveError
from trajopt.oracles import forward

from conftest import fd_hessian, fd_jacobian

finite_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def hd(value, d1, d2=0.0, d12=0.0):
    return ad.HyperDual(
        float(value), np.array([float(d1)]), np.array([float(d2)]), np.array([float(d12)])
    )


class TestHyperDualAlgebra:
    @given(finite_floats, finite_floats, finite_floats, finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_product_rule_mixed_term(self, av, a1, bv, b2):
        a = hd(av, a1, 0.5, 0.25)
        b = hd(bv, 0.3, b2, -0.1)
        prod = a * b
        expected = av * b.d12[0] + a.d1[0] * b.d2[0] + a.d2[0] * b.d1[0] + a.d12[0] * bv
        assert prod.d12[0] == pytest.approx(expected, abs=0.0)

    def test_division_matches_multiplication_by_inverse(self):
        a, b = hd(2.0, 1.0, 0.5, 0.2), hd(3.0, -0.5, 1.0, 0.1)
        q = a / b
        back = q * b
        assert back.value == pytest.approx(a.value)
        assert back.d1[0] == pytest.approx(a.d1[0])
        assert back.d12[0] == pytest.approx(a.d12[0])

    def test_float_coercion_is_rejected(self):
        with pytest.raises(UnsupportedPrimitiveError):
            math.sin(hd(1.0, 1.0))

    def test_constants_pass_through(self):
        x = hd(2.0, 1.0)
        y = 3.0 * x + 1.0 - x / 2.0
        assert y.value == pytest.approx(7.0 - 1.0)
        assert y.d1[0] == pytest.approx(2.5)


class TestJacobian:
    def test_sin_at_zero(self):
        jac = ad.jacobian(lambda z: ad.sin(z[0]), [0.0])
        assert jac[0, 0] == pytest.approx(1.0)

    def test_bilinear_symmetry(self):
        jac = ad.jacobian(lambda z: z[0] * z[1], [2.0, 3.0])
        np.testing.assert_allclose(jac, [[3.0, 2.0]])

    def test_cubic_matches_symbolic(self):
        # d/dx x^3 = 3 x^2 -> 12 at x = 2
        jac = ad.jacobian(lambda z: z[0] * z[0] * z[0], [2.0])
        assert jac[0, 0] == pytest.approx(12.0)

    def test_vector_output(self):
        jac = ad.jacobian(lambda z: [z[0] + z[1], z[0] * z[1]], [2.0, 3.0])
        np.testing.assert_allclose(jac, [[1.0, 1.0], [3.0, 2.0]])


class TestHessian:
    def test_bilinear(self):
        hess = ad.hessian(lambda z: z[0] * z[1], [5.0, -1.0])
        np.testing.assert_allclose(hess, [[0.0, 1.0], [1.0, 0.0]])

    def test_cubic_matches_symbolic(self):
        hess = ad.hessian(lambda z: z[0] * z[0] * z[0], [2.0])
        assert hess[0, 0] == pytest.approx(12.0)

    def test_affine_has_no_curvature(self):
        hess = ad.hessian(lambda z: 2.0 * z[0] - 3.0 * z[1] + 1.0, [0.3, 0.7])
        np.testing.assert_allclose(hess, np.zeros((2, 2)))

    def test_hessian_equals_nested_first_order(self, rng):
        def g(z):
            return ad.exp(z[0] * 0.3) * ad.sin(z[1]) + z[2] * z[0] * z[1]

        z = rng.standard_normal(3)
        nested = jacobian_of_gradient(g, z)
        hess = ad.hessian(g, z)
        np.testing.assert_allclose(hess, nested, atol=1e-12)


def jacobian_of_gradient(g, z):
    """Hessian row by row: first-order sweeps over each gradient entry.

    The inner derivative rides in the second direction slot, so each row is
    produced by an independent composition path from the one `ad.hessian`
    uses.
    """
    z = np.asarray(z, dtype=float)
    m = z.size
    rows = []
    for i in range(m):

        def grad_entry(zz, i=i):
            k = zz[0].d1.shape[0]
            zeros, ones = np.zeros(k), np.ones(k)
            lifted = [
                ad.HyperDual(w.value, w.d1, ones if a == i else zeros, zeros)
                for a, w in enumerate(zz)
            ]
            out = g(lifted)
            return ad.HyperDual(out.d2[0], out.d12, zeros, zeros)

        rows.append(ad.jacobian(grad_entry, z)[0])
    return np.array(rows)


class TestLambdaHessian:
    def test_linear_map_has_zero_contraction(self):
        w = ad.lambda_hessian(lambda z: [z[0] + 2 * z[1], z[1]], [1.0, 2.0], [3.0, 4.0])
        np.testing.assert_allclose(w, np.zeros((2, 2)))

    def test_scalar_example(self):
        # f = (x^2, x^3), lambda = (1, 1): sum of second derivatives 2 + 6x = 8 at x=1
        w = ad.lambda_hessian(lambda z: [z[0] * z[0], z[0] * z[0] * z[0]], [1.0], [1.0, 1.0])
        assert w[0, 0] == pytest.approx(8.0)

    def test_zero_contraction_vector(self, rng):
        z = rng.standard_normal(3)
        w = ad.lambda_hessian(lambda z: [ad.sin(z[0] * z[1]), ad.exp(z[2])], z, [0.0, 0.0])
        np.testing.assert_allclose(w, np.zeros((3, 3)))

    def test_matches_sum_of_per_output_hessians(self, rng):
        def f(z):
            return [ad.sin(z[0]) * z[1], z[2] * z[2] * z[0], ad.exp(0.5 * z[1])]

        z = rng.standard_normal(3)
        lam = rng.standard_normal(3)
        w = ad.lambda_hessian(f, z, lam)
        parts = ad.vector_hessian(f, z)
        expected = np.einsum("i,ijk->jk", lam, parts)
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_linear_in_lambda(self, rng):
        def f(z):
            return [ad.sin(z[0]) * z[1], z[0] * z[1] * z[1]]

        z = rng.standard_normal(2)
        l1, l2 = rng.standard_normal(2), rng.standard_normal(2)
        w12 = ad.lambda_hessian(f, z, l1 + l2)
        np.testing.assert_allclose(
            w12, ad.lambda_hessian(f, z, l1) + ad.lambda_hessian(f, z, l2), atol=1e-12
        )


class TestSeeds:
    def test_jacobian_seeds_carry_only_the_first_slot(self):
        seen = []
        ad.jacobian(lambda z: seen.append(z[0]) or z[0] * z[1], [1.0, 2.0])
        assert isinstance(seen[0], ad.Dual)
        assert not hasattr(seen[0], "d2") and not hasattr(seen[0], "d12")

    def test_second_order_seed_rows_are_shared_and_read_only(self):
        seen = []
        ad.hessian(lambda z: seen.append(z[0]) or z[0] * z[1], [1.0, 2.0])
        ad.lambda_hessian(lambda z: seen.append(z[0]) or [z[0] * z[1]], [3.0, 4.0], [1.0])
        assert np.shares_memory(seen[0].d1, seen[1].d1)
        with pytest.raises(ValueError):
            seen[0].d1[0] = 5.0

    def test_mixed_orders_keep_the_first_slot(self):
        a = ad.Dual(2.0, np.array([1.0, 0.0]))
        b = ad.HyperDual(3.0, np.array([0.5, 1.0]), np.ones(2), np.ones(2))
        for out, d1 in ((a * b, [4.0, 2.0]), (b * a, [4.0, 2.0]), (b - a, [-0.5, 1.0]),
                        (a - b, [0.5, -1.0]), (b + a, [1.5, 1.0])):
            assert isinstance(out, ad.Dual)
            np.testing.assert_array_equal(out.d1, d1)


BLOCK_MODELS = [
    lambda z: ad.sin(z[0]) * ad.cos(z[1]) + ad.tan(z[0] * 0.3) * ad.arctan(z[1]),
    lambda z: ad.exp(z[0]) * ad.log(2.0 + z[1]) + ad.sqrt(3.0 + z[0]) / (2.0 + z[1]),
    lambda z: ad.sigmoid(40.0 * z[0]) + ad.smoothmax(z[0] - z[1], 0.05),
    lambda z: ad.arctan2(z[0], 1.0 + z[1] * z[1]) + ad.power(1.5 + z[0], 2.5) * z[1],
    lambda z: ad.arctan2(z[1], z[0] - 3.0) - ad.arctan2(0.5, 2.0 + z[0]),
]


class TestBlocks:
    @pytest.mark.parametrize("fn", BLOCK_MODELS)
    def test_block_matches_point_by_point(self, fn, rng):
        # both branches of sigmoid and softplus occur among the points; the
        # block takes math's functions element by element, so it matches bitwise
        zs = rng.uniform(-1.0, 1.0, (6, 2))
        jac = ad.block_jacobian(lambda z: [fn(z), z[0] * z[1]], zs)
        values = np.ravel(fn(list(zs.T[:, :, None])))  # the block's value path
        grad, packed = ad.block_jacobian_curvature(fn, zs)
        hess = packed[:, 0][:, ad._pair_index(2)]
        for b, z in enumerate(zs):
            v, g, h = ad.value_gradient_hessian(fn, z)
            assert values[b] == v
            np.testing.assert_array_equal(grad[b, 0], g)
            np.testing.assert_array_equal(hess[b], h)
            np.testing.assert_array_equal(jac[b], ad.jacobian(lambda zz: [fn(zz), zz[0] * zz[1]], z))

    def test_one_row_block_runs_on_floats(self):
        seen = []
        ad.block_jacobian_curvature(lambda z: seen.append(z[0].value) or z[0], [[0.5, 1.0]])
        assert type(seen[0]) is float

    def test_array_times_hyperdual_defers_to_hyperdual(self):
        x = ad.HyperDual(np.array([[1.0], [2.0]]), np.ones(1), np.ones(1), np.zeros(1))
        out = np.array([[3.0], [4.0]]) * x
        assert isinstance(out, ad.HyperDual)
        np.testing.assert_array_equal(out.d1, [[3.0], [4.0]])

    def test_domain_check_covers_every_point(self):
        with pytest.raises(DomainError):
            ad.block_jacobian(lambda z: ad.log(z[0]), [[1.0], [-1.0], [2.0]])
        with pytest.raises(DomainError):
            ad.block_jacobian(lambda z: ad.arctan2(z[0], z[1]), [[1.0, 1.0], [0.0, 0.0]])


def lane_pairs(m, lanes):
    """The off-diagonal pairs (i, j), i < j, of packed lanes over m inputs."""
    pi, pj = np.triu_indices(m)
    return {(int(pi[p]), int(pj[p])) for p in lanes if pi[p] != pj[p]}


class TestStructuralLanes:
    @pytest.mark.parametrize(
        "fn,pairs",
        [
            (lambda z: z[0] * z[1] + ad.sin(z[2]) + 2.0 * z[3], {(0, 1)}),
            (lambda z: z[3] * 2.0 + z[0] - z[1] / 4.0, set()),
            (lambda z: ad.exp(z[0] + z[1]) - z[3], {(0, 1)}),
            (lambda z: z[0] / (1.0 + z[2]), {(0, 2)}),
            (lambda z: ad.arctan2(z[1], z[3] + 1.0) * 3.0, {(1, 3)}),
            (lambda z: ad.arctan2(0.5, z[2] * z[0]), {(0, 2)}),
            (lambda z: [z[0] * z[3], -z[1], ad.power(z[1] + z[2], 2.0)], {(0, 3), (1, 2)}),
        ],
    )
    def test_pattern_from_structure(self, fn, pairs):
        # at the origin many second derivatives vanish; only structure counts
        for zs in (np.zeros((1, 4)), np.full((3, 4), 0.5)):
            lanes = ad.structural_lanes(fn, zs)
            assert lane_pairs(4, lanes) == pairs
            diagonal = [p for p, (i, j) in enumerate(zip(*np.triu_indices(4))) if i == j]
            assert set(diagonal) <= set(lanes)

    @pytest.mark.parametrize("fn", BLOCK_MODELS)
    @pytest.mark.parametrize("rows", [1, 5])
    def test_sparse_sweeps_equal_full_sweeps_bytewise(self, fn, rows, rng):
        # two more inputs, one curved and one linear, leave pairs unseeded
        def g(z):
            return fn(z) + ad.sin(z[2]) - 0.5 * z[3]

        def vec(z):
            return [g(z), z[0] * z[3], z[2]]

        zs = rng.uniform(-1.0, 1.0, (rows, 4))
        lanes = ad.structural_lanes(g, zs)
        assert len(lanes) < 10
        for sparse, full in (
            (ad.block_jacobian_curvature(g, zs, lanes), ad.block_jacobian_curvature(g, zs)),
            (ad.block_jacobian_curvature(vec, zs, ad.structural_lanes(vec, zs)),
             ad.block_jacobian_curvature(vec, zs)),
        ):
            for a, b in zip(sparse, full):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_unseeded_pairs_are_positive_zeros(self):
        # the full sweep carries -0.0 along (0, 1) here: only the sign of a
        # zero can differ from it, and none of the benchmark models shows one
        def g(z):
            return -z[0] - z[1]

        lanes = ad.structural_lanes(g, [[1.0, 2.0]])
        _, hess = ad.block_jacobian_curvature(g, [[1.0, 2.0]], lanes)
        _, full = ad.block_jacobian_curvature(g, [[1.0, 2.0]])
        assert lanes == (0, 2)  # packed position 1 is the pair (0, 1)
        assert math.copysign(1.0, hess[0, 0, 1]) == 1.0 == -math.copysign(1.0, full[0, 0, 1])
        assert np.array_equal(hess, full)

    def test_lanes_must_hold_every_diagonal_pair(self):
        with pytest.raises(ParameterError):
            ad.block_jacobian_curvature(lambda z: z[0] * z[1], [[1.0, 2.0]], (0, 1))

    def test_trace_runs_the_model_on_the_real_values(self):
        seen = []
        ad.structural_lanes(lambda z: seen.append(z[0].value) or z[0] * z[1], [[0.5, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(seen[0], [[0.5], [2.0]])
        with pytest.raises(DomainError):
            ad.structural_lanes(lambda z: ad.log(z[0]), [[1.0], [-1.0]])
        with pytest.raises(UnsupportedPrimitiveError):
            ad.structural_lanes(lambda z: math.sin(z[0]), [[1.0]])


class TestPrimitives:
    @pytest.mark.parametrize(
        "fn,point",
        [
            (lambda z: ad.sin(z[0]) * ad.cos(z[1]), [0.4, -0.3]),
            (lambda z: ad.tan(z[0] * 0.3) + ad.arctan(z[1]), [0.5, 1.2]),
            (lambda z: ad.exp(z[0]) * ad.log(2.0 + z[1]), [0.2, 0.7]),
            (lambda z: ad.sqrt(3.0 + z[0]) + ad.sigmoid(z[1]), [0.1, -0.8]),
            (lambda z: ad.smoothmax(z[0] - z[1], 0.5), [0.6, 0.2]),
            (lambda z: ad.arctan2(z[0], 1.0 + z[1] * z[1]), [0.7, 0.3]),
            (lambda z: ad.power(1.5 + z[0], 2.5) * z[1], [0.3, 1.1]),
        ],
    )
    def test_against_finite_differences(self, fn, point):
        z = np.asarray(point)
        jac = ad.jacobian(fn, z)
        fd_j = fd_jacobian(lambda zz: fn(zz), z)
        np.testing.assert_allclose(jac, fd_j, rtol=1e-6, atol=1e-8)
        hess = ad.hessian(fn, z)
        fd_h = fd_hessian(lambda zz: fn(zz), z)
        np.testing.assert_allclose(hess, fd_h, rtol=1e-4, atol=1e-5)

    def test_log_domain_error_names_primitive(self):
        with pytest.raises(DomainError) as err:
            ad.gradient(lambda z: ad.log(z[0]), [-1.0])
        assert err.value.primitive == "log"

    @pytest.mark.parametrize("name", ["sin", "cos", "tan"])
    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_trig_at_infinity_raises_domain_error(self, name, inf):
        # math's sin, cos and tan raise ValueError at +-inf; every path of
        # the primitive reports it as a DomainError naming the primitive
        fn = getattr(ad, name)
        column = np.array([[0.5], [inf]])
        slot = np.ones((2, 1))
        for arg in (
            inf,
            column,
            ad.HyperDual(column, slot, slot, slot),
            ad.Dual(inf, np.ones(1)),
        ):
            with pytest.raises(DomainError) as err:
                fn(arg)
            assert err.value.primitive == name
        with pytest.raises(DomainError) as err:
            ad.structural_lanes(lambda z: fn(z[0] * z[1]), [[1.0, 2.0], [inf, 1.0]])
        assert err.value.primitive == name

    def test_power_rejects_negative_bases_on_every_path(self):
        # a fractional power of a negative float is complex in Python
        for arg in (-1.0, np.array([[2.0], [-1.0]]), hd(-1.0, 1.0)):
            with pytest.raises(DomainError) as err:
                ad.power(arg, 0.5)
            assert err.value.primitive == "power"
        assert ad.power(-2.0, 2.0) == 4.0

    def test_shape_errors_in_the_chain_rule_are_not_domain_errors(self):
        # only the value's evaluation is wrapped: a broadcast bug surfaces as itself
        x = ad.HyperDual(np.ones((3, 1)), np.ones((2, 4)), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError) as err:
            ad.sin(x)
        assert not isinstance(err.value, DomainError)

    def test_arctan2_rejects_origin(self):
        with pytest.raises(DomainError):
            ad.gradient(lambda z: ad.arctan2(z[0], z[1]), [0.0, 0.0])

    def test_smoothmax_limits(self):
        assert ad.smoothmax(5.0, 0.01) == pytest.approx(5.0, abs=1e-8)
        assert ad.smoothmax(-5.0, 0.01) == pytest.approx(0.0, abs=1e-8)
        assert ad.smoothmax(0.0, 0.01) == pytest.approx(0.01 * math.log(2.0))

    def test_sigmoid_extremes_are_stable(self):
        assert ad.sigmoid(800.0) == pytest.approx(1.0)
        assert ad.sigmoid(-800.0) == pytest.approx(0.0)
        g = ad.gradient(lambda z: ad.sigmoid(z[0]), [800.0])
        assert np.isfinite(g).all()

    def test_derivative_request_validation(self):
        problem = TrajectoryProblem(
            dynamics=(lambda x, u: [x[0] + u[0]],),
            running_costs=(lambda x, u: u[0] * u[0],),
            final_cost=lambda x: x[0],
            x0=[0.0],
            n_x=1,
            n_u=1,
        )
        with pytest.raises(ParameterError, match="order must be 0, 1 or 2"):
            forward(problem, [[0.0]], o_f=3)
        with pytest.raises(ParameterError, match="order must be 0, 1 or 2"):
            forward(problem, [[0.0]], o_h=3)
