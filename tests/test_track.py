"""Spline tracks: interpolation, frames, racing error terms, file format."""

import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from trajopt import autodiff as ad
from trajopt.envs import (
    border_cost,
    bundled_track,
    contouring_errors,
    track_build,
    track_eval,
    track_loads,
)
from trajopt.errors import ShapeError


def axis_track(n=6, width=1.0):
    return track_build([(float(i), 0.0) for i in range(n)], width)


class TestTrackBuild:
    def test_two_waypoints_interpolate_linearly(self):
        track = track_build([(0.0, 0.0), (2.0, 1.0)], 0.5)
        pt = track_eval(track, 0.5)
        assert pt.x == pytest.approx(1.0)
        assert pt.y == pytest.approx(0.5)

    def test_knots_are_reproduced_exactly(self):
        rng = np.random.default_rng(7)
        pts = np.cumsum(rng.uniform(0.5, 1.5, (8, 2)), axis=0)
        track = track_build(pts, 0.4)
        for i, (x, y) in enumerate(pts):
            pt = track_eval(track, float(i))
            assert pt.x == pytest.approx(x, abs=1e-12)
            assert pt.y == pytest.approx(y, abs=1e-12)

    def test_duplicate_consecutive_waypoints_rejected(self):
        with pytest.raises(ShapeError):
            track_build([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 0.5)

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_distinct_waypoints_build_at_any_scale(self, scale):
        # a gap whose square underflows is still a gap, and one whose square
        # overflows is no warning
        pts = [(0.0, 0.0), (scale, 0.0), (2.0 * scale, scale)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert track_build(pts, 0.5).knots == 3

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(ShapeError, match="track width must be positive and finite"):
            track_build([(0.0, 0.0), (1.0, 0.0)], width)

    def test_axis_aligned_frame(self):
        track = axis_track()
        pt = track_eval(track, 2.3)
        assert pt.theta == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose((pt.sin_theta, -1.0 * pt.cos_theta), (0.0, -1.0), atol=1e-12)

    def test_borders_at_half_width_at_knots(self):
        rng = np.random.default_rng(11)
        pts = np.cumsum(rng.uniform(0.5, 1.5, (7, 2)), axis=0)
        track = track_build(pts, 0.8)
        for i in range(7):
            pt = track_eval(track, float(i))
            # border points from the evaluated frame
            bx_in = pt.x - 0.4 * math.sin(pt.theta)
            by_in = pt.y + 0.4 * math.cos(pt.theta)
            dist = math.hypot(bx_in - pt.x, by_in - pt.y)
            assert dist == pytest.approx(0.4, abs=1e-10)

    def test_parameter_clamped_at_ends(self):
        track = axis_track()
        assert track_eval(track, -3.0).x == pytest.approx(track_eval(track, 0.0).x - 3.0)
        # clamping selects the end segments; the cubic extrapolates linearly
        # there (natural boundary conditions), staying finite
        assert np.isfinite(track_eval(track, 50.0).x)


def scipy_coeffs(y):
    return CubicSpline(np.arange(len(y), dtype=float), y, bc_type="natural").c


def assert_same_bytes(got, expected):
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert got.tobytes() == expected.tobytes()


class TestSplineMatchesScipy:
    """The plain-float fit gives scipy's natural-spline coefficients bit for bit."""

    def check(self, pts):
        track = track_build(pts, 1.0)
        assert_same_bytes(track.x_coeffs, scipy_coeffs(track.waypoints[:, 0]))
        assert_same_bytes(track.y_coeffs, scipy_coeffs(track.waypoints[:, 1]))

    @pytest.mark.parametrize("name", ["simple", "complex"])
    def test_bundled_tracks(self, name):
        self.check(bundled_track(name).waypoints)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_random_waypoint_sets(self, scale):
        rng = np.random.default_rng(11)
        for _ in range(100):
            self.check(scale * rng.standard_normal((int(rng.integers(2, 60)), 2)))

    def test_integer_waypoints(self):
        rng = np.random.default_rng(12)
        for n in range(2, 60):
            pts = np.column_stack([np.arange(n), rng.integers(-3, 4, n)]).astype(float)
            self.check(pts)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_straight_track_on_zero_keeps_signed_zeros(self, n):
        self.check([(float(i), 0.0) for i in range(n)])

    @pytest.mark.parametrize("n", [2, 3])
    def test_shortest_tracks(self, n):
        self.check([(0.0, 0.0), (1.5, -0.5), (2.0, 1.0)][:n])


class TestContouringErrors:
    def test_zero_on_the_curve(self):
        track = axis_track()
        pt = track_eval(track, 1.7)
        e_c, e_l = contouring_errors(pt, pt.x, pt.y)
        assert e_c == pytest.approx(0.0, abs=1e-12)
        assert e_l == pytest.approx(0.0, abs=1e-12)

    def test_sideways_displacement(self):
        track = axis_track()
        pt = track_eval(track, 2.0)
        e_c, e_l = contouring_errors(pt, pt.x, pt.y + 0.1)
        assert e_c == pytest.approx(-0.1, abs=1e-12)
        assert e_l == pytest.approx(0.0, abs=1e-12)

    def test_lagging_displacement(self):
        track = axis_track()
        pt = track_eval(track, 2.0)
        e_c, e_l = contouring_errors(pt, pt.x + 0.2, pt.y)
        assert e_c == pytest.approx(0.0, abs=1e-12)
        assert e_l == pytest.approx(-0.2, abs=1e-12)


class TestBorderCost:
    def test_negligible_on_centerline(self):
        track = axis_track(width=1.0)
        pt = track_eval(track, 2.0)
        assert border_cost(track, pt, pt.x, pt.y, w_car=0.05) <= 1e-6

    def test_quadratic_beyond_border(self):
        track = axis_track(width=1.0)
        pt = track_eval(track, 2.0)
        # outer border sits at y = -0.5; 0.1 beyond it
        val = border_cost(track, pt, pt.x, pt.y - 0.6, w_car=0.0)
        assert val == pytest.approx(0.01, abs=1e-4)

    def test_transition_value_on_border(self):
        track = axis_track(width=1.0)
        pt = track_eval(track, 2.0)
        sharp = 0.01
        val = border_cost(track, pt, pt.x, pt.y - 0.5, w_car=0.0, sharpness=sharp)
        assert val <= sharp * math.log(2.0)

    def test_differentiable_through_the_curve_parameter(self):
        track = bundled_track("simple")

        def cost(z):
            pt = track_eval(track, z[2])
            return border_cost(track, pt, z[0], z[1], w_car=0.05) + contouring_errors(
                pt, z[0], z[1]
            )[0]

        z = np.array([0.6, 0.21, 0.55])
        grad = ad.jacobian(cost, z)[0]
        h = 1e-6
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (cost(list(zp)) - cost(list(zm))) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestTrackFiles:
    def test_round_trip_through_format(self):
        text = "width=0.5\n0.0,0.0\n1.0,0.25\n2.0,0.0\n"
        track = track_loads(text)
        assert track.width == pytest.approx(0.5)
        assert track.knots == 3

    def test_indented_comment_lines_skipped(self):
        track = track_loads("width=1\n  # c\n0,0\n1,0\n")
        assert track.width == pytest.approx(1.0)
        assert track.knots == 2

    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            track_loads("width=0.5\n0.0,0.0\nnan,1.0\n")

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_rejects_non_finite_width(self, width):
        with pytest.raises(ShapeError, match="track width must be positive and finite"):
            track_loads(f"width={width}\n0,0\n1,0\n2,1\n")

    def test_rejects_unreadable_width(self):
        with pytest.raises(ShapeError, match="'width=abc'"):
            track_loads("width=abc\n0,0\n1,0\n2,1\n")

    @pytest.mark.parametrize("line", ["1,0,3", "1;0"])
    def test_rejects_line_that_is_not_a_pair(self, line):
        with pytest.raises(ShapeError, match=f"not an x,y pair: '{line}'"):
            track_loads(f"width=0.5\n0,0\n{line}\n2,1\n")

    def test_rejects_missing_header(self):
        with pytest.raises(ShapeError):
            track_loads("0.0,0.0\n1.0,1.0\n")

    def test_bundled_tracks_load(self):
        for name in ("simple", "complex"):
            track = bundled_track(name)
            assert track.knots >= 10
            assert track.width > 0

    def test_unknown_bundled_track(self):
        with pytest.raises(ShapeError):
            bundled_track("does-not-exist")
