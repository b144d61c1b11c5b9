"""Spline tracks: centerline, tangent frame, borders, and racing error terms.

A track interpolates its waypoints with natural cubic splines parameterized
by knot index, so one unit of the curve parameter advances one waypoint.
Waypoints spaced roughly one length unit apart make the parameter behave
like arc length; the reference speed of the racing costs is expressed in
these units per second.  ``track_eval`` is generic over scalar type so
costs can differentiate through the curve parameter; the error terms take
its ``TrackPoint``, so a cost evaluates the spline once for all of them.

``track_build`` fits the splines on Python floats and reproduces
``scipy.interpolate.CubicSpline(..., bc_type="natural")`` bit for bit
(de Boor, *A Practical Guide to Splines*, ch. IV).  The knot slopes solve
scipy's tridiagonal system, which scipy hands to LAPACK ``dgtsv``.  With
unit knots that system is strictly diagonally dominant (diagonal 2, 4,
..., 4, 2 against off-diagonal 1), so ``dgtsv`` never swaps rows, and its
pivot-free elimination in the same operation order gives the same slopes.
The back-solve keeps ``dgtsv``'s ``- dl[i] * s[i + 2]`` term even though
``dl[i]`` is zero there: it decides the sign of a zero slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .. import autodiff as ad
from ..core import _array, _scalar
from ..errors import DomainError, ShapeError

__all__ = [
    "Track",
    "TrackPoint",
    "track_build",
    "track_loads",
    "bundled_track",
    "track_eval",
    "contouring_errors",
    "border_cost",
]

BORDER_SHARPNESS = 0.01


class TrackPoint(NamedTuple):
    """Centerline point, tangent angle and its sine and cosine at parameter s.

    (sin_theta, -cos_theta) is the border normal, pointing from the inner
    border side toward the outer one.
    """

    x: object
    y: object
    theta: object
    sin_theta: object
    cos_theta: object


@dataclass(frozen=True)
class Track:
    """Waypoint spline with width; coefficients are per-segment cubics."""

    waypoints: np.ndarray
    width: float
    x_coeffs: np.ndarray  # (4, n-1), highest degree first
    y_coeffs: np.ndarray

    @property
    def knots(self) -> int:
        return self.waypoints.shape[0]


def track_build(waypoints, width: float) -> Track:
    """Interpolate waypoints with natural cubic splines.

    Natural boundary conditions give twice continuously differentiable
    centerlines; duplicate consecutive waypoints are rejected because they
    would degenerate the tangent.
    """
    pts = _array(waypoints, "track waypoints", (None, 2))
    if len(pts) < 2:
        raise ShapeError("a track needs at least two (x, y) waypoints")
    _scalar(width, "track width", 0.0, error=ShapeError)
    if (pts[1:] == pts[:-1]).all(axis=1).any():
        raise ShapeError("duplicate consecutive waypoints")
    return Track(pts, float(width), _natural_spline(pts[:, 0].tolist()),
                 _natural_spline(pts[:, 1].tolist()))


def _natural_spline(y: list) -> np.ndarray:
    """(4, n-1) coefficients of the natural cubic spline through y at knots 0..n-1.

    Slopes s solve s[i-1] + 4 s[i] + s[i+1] = 3 (slope[i-1] + slope[i])
    inside and 2 s[0] + s[1], s[-2] + 2 s[-1] = 3 slope at the ends, in
    ``dgtsv``'s order (see the module docstring); the coefficients are
    ``CubicHermiteSpline``'s, whose divisions by the unit knot gap are exact.
    """
    n = len(y)
    slope = [b - a for a, b in zip(y, y[1:])]
    d = [2.0] + [4.0] * (n - 2) + [2.0]
    # the end rows carry the natural condition's zero second derivative term
    s = ([-0.0 + 3.0 * slope[0]] + [3.0 * (a + b) for a, b in zip(slope, slope[1:])]
         + [0.0 + 3.0 * slope[-1]])
    for i in range(n - 1):
        fact = 1.0 / d[i]
        d[i + 1] -= fact
        s[i + 1] -= fact * s[i]
    s[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        r = s[i] - s[i + 1]
        if i + 2 < n:
            r -= 0.0 * s[i + 2]  # dgtsv's zeroed second superdiagonal: it signs zeros
        s[i] = r / d[i]
    t = [a + b - 2.0 * m for a, b, m in zip(s, s[1:], slope)]
    return np.array([t, [m - a - c for m, a, c in zip(slope, s, t)], s[:-1], y[:-1]])


def track_loads(text: str) -> Track:
    """Parse the track file format: a width header then one x,y pair per line."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("width="):
        raise ShapeError("track file must start with a 'width=<float>' line")
    try:
        width = float(lines[0].split("=", 1)[1])
    except ValueError:
        raise ShapeError(f"track file has an unreadable width line: {lines[0]!r}") from None
    pts = []
    for ln in lines[1:]:
        try:
            x, y = map(float, ln.split(","))
        except ValueError:
            raise ShapeError(f"track file line is not an x,y pair: {ln!r}") from None
        pts.append((x, y))
    return track_build(pts, width)


def bundled_track(name: str) -> Track:
    """One of the tracks shipped with the package ('simple' or 'complex')."""
    data = resources.files(__package__).joinpath(f"tracks/{name}.txt")
    try:
        return track_loads(data.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ShapeError(f"no bundled track named {name!r}") from None


def _segment(track: Track, s) -> tuple:
    """Segment index of s and the local parameter; an index array for a block of s."""
    s_val = ad.value(s)
    block = isinstance(s_val, np.ndarray)
    if not (np.isfinite(s_val).all() if block else math.isfinite(s_val)):
        raise DomainError("track_eval", s_val)
    if block:
        idx = np.clip(np.floor(s_val), 0, track.knots - 2).astype(int)
        return idx, s - idx
    idx = min(max(int(math.floor(s_val)), 0), track.knots - 2)
    return idx, s - float(idx)


def _coeffs(coeffs, idx, n: int) -> list:
    """The n leading cubic coefficients of segment idx: floats, or arrays for an index array."""
    c = coeffs[:n, idx]
    return list(c) if isinstance(idx, np.ndarray) else c.tolist()


def _cubic(coeffs, idx, local):
    c0, c1, c2, c3 = _coeffs(coeffs, idx, 4)
    return ((c0 * local + c1) * local + c2) * local + c3


def _cubic_deriv(coeffs, idx, local):
    c0, c1, c2 = _coeffs(coeffs, idx, 3)
    return (3.0 * c0 * local + 2.0 * c1) * local + c2


def track_eval(track: Track, s) -> TrackPoint:
    """Centerline point and tangent frame at parameter s.

    The parameter is clamped to the spline domain at both ends; evaluation
    accepts hyper-dual parameters so costs can differentiate through s.  A
    parameter that is not finite raises :class:`DomainError`, so a solve
    that reaches one ends as diverged.
    """
    idx, local = _segment(track, s)
    x = _cubic(track.x_coeffs, idx, local)
    y = _cubic(track.y_coeffs, idx, local)
    dx = _cubic_deriv(track.x_coeffs, idx, local)
    dy = _cubic_deriv(track.y_coeffs, idx, local)
    theta = ad.arctan2(dy, dx)
    return TrackPoint(x, y, theta, ad.sin(theta), ad.cos(theta))


def contouring_errors(pt: TrackPoint, x, y):
    """Signed normal and tangential displacement from the curve point pt.

    The first component measures sideways deviation from the centerline,
    the second how far the position trails the reference point along the
    track direction.
    """
    sin_t, cos_t = pt.sin_theta, pt.cos_theta
    ex, ey = x - pt.x, y - pt.y
    e_contour = sin_t * ex - cos_t * ey
    e_lag = -1.0 * cos_t * ex - sin_t * ey
    return e_contour, e_lag


def border_cost(track: Track, pt: TrackPoint, x, y, w_car: float, sharpness=BORDER_SHARPNESS):
    """Squared smooth-hinge penalty on crossing either border of track at pt.

    The signed distances grow positive once the car body (half-width
    ``w_car``) passes a border; the inner one flips the sign of the border
    normal.  Inside the track both hinges are exponentially small.
    """
    half = 0.5 * track.width
    sin_t, cos_t = pt.sin_theta, pt.cos_theta
    # borders offset from the centerline along the left normal (-sin, cos)
    in_x, in_y = pt.x - half * sin_t, pt.y + half * cos_t
    out_x, out_y = pt.x + half * sin_t, pt.y - half * cos_t
    nx, ny = sin_t, -1.0 * cos_t
    d_in = -1.0 * ((x - in_x) * nx + (y - in_y) * ny)
    d_out = (x - out_x) * nx + (y - out_y) * ny
    hinge_in = ad.smoothmax(w_car + d_in, sharpness)
    hinge_out = ad.smoothmax(w_car + d_out, sharpness)
    return hinge_in * hinge_in + hinge_out * hinge_out
