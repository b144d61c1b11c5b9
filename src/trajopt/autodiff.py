"""Second-order forward-mode differentiation on scalar computation graphs.

Models (dynamics and costs) are plain Python callables over sequences of
scalar-like values.  Evaluated on floats they return floats; evaluated on
:class:`HyperDual` numbers they carry exact first and second derivatives
along a batch of direction pairs.  Each unary primitive (``sin``, ``cos``,
``tan``, ``arctan``, ``exp``, ``log``, ``sqrt``, ``sigmoid``) is built by one
constructor from math's float function and its derivative rules, and
dispatches on the argument type, so the same model code serves both paths;
``arctan2``, ``smoothmax`` and ``power`` are written out.  A primitive
evaluated outside its domain, ``log`` at 0 or ``sin`` at +-inf, raises
:class:`~trajopt.errors.DomainError`, an ArithmeticError, which the
solvers report as a rejected trial or a divergence.

A hyper-dual number is a second-order jet over the m inputs of a model:
next to its value it stores the gradient ``g`` and ``h``, the second
derivatives along P seeded pairs (i, j) of inputs, whose rules read the
pair's two slopes from ``g``.  One evaluation yields P exact second
derivatives from m + P floats per number.  A :class:`Dual` keeps only the
gradient and serves first-order sweeps.

The ``block_*`` sweeps differentiate one model at B points in a single
evaluation, :func:`block_jacobian` to first order and
:func:`block_jacobian_curvature` to second; a scalar model, such as a
cost, is a model with one output.  The values are then (B, 1) arrays and
``g`` and ``h`` (B, m) and (B, P), so arithmetic runs as numpy array
operations and the primitives apply math's functions element by element;
the results equal B evaluations at one point each, bit for bit.  Model
code must therefore be array-safe: a branch on a value tests it with
:func:`anywhere` (or an element-wise ``np.where``), and a table lookup
indexes with arrays.

The pairs are independent lanes of element-wise arithmetic, so a sweep may
seed only some of them (the ``lanes`` argument of
:func:`block_jacobian_curvature`): the seeded lanes come out bit for bit
as in the full sweep.  :func:`structural_lanes` finds the lanes a model
needs by one evaluation on tracer numbers, which carry the real value (so
branches take the same path as the sweep) and, as bit masks, the inputs
the value depends on and the pairs whose second derivative can be nonzero.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedPrimitiveError

__all__ = [
    "HyperDual",
    "Dual",
    "anywhere",
    "jacobian",
    "block_jacobian",
    "block_jacobian_curvature",
    "structural_lanes",
    "contract_curvature",
    "hessian_blocks",
    "value",
    "vector_hessian",
    "lambda_hessian",
    "sin",
    "cos",
    "tan",
    "arctan",
    "arctan2",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "smoothmax",
    "power",
]


class HyperDual:
    """Second-order jet over m inputs: a value, its gradient ``g`` and its pairs' ``h``.

    ``ij = (pi, pj)``, shared by every number of one sweep, indexes the
    inputs of the P seeded pairs; a pair's formula reads the gradient at
    its i and at its j.  In a block sweep the value is a (B, 1) array and
    ``g`` and ``h`` broadcast to (B, m) and (B, P).  Instances are treated
    as immutable; the arrays must never be mutated in place.
    """

    __slots__ = ("value", "g", "h", "ij")

    # ndarray (op) HyperDual returns NotImplemented, so Python calls the
    # reflected HyperDual method instead of looping over the array.
    __array_ufunc__ = None

    def __init__(self, value, g, h, ij):
        self.value = value
        self.g = g
        self.h = h
        self.ij = ij

    def _at(self):
        """The gradient at each pair's i and at its j."""
        pi, pj = self.ij
        return self.g.take(pi, axis=-1), self.g.take(pj, axis=-1)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.value + other.value, self.g + other.g, self.h + other.h, self.ij)
        return HyperDual(self.value + other, self.g, self.h, self.ij)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.value - other.value, self.g - other.g, self.h - other.h, self.ij)
        return HyperDual(self.value - other, self.g, self.h, self.ij)

    def __rsub__(self, other):
        return HyperDual(other - self.value, -self.g, -self.h, self.ij)

    def __neg__(self):
        return HyperDual(-self.value, -self.g, -self.h, self.ij)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            (pi, pj), sg, og = self.ij, self.g, other.g
            return HyperDual(
                self.value * other.value,
                self.value * og + sg * other.value,
                self.value * other.h
                + sg.take(pi, axis=-1) * og.take(pj, axis=-1)
                + sg.take(pj, axis=-1) * og.take(pi, axis=-1)
                + self.h * other.value,
                self.ij,
            )
        return HyperDual(self.value * other, self.g * other, self.h * other, self.ij)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        v = self.value
        iv = 1.0 / v
        return self._chain(iv, -iv * iv, 2.0 * iv * iv * iv)

    def _chain(self, f, fp, fpp):
        """Chain rule for a scalar primitive with value f and derivatives fp, fpp."""
        gi, gj = self._at()
        return HyperDual(f, fp * self.g, fp * self.h + fpp * (gi * gj), self.ij)

    def __pow__(self, p):
        return power(self, p)

    # -- comparisons on the value (used by branchless-at-second-order code) --

    def __lt__(self, other):
        return self.value < value(other)

    def __le__(self, other):
        return self.value <= value(other)

    def __gt__(self, other):
        return self.value > value(other)

    def __ge__(self, other):
        return self.value >= value(other)

    def __float__(self):
        raise UnsupportedPrimitiveError(
            "a hyper-dual number was coerced to float; the model uses an "
            "operation outside the supported primitives (+,-,*,/, sin, cos, "
            "tan, arctan, arctan2, exp, log, sqrt, sigmoid, smoothmax, power)"
        )

    def __repr__(self):
        return f"HyperDual({self.value!r}, g={self.g!r}, h={self.h!r})"


class Dual(HyperDual):
    """First-order number: a value and its gradient ``g``.

    The jet without second derivatives; first-order sweeps seed these.
    Arithmetic with any hyper-dual operand keeps only the gradient, which
    is exact to first order.
    """

    __slots__ = ()

    def __init__(self, value, g):
        self.value = value
        self.g = g

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return Dual(self.value + other.value, self.g + other.g)
        return Dual(self.value + other, self.g)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return Dual(self.value - other.value, self.g - other.g)
        return Dual(self.value - other, self.g)

    def __rsub__(self, other):
        if isinstance(other, HyperDual):
            return Dual(other.value - self.value, other.g - self.g)
        return Dual(other - self.value, -self.g)

    def __neg__(self):
        return Dual(-self.value, -self.g)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return Dual(self.value * other.value, self.value * other.g + self.g * other.value)
        return Dual(self.value * other, self.g * other)

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp):
        return Dual(f, fp * self.g)

    def __repr__(self):
        return f"Dual({self.value!r}, g={self.g!r})"


class _Trace(HyperDual):
    """A value and the structure of its derivatives over m inputs.

    Bit a of ``deps`` is set when the value depends on input a, and bit
    a*m of ``rows`` with it; bit i*m + j of ``pairs`` is set, in both
    orders, when the second derivative along (i, j) can be nonzero.  The
    value is computed as a hyper-dual sweep computes it, so the model
    takes the same branches.  ``+`` and ``-`` take the unions, ``*`` adds
    the cross pairs of its operands, and a nonlinear primitive
    (``_chain``) adds every pair of its argument's inputs.
    """

    __slots__ = ("deps", "rows", "pairs")

    def __init__(self, value, deps=0, rows=0, pairs=0):
        self.value = value
        self.deps = deps
        self.rows = rows
        self.pairs = pairs

    def _like(self, value, pairs: int = 0):
        return _Trace(value, self.deps, self.rows, self.pairs | pairs)

    def _joined(self, other, value, pairs: int = 0):
        return _Trace(value, self.deps | other.deps, self.rows | other.rows,
                      self.pairs | other.pairs | pairs)

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return self._joined(other, self.value + other.value)
        return self._like(self.value + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return self._joined(other, self.value - other.value)
        return self._like(self.value - other)

    def __rsub__(self, other):
        return self._like(other - self.value)

    def __neg__(self):
        return self._like(-self.value)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            cross = other.deps * self.rows | self.deps * other.rows
            return self._joined(other, self.value * other.value, cross)
        return self._like(self.value * other)

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp):
        return self._like(f, self.deps * self.rows)

    def __repr__(self):
        return f"_Trace({self.value!r}, deps={self.deps:#x}, pairs={self.pairs:#x})"


def value(x):
    """The value of a model quantity, which model code reads to branch on or index with."""
    return x.value if isinstance(x, HyperDual) else x


def _elementwise(fn, nin: int = 1):
    """The float function ``fn`` over arrays, applied element by element.

    numpy's own tan, arctan, exp, log, log1p and arctan2 differ from math's
    in the last bit on a few percent of inputs.  Taking math's on every
    element keeps a block of stages bitwise equal to the same stages
    evaluated one at a time, so blocking cannot change a solver's path.
    """
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: ufunc(*args).astype(float)


_ATAN2 = _elementwise(math.atan2, 2)
_POW = _elementwise(operator.pow, 2)


# Type of the values of a block; compared by identity, which is cheaper
# than isinstance on the hot plain-float path.
_ARRAY = np.ndarray


def anywhere(cond) -> bool:
    """Whether a comparison of model values holds, at any point of a block.

    Model branches on values go through this so they accept the boolean
    arrays that comparisons yield when a block of points is evaluated.
    """
    return bool(cond.any()) if type(cond) is _ARRAY else cond


# -- primitives ------------------------------------------------------------


def _primitive(name: str, fn, derivatives, outside=None):
    """The differentiable primitive ``name`` of the float function ``fn``.

    It takes ``fn`` on a float and its element-by-element form on an array,
    whether the argument is a plain value or the value v of a hyper-dual
    number; plain floats, the order-0 passes, are tested first.  On a
    hyper-dual number it applies the chain rule with the first and second
    derivatives ``derivatives(v, f)`` at v, given the value f there.  An
    argument that fails the domain test (``outside(v)`` holds at any
    point), or on which ``fn`` raises ValueError (as math's sin, cos and
    tan do at +-inf), raises :class:`DomainError`, an ArithmeticError.
    """
    many = _elementwise(fn)

    def primitive(x):
        if type(x) is float and outside is None:  # the order-0 passes
            try:
                return fn(x)
            except ValueError as err:
                raise DomainError(name, x) from err
        v = x.value if isinstance(x, HyperDual) else x
        if outside is not None and anywhere(outside(v)):
            raise DomainError(name, v)
        try:
            f = many(v) if type(v) is _ARRAY else fn(v)
        except ValueError as err:
            raise DomainError(name, v) from err
        if v is x:  # a plain value
            return f
        return x._chain(f, *derivatives(v, f))

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


def _sigmoid_value(v: float) -> float:
    if v >= 0.0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _softplus_value(v: float) -> float:
    if v > 0.0:
        return v + math.log1p(math.exp(-v))
    return math.log1p(math.exp(v))


sin = _primitive("sin", math.sin, lambda v, s: (cos(v), -s))
cos = _primitive("cos", math.cos, lambda v, c: (-sin(v), -c))
tan = _primitive("tan", math.tan, lambda v, t: (fp := 1.0 + t * t, 2.0 * t * fp))
arctan = _primitive(
    "arctan", math.atan, lambda v, f: (fp := 1.0 / (1.0 + v * v), -2.0 * v * fp * fp)
)
exp = _primitive("exp", math.exp, lambda v, e: (e, e))
log = _primitive("log", math.log, lambda v, f: (iv := 1.0 / v, -iv * iv), lambda v: v <= 0.0)
sqrt = _primitive("sqrt", math.sqrt, lambda v, r: (0.5 / r, -0.25 / (r * v)), lambda v: v < 0.0)
sigmoid = _primitive(
    "sigmoid", _sigmoid_value, lambda v, s: (fp := s * (1.0 - s), fp * (1.0 - 2.0 * s))
)
_softplus = _primitive(
    "softplus", _softplus_value, lambda v, f: (s := sigmoid(v), s * (1.0 - s))
)


def arctan2(y, x):
    """Two-argument arctangent, differentiable away from the origin."""
    if type(y) is float and type(x) is float:
        if y == 0.0 and x == 0.0:
            raise DomainError("arctan2", (y, x))
        return math.atan2(y, x)
    yv, xv = value(y), value(x)
    if anywhere((yv == 0.0) & (xv == 0.0)):
        raise DomainError("arctan2", (yv, xv))
    f = _ATAN2(yv, xv) if type(yv) is _ARRAY or type(xv) is _ARRAY else math.atan2(yv, xv)
    if not isinstance(y, HyperDual) and not isinstance(x, HyperDual):
        return f
    r2 = xv * xv + yv * yv
    gy = xv / r2
    gx = -yv / r2
    if isinstance(y, Dual) or isinstance(x, Dual):
        yg = y.g if isinstance(y, HyperDual) else 0.0
        xg = x.g if isinstance(x, HyperDual) else 0.0
        return Dual(f, gy * yg + gx * xg)
    r4 = r2 * r2
    hyy = -2.0 * xv * yv / r4
    hxx = 2.0 * xv * yv / r4
    hyx = (yv * yv - xv * xv) / r4
    if isinstance(y, _Trace) or isinstance(x, _Trace):
        # traced after the same value arithmetic, so it raises where a sweep does
        y, x = (t if isinstance(t, _Trace) else _Trace(t) for t in (y, x))
        return y._joined(x, f)._chain(f, None, None)
    jet = y if isinstance(y, HyperDual) else x
    y, x = (t if isinstance(t, HyperDual) else
            HyperDual(t, np.zeros(jet.g.shape), np.zeros(jet.h.shape), jet.ij) for t in (y, x))
    (yi, yj), (xi, xj) = y._at(), x._at()
    h = (
        gy * y.h
        + gx * x.h
        + hyy * yi * yj
        + hyx * (yi * xj + xi * yj)
        + hxx * xi * xj
    )
    return HyperDual(f, gy * y.g + gx * x.g, h, jet.ij)


def smoothmax(x, sharpness: float = 0.01):
    """Smooth approximation of max(x, 0): sharpness * softplus(x / sharpness).

    Tends to the exact hinge as ``sharpness`` goes to 0; the value at the
    kink is sharpness*log(2).
    """
    if not sharpness > 0.0:
        raise ParameterError(f"smoothmax sharpness must be > 0, got {sharpness}")
    if isinstance(x, HyperDual):
        z = x.value / sharpness
        s = sigmoid(z)
        return x._chain(sharpness * _softplus(z), s, s * (1.0 - s) / sharpness)
    return sharpness * _softplus(x / sharpness)


def power(x, p):
    """x**p for a constant real exponent p."""
    if isinstance(p, HyperDual):
        raise UnsupportedPrimitiveError("power supports constant exponents only")
    v = value(x)
    if p != round(p) and anywhere(v < 0.0):
        raise DomainError("power", v)
    pw = _POW if type(v) is _ARRAY else operator.pow
    if not isinstance(x, HyperDual):
        return pw(x, p)
    f = pw(v, p)
    fp = p * pw(v, p - 1) if p != 0 else 0.0
    fpp = p * (p - 1) * pw(v, p - 2) if p not in (0, 1) else 0.0
    return x._chain(f, fp, fpp)


# -- derivative extraction --------------------------------------------------


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# Seeds depend only on the input size; the cached arrays are read-only
# because every seeded input of every sweep shares their rows.
@lru_cache(maxsize=64)
def _first_order_seeds(m: int) -> np.ndarray:
    return _read_only(np.eye(m))[0]


@lru_cache(maxsize=64)
def _pairs(m: int) -> tuple:
    """(pi, pj): the m(m+1)/2 pairs i <= j of m inputs in the one packed order."""
    return _read_only(*np.triu_indices(m))


@lru_cache(maxsize=256)
def _second_order_seeds(m: int, lanes: tuple | None = None) -> tuple:
    """``ij = (pi, pj)``, the seeded pairs of :func:`_pairs`, and their zero second derivatives.

    ``lanes`` keeps only those positions of the pairs, which must include
    every diagonal pair (i, i), so a sparse sweep's diagonal is the full
    sweep's, zeros of either sign included.
    """
    pi, pj = _pairs(m)
    if lanes is not None:
        keep = np.asarray(lanes, dtype=np.intp)
        pi, pj = pi[keep], pj[keep]
        if np.unique(pi[pi == pj]).size != m:
            raise ParameterError("seeded lanes must include every diagonal pair")
    pi, pj, zeros = _read_only(pi, pj, np.zeros(pi.size))
    return (pi, pj), zeros


def _values(zs: np.ndarray) -> list:
    """Input values of one sweep: floats at one point, (B, 1) columns at B > 1."""
    if zs.shape[0] == 1:
        return zs[0].tolist()
    return list(zs.T[:, :, None])


def _points(zs) -> np.ndarray:
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[0] < 1:
        raise ParameterError(f"a block of points must have shape (B, m), got {zs.shape}")
    return zs


def _as_output_list(out) -> list:
    if isinstance(out, (list, tuple)):
        return list(out)
    return [out]


def block_jacobian(g, zs) -> np.ndarray:
    """Jacobians of ``g`` at each row of ``zs`` (B, m), shape (B, n, m).

    One first-order sweep evaluates ``g`` once on the whole block.
    """
    zs = _points(zs)
    b, m = zs.shape
    seeds = _first_order_seeds(m)
    out = _as_output_list(g([Dual(v, seeds[a]) for a, v in enumerate(_values(zs))]))
    jac = np.zeros((b, len(out), m))
    for i, o in enumerate(out):
        if isinstance(o, HyperDual):
            jac[:, i] = o.g
    return jac


@lru_cache(maxsize=64)
def _pair_index(m: int) -> np.ndarray:
    """(m, m) positions of the pairs (min(i, j), max(i, j)) in the packed order.

    ``packed[..., _pair_index(m)]`` unpacks values over the pairs i <= j
    into symmetric (m, m) matrices.
    """
    pi, pj = _pairs(m)
    index = np.empty((m, m), dtype=np.intp)
    index[pi, pj] = index[pj, pi] = np.arange(pi.size)
    return _read_only(index)[0]


@lru_cache(maxsize=64)
def hessian_blocks(n_x: int, n_u: int) -> tuple:
    """Where the (x, x), (u, u) and (x, u) blocks of a Hessian in z = (x, u) sit among its pairs.

    ``packed.take(at, axis=-1)`` gathers one block of one point or a stack."""
    pairs = _pair_index(n_x + n_u)
    return pairs[:n_x, :n_x], pairs[n_x:, n_x:], pairs[:n_x, n_x:]


def block_jacobian_curvature(g, zs, lanes=None) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians (B, n, m) and packed second derivatives (B, n, m(m+1)/2) of ``g``.

    One second-order sweep over the m(m+1)/2 direction pairs (i, j), i <= j,
    in the order of ``np.triu_indices(m)``, evaluates ``g`` once at all
    rows of ``zs`` (B, m).  ``[b, k, p]`` of the second result is the
    second derivative of output k along pair p at point b; the Jacobian is
    the outputs' gradients.  A scalar ``g`` is a model with
    one output: row 0 holds its gradient and packed Hessian.  The packed
    form stores each output's Hessian without its repeated lower triangle;
    :func:`vector_hessian` unpacks it, :func:`contract_curvature` folds it
    against a vector and :func:`hessian_blocks` locates its blocks.
    ``lanes``, a tuple of pair positions that holds every diagonal pair
    (see :func:`structural_lanes`), seeds only those pairs: their entries
    come out as in the full sweep, and every other packed entry is +0.0,
    where the full sweep's is a structural zero (of either sign).
    """
    zs = _points(zs)
    b, m = zs.shape
    ij, zeros = _second_order_seeds(m, lanes)
    seeds = _first_order_seeds(m)
    out = _as_output_list(g([HyperDual(v, seeds[a], zeros, ij) for a, v in enumerate(_values(zs))]))
    columns = slice(None) if lanes is None else list(lanes)
    jac = np.zeros((b, len(out), m))
    d12 = np.zeros((b, len(out), m * (m + 1) // 2))
    for k, o in enumerate(out):
        if isinstance(o, HyperDual):
            jac[:, k] = o.g
            d12[:, k, columns] = o.h
    return jac, d12


@lru_cache(maxsize=256)
def _pattern_lanes(m: int, pairs: int) -> tuple:
    pi, pj = _pairs(m)
    return tuple(
        p for p, (i, j) in enumerate(zip(pi.tolist(), pj.tolist()))
        if i == j or pairs >> (i * m + j) & 1
    )


def structural_lanes(g, zs) -> tuple:
    """The pairs a second-order sweep of ``g`` at the rows of ``zs`` must seed.

    One evaluation of ``g`` on tracer numbers finds, from the structure of
    its arithmetic, the pairs (i, j) whose second derivative can be
    nonzero at these points; a zero at the point itself is not dropped.
    The result holds their positions in the pair order of
    ``np.triu_indices(m)`` plus every diagonal pair, as the ``lanes`` of
    :func:`block_jacobian_curvature`.  A model's branch may take another
    path at other points, so the pattern holds for these points only.
    """
    zs = _points(zs)
    m = zs.shape[1]
    out = _as_output_list(g([_Trace(v, 1 << a, 1 << a * m) for a, v in enumerate(_values(zs))]))
    pairs = 0
    for o in out:
        if isinstance(o, _Trace):
            pairs |= o.pairs
    return _pattern_lanes(m, pairs)


def contract_curvature(d12: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The packed Hessian of z -> f(z)^T lam from f's packed second derivatives.

    ``d12`` (..., n, m(m+1)/2), one point's rows of
    :func:`block_jacobian_curvature` or a stack's, against ``lam`` (..., n)
    gives (..., m(m+1)/2).  The products lam_k * d12[k] are summed from 0.0
    in output order (a reduction over a slow axis of a fresh array runs
    row by row), so every result is bitwise the same however its point was
    blocked or stacked.
    """
    return np.add.reduce(lam[..., None] * d12, axis=-2, initial=0.0)


def jacobian(g, z) -> np.ndarray:
    """Exact Jacobian of ``g`` at ``z`` via one batched forward sweep.

    ``g`` maps a sequence of m scalars to a scalar or a sequence of n
    scalars; the result has shape (n, m), so a scalar's gradient is row 0.
    """
    return block_jacobian(g, np.asarray(z, dtype=float).reshape(1, -1))[0]


def vector_hessian(f, z) -> np.ndarray:
    """Per-output Hessians of ``f`` at ``z``, shape (n, m, m); a scalar's is entry 0."""
    z = np.asarray(z, dtype=float).reshape(1, -1)
    return block_jacobian_curvature(f, z)[1][0][:, _pair_index(z.shape[1])]


def lambda_hessian(f, z, lam) -> np.ndarray:
    """Hessian of the scalar z -> f(z)^T lam, shape (m, m).

    Costs one sweep over the m(m+1)/2 direction pairs regardless of the
    output dimension of ``f``; the solvers take the same sweep once per
    forward pass and contract its stored result instead.
    """
    z = np.asarray(z, dtype=float).reshape(1, -1)
    lam = np.asarray(lam, dtype=float).ravel()
    if not np.all(np.isfinite(lam)):
        raise ParameterError("contraction vector must be finite")
    d12 = block_jacobian_curvature(f, z)[1][0]
    if len(d12) != lam.size:
        raise ParameterError(
            f"contraction vector has size {lam.size}, expected {len(d12)} outputs"
        )
    return contract_curvature(d12, lam)[_pair_index(z.shape[1])]
