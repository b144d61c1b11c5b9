"""Exception types shared across the package."""

from __future__ import annotations


class TrajoptError(Exception):
    """Base class for all package errors."""


class ShapeError(TrajoptError, ValueError):
    """Dimension mismatch between vectors, matrices or problem parts."""


class ParameterError(TrajoptError, ValueError):
    """A scalar parameter is outside its admissible range."""


class ConfigError(TrajoptError, ValueError):
    """Invalid run configuration (CLI flags or config file)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NumericError(TrajoptError, ArithmeticError):
    """A numeric evaluation produced an invalid result."""


class DomainError(NumericError):
    """A differentiable primitive was evaluated outside its domain."""

    def __init__(self, primitive: str, value):
        super().__init__(f"{primitive} evaluated outside its domain (argument {value!r})")
        self.primitive = primitive
        self.value = value


class UnsupportedPrimitiveError(TrajoptError, TypeError):
    """A model used an operation the derivative engine does not support."""


class DivergenceError(NumericError):
    """A forward pass produced a non-finite state, cost or derivative, or a model
    raised an ``ArithmeticError``.

    Carries the time index ``t`` of the step that diverged.  :func:`solve`
    attaches its partial trace as ``trace`` before re-raising.
    """

    def __init__(self, t: int, message: str = ""):
        detail = message or f"non-finite value while stepping dynamics at t={t}"
        super().__init__(detail)
        self.t = t
        self.trace = None

