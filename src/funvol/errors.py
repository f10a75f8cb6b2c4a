"""Exception types shared across the package."""
from __future__ import annotations

from contextlib import contextmanager


class FunvolError(Exception):
    """Base class for all package errors."""


class SchemaError(FunvolError):
    """A JSON spec (weight, function, body, manifest) failed validation."""


class UnsupportedVariant(FunvolError):
    """The requested operation would leave the closed catalog; never silently approximated."""


class NotDifferentiable(FunvolError):
    """Gradient or Hessian requested at a point where the function is not smooth."""


class UnknownSingularity(FunvolError):
    """Singularity descriptor unavailable (inverse-transform chain without a certified flat region)."""


class NonConvergedError(FunvolError):
    """Adaptive quadrature hit its depth/panel budget with the error still above tolerance.

    Carries the best available estimate so report-oriented callers can still
    surface a value together with its (too large) error.
    """

    def __init__(self, message: str, value: float = float("nan"),
                 error: float = float("inf"), evaluations: int = 0):
        super().__init__(message)
        self.value = value
        self.error = error
        self.evaluations = evaluations


@contextmanager
def spec_errors(what: str):
    """Report a catalog constructor's rejection of an input inside the block
    as a :class:`SchemaError` naming ``what``: a missing field (KeyError), a
    wrong type or value, or a number that leaves double precision."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{what} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"invalid {what}: {exc}") from exc
