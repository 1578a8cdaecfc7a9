"""Exception types shared across the library."""

__all__ = [
    "TailkitError", "EmptySample", "DomainError", "DegenerateTail", "KindMismatch",
    "SampleTooSmall", "InsufficientGrid", "SchemaError", "SingularDesign", "RenderError",
]


class TailkitError(Exception):
    """Base class for all tailkit errors."""


class EmptySample(TailkitError):
    """No usable observations remain (empty input or all filtered out)."""


class DomainError(TailkitError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class DegenerateTail(TailkitError):
    """Tail has no spread (all observations equal), estimator undefined."""


class KindMismatch(TailkitError):
    """Data does not match the declared sample kind (e.g. non-integer discrete)."""


class SampleTooSmall(TailkitError):
    """Fewer observations than the operation requires."""


class InsufficientGrid(SampleTooSmall):
    """Too few grid points for the bias-correction regression."""


class SchemaError(TailkitError):
    """Input file does not match the documented CSV schema."""


class SingularDesign(TailkitError):
    """Regression design matrix is singular even after diagonal jitter."""


class RenderError(TailkitError):
    """Figure cannot be rendered (empty input or invalid coordinates)."""
