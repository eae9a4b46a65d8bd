"""Error types shared across the package."""

__all__ = ["GeometryError", "ConstraintError", "DomainError"]


class GeometryError(ValueError):
    """Base class for all parameter and domain violations."""


class ConstraintError(GeometryError):
    """A structural constraint was violated (shift ordering, degree range,
    control net shape, sample counts)."""


class DomainError(GeometryError):
    """A parameter value lies outside the admissible interval."""
