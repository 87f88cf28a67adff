"""Exception types shared across the library."""

__all__ = [
    "PpgpError",
    "DomainError",
    "SingularMatrixError",
    "FitError",
    "TrainingError",
    "MetricError",
    "ConfigError",
    "ModelFormatError",
]


class PpgpError(Exception):
    """Base class for all library-specific errors."""


class DomainError(PpgpError, ValueError):
    """An input value lies outside the documented domain of an operation."""


class SingularMatrixError(PpgpError):
    """A matrix could not be factored even after the jitter ladder."""


class FitError(PpgpError):
    """Gaussian-process fitting failed."""


class TrainingError(PpgpError):
    """Projection-weight training failed to produce any usable model."""


class MetricError(PpgpError, ValueError):
    """A requested metric is undefined for the given data."""


class ConfigError(PpgpError, ValueError):
    """A CLI config file or flag set is invalid."""


class ModelFormatError(PpgpError, ValueError):
    """A serialized model file is malformed or has an unsupported version."""
