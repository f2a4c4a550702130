"""Exception types shared across the package."""


class PowerGapError(Exception):
    """Base class for all package errors."""


class StructuralError(PowerGapError):
    """A structural hypothesis on the data is violated (names the condition);
    `field`, when given, names the input field at fault."""

    field = None


class MeshingError(PowerGapError):
    """Mesh generation failed (geometry too thin for the requested h, etc.)."""


class SolverError(PowerGapError):
    """Linear solve failed or the assembled system is not usable."""


class ChartRangeError(PowerGapError):
    """A point lies outside the local interface chart."""


class CoverageError(PowerGapError):
    """A region to be integrated is not covered by the mesh."""


class DegenerateMeasurementError(PowerGapError):
    """Boundary measurement carries no usable power (Re W'0 at tolerance)."""


class InequalityViolation(PowerGapError):
    """An inequality predicted by the theory failed empirically."""


class ConfigError(PowerGapError):
    """Experiment configuration could not be parsed or validated."""
