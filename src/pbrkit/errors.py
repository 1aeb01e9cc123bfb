"""Exception types raised by the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class DimMismatch(ToolkitError, ValueError):
    """Operands have incompatible dimensions."""


class AngleOutOfRange(ToolkitError, ValueError):
    """Overlap cos(omega) outside [0, 1)."""


class DegeneratePair(ToolkitError, ValueError):
    """States are identical up to a global phase."""


class GridOutOfRange(ToolkitError, ValueError):
    """Grid value outside the open interval (0, 1)."""


class BadPreparation(ToolkitError, ValueError):
    """Preparation index outside {1, 2, 3, 4}."""


class BadEpsilon(ToolkitError, ValueError):
    """Compatibility probability outside [0, 1]."""
