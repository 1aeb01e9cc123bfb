"""Exception types raised by the toolkit; the type decides the CLI's exit code."""


class ToolkitError(ValueError):
    """An input the toolkit rejects (exit code 1)."""


class DegeneratePair(ToolkitError):
    """States are identical up to a global phase (exit code 3)."""
