"""Exception hierarchy shared by every module in the package."""

__all__ = ["ChanceKitError", "UsageError", "DataError"]


class ChanceKitError(Exception):
    """Base class for all package-specific errors."""


class UsageError(ChanceKitError, ValueError):
    """Caller misuse: bad argument values, unknown modes, out-of-range indices."""


class DataError(ChanceKitError, ValueError):
    """Input data violates a precondition (zero margins, malformed files, ...)."""
