"""Exception types shared across the package.

Every error the package raises is a SparsedomError, so the command line
turns each one into exit status 2.  An argument that, alone or together
with the others, lies outside what a call supports raises DomainError with
a message saying which.  Add a class only where some code catches it by
name, or where it names a failure that is not a bad argument; otherwise
raise DomainError.
"""


class SparsedomError(Exception):
    """Base class for all package errors."""


class ConfigError(SparsedomError):
    """An experiment configuration is invalid."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class DomainError(SparsedomError, ValueError):
    """An argument, alone or together with the others, lies outside what
    the call supports."""


class NonpositiveValueError(DomainError):
    """A nonpositive value was fed to an operation requiring strict positivity."""


class ZeroInputError(DomainError):
    """An input norm vanishes where a quotient requires it to be positive."""


class InfeasibleCollectionError(SparsedomError):
    """A cube family admits no disjoint major subsets."""


class CalibrationFailureError(SparsedomError):
    """The stopping-threshold calibration failed to meet the measure budget."""
