"""Exception types shared across the package."""


class SparsedomError(Exception):
    """Base class for all package errors."""


class EmptyCubeError(SparsedomError):
    """A cube does not intersect the grid domain."""


class NonpositiveValueError(SparsedomError):
    """A nonpositive value was fed to an operation requiring strict positivity."""


class SpecMismatchError(SparsedomError):
    """Grid functions with incompatible grid specs or component counts."""


class EmptyCubeFamilyError(SparsedomError):
    """A truncation window excludes every cube containing some cell."""


class ExponentOrderError(SparsedomError):
    """Exponents violate a required ordering (e.g. alpha >= beta)."""


class ExponentDomainError(SparsedomError):
    """An exponent combination falls outside the supported domain."""


class ZeroInputError(SparsedomError):
    """An input norm vanishes where a quotient requires it to be positive."""


class CalibrationFailureError(SparsedomError):
    """The stopping-threshold calibration failed to meet the measure budget."""


class InfeasibleCollectionError(SparsedomError):
    """A cube family admits no disjoint major subsets."""


class InstanceTooLargeError(SparsedomError):
    """Brute-force enumeration was requested on a too-large instance."""


class RequiresPeriodicError(SparsedomError):
    """An operator requires a periodic grid."""


class TruncationTooLargeError(SparsedomError):
    """A kernel truncation exceeds half of the periodic domain."""


class SizeMismatchError(SparsedomError):
    """Operator family size and input component count disagree."""


class NoCertificateError(SparsedomError):
    """An operation requires operators carrying an exact sparse-norm certificate."""


class ConfigError(SparsedomError):
    """An experiment configuration is invalid."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
