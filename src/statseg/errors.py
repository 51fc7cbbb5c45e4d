"""Exception hierarchy shared across the package. A type's `exit_code` is what
the `statseg` command returns when an error of that type ends it."""


class StatsegError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class DataError(StatsegError):
    """Input data that cannot be used as given."""
    exit_code = 2


class NumericError(StatsegError):
    """Training produced a value that is not finite."""
    exit_code = 3


class EmptyMaskError(DataError):
    """A mask with no foreground pixels where foreground is required."""


class ShapeMismatchError(DataError):
    """Two grids that must share a shape do not."""


class NonBinaryWeakMaskError(StatsegError):
    """Weak mask contains values other than 0 and 1."""


class InvalidConfigError(StatsegError):
    """Configuration object, run-config file or option violates its invariants."""


class InfeasibleROIError(DataError):
    """No ellipse satisfying the ROI-fraction constraint fits the grid."""


class EmptyStackError(DataError):
    """A mask stack with no slices."""


class AllSlicesEmptyError(DataError):
    """Every slice in a volume has zero foreground."""


class MissingPairError(DataError):
    """An image file without its mask counterpart (or vice versa)."""


class MalformedFileError(DataError):
    """A file that cannot be parsed as the expected format."""


class NonFiniteGradientError(NumericError):
    """Gradient contains NaN or infinity."""


class NonFiniteLossError(NumericError):
    """Loss value is NaN or infinite; training aborts."""
