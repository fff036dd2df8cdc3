"""Exception types shared across the package."""


class LdlError(Exception):
    """Base class for all errors raised by ldlnet."""


class DimensionError(LdlError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigurationError(LdlError):
    """A parameter combination or call is invalid (non-positive output size, bad split
    counts, a second backward through a consumed tape, ...)."""


class RangeError(LdlError):
    """A value lies outside its permitted range (rating off the scale, crop outside the image)."""


class EmptyInputError(LdlError):
    """An operation received an empty collection where at least one element is required."""


class ValidationError(LdlError):
    """Data failed an invariant check (distribution sum drift, malformed index row, ...)."""


class UndefinedCorrelationError(LdlError):
    """Pearson correlation requested for a constant vector."""


class BatchSizeError(LdlError):
    """Batch statistics undefined for the given batch size."""


class NumericalError(LdlError):
    """A non-finite value appeared where finite arithmetic was required."""


class DatasetError(LdlError):
    """A dataset index file or a referenced image could not be read."""


class CheckpointError(LdlError):
    """Base class for checkpoint file problems."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class CheckpointVersionError(CheckpointError):
    """File was written with an unsupported format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ended before all declared records were read."""
