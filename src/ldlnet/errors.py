"""Exception types shared across the package, the integer and real checks
every entry point uses, and the reader of 4-integer lists."""

import math
import numbers


class LdlError(Exception):
    """Base class for all errors raised by ldlnet."""


class DimensionError(LdlError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigurationError(LdlError):
    """A parameter combination or call is invalid (non-positive output size, bad split
    counts, a second backward through a consumed tape, ...)."""


def _shown(value):
    """``repr(value)`` for an error message, cut to about 60 characters.
    An int too long for Python to print is named by its size instead, and
    any other value that cannot be printed (a list holding such an int) by
    its type."""
    try:
        text = repr(value)
    except ValueError:   # an int beyond the interpreter's digit limit, bare or inside
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
        return f"<unprintable {type(value).__name__}>"
    return text if len(text) <= 60 else text[:45] + "..." + text[-12:]


def _integer(op, name, value, least=None):
    """``value`` as an int no smaller than ``least`` (when given);
    ConfigurationError for anything else, a bool or a whole-valued float
    included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{op} {name} must be an integer, got {_shown(value)}")
    if least is not None and value < least:
        raise ConfigurationError(f"{op} {name} must be >= {least}, got {_shown(int(value))}")
    return int(value)


def _real(op, name, value, low, high=math.inf, closed=False):
    """``value`` as a float between ``low`` and ``high``, open unless ``closed``;
    ConfigurationError for anything else, NaN, infinities, bools and strings included."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:   # an integer beyond the float range
            pass
    if not math.isfinite(number) or not (low <= number <= high if closed else low < number < high):
        where = (f"{'>=' if closed else '>'} {low}" if high == math.inf else
                 f"in {'[' if closed else '('}{low}, {high}{']' if closed else ')'}")
        raise ConfigurationError(f"{op} {name} must be a finite number {where}, got {_shown(value)}")
    return number


def four_ints(text):
    """``text`` as 4 ints separated by ',' or ';', each read as ``int()`` reads
    it; the type of the list flags (argparse names it) and of an index crop."""
    try:
        a, b, c, d = map(int, text.replace(";", ",").split(","))
    except ValueError:
        raise ValueError(f"needs 4 integers separated by ',' or ';', got {_shown(text)}") from None
    return a, b, c, d


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
