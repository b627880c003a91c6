"""Exception types shared across the package, and the rules that check a
setting and raise them."""

import math
import numbers


class OkcError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(OkcError):
    """Inputs disagree on feature dimension or shape."""


class InvalidInputError(OkcError):
    """Input contains NaN/Inf or an otherwise unusable value."""


class DegenerateDataError(OkcError):
    """Data has no usable geometry (e.g. all samples identical)."""


class IllConditionedError(OkcError):
    """A matrix required for an update is numerically singular."""


class WindowUnderflowError(OkcError):
    """Requested to forget at least as many samples as the window holds."""


class InsufficientDataError(OkcError):
    """Too few samples for the requested operation or protocol."""


class InsufficientMemoryError(OkcError):
    """An array the operation needs could not be allocated."""


class UndefinedMetricError(OkcError):
    """A metric is undefined for the given inputs (e.g. a class is absent)."""


class SpecError(OkcError):
    """A stream-generator specification is invalid."""


class FormatError(OkcError):
    """A data file could not be parsed."""


class SchemaError(OkcError):
    """A dataset schema does not match the file it describes."""


class EmptyTargetError(OkcError):
    """Relabeling produced no target-class samples."""


# The rules every setting is checked by. Each returns the value it accepts and
# raises ``error`` naming the setting otherwise. A bool is not a number, and
# NumPy integer and float scalars are numbers.


def check_int(value, name: str, minimum: float = -math.inf, *, error: type[OkcError] = InvalidInputError) -> int:
    """``value`` as an int, if it is a whole number >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf, *, low_open: bool = True,
               high_open: bool = True, error: type[OkcError] = InvalidInputError) -> float:
    """``value`` as a float, if it is a real number between ``low`` and
    ``high``, each bound excluded unless said closed. The default bounds are
    infinite and open, so the value is finite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    # written so that NaN fails both tests
    if not ((low < value if low_open else low <= value) and (value < high if high_open else value <= high)):
        interval = f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
        raise error(f"{name} must lie in {interval}, got {value!r}")
    return float(value)


def check_choice(value, name: str, choices: tuple, *, error: type[OkcError] = InvalidInputError):
    """``value``, if it equals one of ``choices``. Compared by ``==``, so an
    unhashable value is refused too; an array, whose ``==`` is elementwise, is
    never a choice."""
    if not any((choice == value) is True for choice in choices):
        raise error(f"{name} must be one of {choices}, got {value!r}")
    return value
