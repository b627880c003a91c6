"""Exception types shared across the package."""


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
