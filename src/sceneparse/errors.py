"""Exception types shared across the package, and the memory check that
raises one before a size read from input reaches an allocation."""

import os


class SceneParseError(Exception):
    """Base class for all library errors.  ``exit_code`` is the command
    line's exit status for the error: 2 configuration, 3 data or input,
    4 numeric failure, 5 checkpoint or class-table mismatch, 1 anything
    else."""

    exit_code = 1


# manifests, TSVs, rasters and sidecars that do not parse
class ParseError(SceneParseError):
    exit_code = 3


# tensor engine
class ShapeError(SceneParseError):
    pass


class GraphError(SceneParseError):
    pass


class NumericError(SceneParseError):
    """A loss or intermediate value became NaN/Inf."""

    exit_code = 4


# training / checkpoints
class DataError(SceneParseError):
    exit_code = 3


class ConfigError(SceneParseError):
    exit_code = 2


class IoError(SceneParseError):
    exit_code = 3


class FormatVersionError(SceneParseError):
    exit_code = 5


class ChecksumError(SceneParseError):
    exit_code = 5


class IncompatibleCheckpointError(SceneParseError):
    exit_code = 5


# segmentation / parsing
class EmptyImageError(SceneParseError):
    exit_code = 3


class ClassifierError(SceneParseError):
    pass


class ExtentMismatchError(SceneParseError):
    exit_code = 3


# metrics
class EmptyError(SceneParseError):
    exit_code = 3


class LengthMismatchError(SceneParseError):
    exit_code = 3


class LabelRangeError(SceneParseError):
    exit_code = 3


def _physical_memory() -> int | None:
    """This machine's memory in bytes, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_memory(need: int, what: str) -> None:
    """ConfigError if ``what`` needs more than this machine's memory.  need
    is in bytes, computed in Python ints so that a huge size fails here
    rather than in a many-GB allocation."""
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ConfigError(f"{what}: {need / 2**30:.3g} GiB needed, more than this machine's {memory / 2**30:.3g} GiB")
