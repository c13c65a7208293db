"""Exception types shared across the package."""


class SceneParseError(Exception):
    """Base class for all library errors.  ``exit_code`` is the command
    line's exit status for the error: 2 configuration, 3 data or input,
    4 numeric failure, 5 checkpoint or class-table mismatch, 1 anything
    else."""

    exit_code = 1


# manifests
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
