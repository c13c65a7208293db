"""Exception types shared across the package."""


class SceneParseError(Exception):
    """Base class for all library errors."""


# taxonomy / manifests
class ParseError(SceneParseError):
    pass


class CycleError(SceneParseError):
    pass


class DanglingParentError(SceneParseError):
    pass


class UnknownLabelError(SceneParseError):
    pass


class CountError(SceneParseError):
    pass


# tensor engine
class ShapeError(SceneParseError):
    pass


class GraphError(SceneParseError):
    pass


class NumericError(SceneParseError):
    """A loss or intermediate value became NaN/Inf."""


# training / checkpoints
class DataError(SceneParseError):
    pass


class ConfigError(SceneParseError):
    pass


class IoError(SceneParseError):
    pass


class FormatVersionError(SceneParseError):
    pass


class ChecksumError(SceneParseError):
    pass


class IncompatibleCheckpointError(SceneParseError):
    pass


# segmentation / parsing
class EmptyImageError(SceneParseError):
    pass


class OutOfBoundsError(SceneParseError):
    pass


class ClassifierError(SceneParseError):
    pass


class ExtentMismatchError(SceneParseError):
    pass


# metrics
class EmptyError(SceneParseError):
    pass


class LengthMismatchError(SceneParseError):
    pass


class LabelRangeError(SceneParseError):
    pass
