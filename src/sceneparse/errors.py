"""Exception types shared across the package, the one type rule for config
fields, and a memory check run before a size read from input is allocated."""

import dataclasses
import numbers
import os
import sys
import types
import typing


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


def _fit(value, kind, where: str):
    """value as the annotated type ``kind`` if it fits: int (a numpy integer as
    an int), float (an int too, kept as given), bool, str, dict, ``X | None``,
    or a tuple from a list or a tuple.  A tuple of one repeated type takes any
    length, which the dataclass checks; the (epoch, divisor) pair takes two."""
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):
        return None if value is None else _fit(value, args[0], where)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config field {where!r} must be a list, got {value!r}")
        if len(set(args) - {...}) == 1:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"config field {where!r} must be a list of {len(args)}, got {value!r}")
        return tuple(_fit(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if kind is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        name = "an object" if kind is dict else kind.__name__
        raise ConfigError(f"config field {where!r} must be {name}, got {value!r}")
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"config field {where!r} is beyond the float range, got {value!r}")
    return value


def check_fields(obj) -> None:
    """Set each field of the dataclass ``obj`` to its value as the field's
    type; ConfigError naming the first field whose value does not fit."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        object.__setattr__(obj, f.name, _fit(getattr(obj, f.name), hints[f.name], f.name))
