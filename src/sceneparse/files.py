"""The one place the package opens files: a file-system failure is an
IoError that names the path, every tab-separated text file (manifests,
eval TSVs, the region-map sidecar) is read by one line rule, and a writer
of many files checks the free space first."""

import shutil

from .errors import IoError, ParseError

__all__ = ["read_file", "write_file", "read_records", "check_space"]


def read_file(path) -> bytes:
    """The file's bytes; IoError if it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise IoError(f"cannot read {path}: {e}") from e


def write_file(path, *parts) -> None:
    """Write each part in turn, a bytes object or a C-contiguous array,
    without joining them, so a raster is never held twice; IoError if the
    file cannot be written."""
    try:
        with open(path, "wb") as f:
            for part in parts:
                f.write(part)
    except (OSError, ValueError) as e:
        raise IoError(f"cannot write {path}: {e}") from e


def check_space(directory, need: int, what: str) -> None:
    """IoError if ``what`` needs more than the free bytes of the file system
    that holds ``directory``."""
    try:
        free = shutil.disk_usage(directory).free
    except (OSError, ValueError) as e:
        raise IoError(f"cannot read the free space of {directory}: {e}") from e
    if need > free:
        raise IoError(f"{what}: {need} bytes needed, {free} free in {directory}")


def read_records(path, layout: str, record) -> list:
    """record(fields) for each line of a UTF-8 file of tab-separated fields,
    skipping blank or whitespace-only lines and # comments, which may be
    indented.  ParseError naming path:line if a line is not UTF-8 or record
    raises ValueError (a wrong field count, a number that does not parse)."""
    out = []
    for ln, raw in enumerate(read_file(path).splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip() and not line.lstrip().startswith("#"):
                out.append(record(line.split("\t")))
        except ValueError as e:
            raise ParseError(f"{path}:{ln}: expected {layout!r}: {e}") from e
    return out
