"""Binary netpbm raster I/O.

Two formats are supported, both in their binary variants:

* P6 -- RGB rasters, maxval 255, 3 bytes per pixel.
* P5 -- grayscale rasters; maxval <= 255 stores 1 byte per pixel,
  maxval 256..65535 stores 2 bytes per pixel, most significant byte first.

Writers always emit the canonical header ``P{5,6}\\n<w> <h>\\n<maxval>\\n``
followed by raw samples in row-major order, so write->read->write is
byte-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import IoError, ParseError
from .files import read_file, write_file

__all__ = ["read_ppm", "write_ppm", "read_pgm", "write_pgm"]


def _read_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments that netpbm headers allow
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and buf[pos : pos + 1] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise ParseError("truncated netpbm header")
    return buf[start:pos], pos


def _parse_header(buf: bytes, magic: bytes) -> tuple[int, int, int, int]:
    if buf[:2] != magic:
        raise ParseError(f"expected {magic.decode()} magic, got {buf[:2]!r}")
    pos = 2
    w_tok, pos = _read_header_token(buf, pos)
    h_tok, pos = _read_header_token(buf, pos)
    m_tok, pos = _read_header_token(buf, pos)
    for tok in (w_tok, h_tok, m_tok):
        # int() would also read signs, underscores and surrounding whitespace
        if not tok.isdigit():
            raise ParseError(f"malformed netpbm header field {tok!r}")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(m_tok)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"malformed netpbm header field: {exc}") from exc
    if width < 1 or height < 1:
        raise ParseError(f"bad raster dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise ParseError(f"maxval {maxval} out of range")
    # exactly one whitespace byte separates header and payload
    if pos >= len(buf):
        raise ParseError("netpbm header ends without the byte before the payload")
    return width, height, maxval, pos + 1


def _payload(buf: bytes, pos: int, dtype: str, count: int, what: str) -> np.ndarray:
    """The first ``count`` samples after the header; trailing bytes are ignored."""
    size = np.dtype(dtype).itemsize
    if len(buf) - pos < count * size:
        raise ParseError(f"{what} payload too short: {len(buf) - pos} bytes < {count * size}")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=pos)


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file into a uint8 array of shape (H, W, 3)."""
    buf = read_file(path)
    width, height, maxval, pos = _parse_header(buf, b"P6")
    if maxval > 255:
        raise ParseError("16-bit P6 not supported")
    return _payload(buf, pos, "u1", width * height * 3, "P6").reshape(height, width, 3).copy()


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary P6."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise IoError(f"P6 writer expects (H, W, 3), got {img.shape}")
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    write_file(path, header, np.ascontiguousarray(img, dtype=np.uint8))


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 file.

    Returns uint8 (H, W) when maxval <= 255, else uint16 (H, W).
    """
    buf = read_file(path)
    width, height, maxval, pos = _parse_header(buf, b"P5")
    if maxval <= 255:
        return _payload(buf, pos, "u1", width * height, "P5").reshape(height, width).copy()
    return _payload(buf, pos, ">u2", width * height, "P5").reshape(height, width).astype(np.uint16)


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Write an (H, W) integer array as binary P5 with the given maxval."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise IoError(f"P5 writer expects (H, W), got {img.shape}")
    if not 0 < maxval < 65536:
        raise IoError(f"maxval {maxval} out of range")
    if img.size and (img.min() < 0 or img.max() > maxval):
        raise IoError(f"pixel values outside [0, {maxval}]")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
    write_file(path, header, np.ascontiguousarray(img, dtype=np.uint8 if maxval <= 255 else ">u2"))
