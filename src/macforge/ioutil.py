"""Helpers for the file formats: the binary ones, all integers and floats
little-endian behind a magic and a u32 version, and the text ones, all
UTF-8, with the checks shared by the JSON ones."""

from __future__ import annotations

import io
import json
import os

import numpy as np


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def read_exact(f, n: int, what: str) -> bytes:
    """Exactly n bytes from f, or a FormatError naming what was wanted.

    A count above one buffer comes from a size the file declares, so it
    is checked against the bytes left before f.read allocates it; a
    smaller short read is caught after the read.
    """
    if n > io.DEFAULT_BUFFER_SIZE:
        pos = f.tell()
        left = f.seek(0, os.SEEK_END) - pos
        f.seek(pos)
        if n > left:
            raise FormatError(
                f"truncated file: wanted {n} bytes for {what}, {left} left")
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: wanted {n} bytes for {what}, got {len(data)}")
    return data


def write_header(f, magic: bytes, version: int) -> None:
    f.write(magic)
    write_u32(f, version)


def check_header(f, magic: bytes, version: int, what: str) -> None:
    """Read the magic and u32 version write_header wrote; a FormatError
    unless both are the expected ones."""
    got = read_exact(f, len(magic), f"{what} magic")
    if got != magic:
        raise FormatError(f"bad magic for {what}: expected {magic!r}, got {got!r}")
    got = read_u32(f, f"{what} version")
    if got != version:
        raise FormatError(f"unsupported {what} version {got}")


def read_u8(f, what: str) -> int:
    return read_exact(f, 1, what)[0]


def read_u32(f, what: str) -> int:
    return int.from_bytes(read_exact(f, 4, what), "little")


def read_u64(f, what: str) -> int:
    return int.from_bytes(read_exact(f, 8, what), "little")


def write_u8(f, value: int) -> None:
    f.write(bytes([value]))


def write_u32(f, value: int) -> None:
    f.write(int(value).to_bytes(4, "little"))


def write_u64(f, value: int) -> None:
    f.write(int(value).to_bytes(8, "little"))


def finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, unless it holds a NaN or an infinity: the .macd, .mfck and
    .mfpw readers refuse one, and their writers refuse it the same way,
    as a FormatError naming what, before they open the file. write_ppm
    refuses one too, which quantizing would turn into an arbitrary
    byte."""
    if not np.isfinite(a).all():
        raise FormatError(f"non-finite values in {what}")
    return a


def read_array(f, dtype: str, count: int, what: str) -> np.ndarray:
    """count values of the little-endian dtype ("<f4", "<f8") as a
    writable array in native byte order."""
    dtype = np.dtype(dtype)
    data = read_exact(f, dtype.itemsize * count, what)
    return np.frombuffer(data, dtype, count).astype(dtype.newbyteorder("="))


def write_array(f, arr: np.ndarray, dtype: str) -> None:
    f.write(np.ascontiguousarray(arr, dtype).tobytes())


def write_text(path, text: str) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write(text)


def write_json(path, doc, indent=None) -> None:
    """doc with sorted keys and a final newline: indented by indent, or
    without any whitespace, which json's C encoder writes."""
    separators = None if indent else (",", ":")
    write_text(path, json.dumps(doc, indent=indent, separators=separators,
                                sort_keys=True) + "\n")


def read_text(path, what: str) -> str:
    """The text of the file at path, newlines as "\n"; invalid UTF-8 is a
    FormatError naming what the file holds."""
    with open(os.fspath(path), encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8: {exc}") from exc


def load_json(path, what: str) -> dict:
    """The JSON object at path, as read_text reads it; invalid JSON, or
    a document that is not an object, is a FormatError too."""
    try:
        doc = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    return doc


def expect_eof(f, what: str) -> None:
    if f.read(1):
        raise FormatError(f"trailing bytes after {what} payload")
