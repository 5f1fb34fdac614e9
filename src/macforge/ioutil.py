"""Helpers for the file formats: the binary ones, all integers and floats
little-endian, and the checks shared by the JSON ones."""

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


def check_magic(f, magic: bytes, what: str) -> None:
    got = read_exact(f, len(magic), f"{what} magic")
    if got != magic:
        raise FormatError(f"bad magic for {what}: expected {magic!r}, got {got!r}")


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


def read_f32_array(f, count: int, what: str) -> np.ndarray:
    data = read_exact(f, 4 * count, what)
    return np.frombuffer(data, dtype="<f4", count=count).astype(np.float32)


def read_f64_array(f, count: int, what: str) -> np.ndarray:
    data = read_exact(f, 8 * count, what)
    return np.frombuffer(data, dtype="<f8", count=count).astype(np.float64)


def write_f32_array(f, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def write_f64_array(f, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_text(path, what: str) -> str:
    """The text of the file at path, newlines as "\n"; invalid UTF-8 is a
    FormatError naming what the file holds."""
    with open(os.fspath(path), encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid UTF-8: {exc}") from exc


def load_json(path, what: str):
    """The JSON document at path, as read_text reads it; invalid JSON is
    a FormatError too."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def is_number(v) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def numbers(value, field: str) -> np.ndarray:
    """A JSON list of numbers as float64; float() and np.array would also
    take bools and numeric strings."""
    if not (isinstance(value, list) and all(is_number(v) for v in value)):
        raise ValueError(f"{field} must be a list of numbers")
    return np.array(value, dtype=np.float64)


def expect_eof(f, what: str) -> None:
    if f.read(1):
        raise FormatError(f"trailing bytes after {what} payload")
