"""Helpers for the binary file formats. All integers and floats little-endian."""

from __future__ import annotations

import io
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


def expect_eof(f, what: str) -> None:
    if f.read(1):
        raise FormatError(f"trailing bytes after {what} payload")
