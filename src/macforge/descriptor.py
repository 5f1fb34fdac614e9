"""MAC and R-MAC descriptors, activation cropping, similarity diagnostics.

Descriptors are plain 1-D float arrays. Raw vectors come straight from
mac() and are componentwise non-negative; l2n() turns them into unit
vectors, with the all-zero vector passing through unchanged so degenerate
images simply score 0 against everything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backbone import CONV, MAXPOOL, LayerSpec
from . import ioutil
from .ioutil import FormatError
from .numeric import DimensionError

DB_MAGIC = b"MACD"
DB_VERSION = 1


class GridError(ValueError):
    """A region grid does not fit the activation extent."""


class BBox(NamedTuple):
    """Half-open pixel rectangle [x0, x1) x [y0, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float


@dataclass(frozen=True)
class RegionGrid:
    """Square regions (x, y, side) in activation coordinates, scale-major."""

    scales: int
    regions: list


def mac(x: np.ndarray) -> np.ndarray:
    """Per-map spatial maximum of the positive part: f_k = max(0, max x_k)."""
    x = np.asarray(x)
    return np.maximum(x.max(axis=(1, 2)), 0)


def mac_backward(x: np.ndarray, grad_f: np.ndarray) -> np.ndarray:
    """Route each map's upstream gradient to its argmax cell.

    The gradient is zero for maps whose MAC value is zero (the positive-part
    clamp is active there). Ties go to the lowest linear index.
    """
    x = np.asarray(x)
    k = x.shape[0]
    flat = x.reshape(k, -1)
    idx = np.argmax(flat, axis=1)
    dx = np.zeros_like(flat)
    active = flat[np.arange(k), idx] > 0
    dx[np.arange(k)[active], idx[active]] = grad_f[active]
    return dx.reshape(x.shape)


def l2n(f: np.ndarray) -> np.ndarray:
    """Unit-normalize; inputs with norm below 1e-12 map to the zero vector."""
    f = np.asarray(f)
    norm = np.sqrt(np.sum(f.astype(np.float64) ** 2))
    if norm < 1e-12:
        return np.zeros_like(f)
    return (f / norm).astype(f.dtype)


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two normalized descriptors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"descriptor dims differ: {a.shape} vs {b.shape}")
    return float(a @ b)


def _axis_starts(dim: int, side: int) -> list[int]:
    """Evenly spaced region starts covering [0, dim] with >= 40% overlap."""
    span = dim - side
    if span <= 0:
        return [0]
    # ceil(span / (0.6 * side)) + 1 regions, in exact integer arithmetic
    count = -(-10 * span // (6 * side)) + 1
    return [int(span * i / (count - 1) + 0.5) for i in range(count)]


def rmac_regions(w: int, h: int, scales: int = 3) -> RegionGrid:
    """Multi-scale square region grid over a w x h activation map.

    Scale l uses side max(1, floor(2 * min(w, h) / (l + 1))); per axis the
    first region starts at 0 and the last ends at the map edge.
    """
    regions = []
    for level in range(1, scales + 1):
        side = max(1, (2 * min(w, h)) // (level + 1))
        xs = _axis_starts(w, side)
        ys = _axis_starts(h, side)
        for y in ys:
            for x in xs:
                regions.append((x, y, side))
    return RegionGrid(scales, regions)


def rmac(x: np.ndarray, grid: RegionGrid, region_transform=None) -> np.ndarray:
    """Aggregate per-region normalized MAC vectors and renormalize.

    With region_transform set (a function of one vector, e.g. a partial
    of whitening.apply_projection), each region vector is projected and
    renormalized before aggregation; the transform-free output is the
    plain form meant for post-aggregation whitening.

    The region MACs are stacked into one (regions, maps) float64 array:
    each region's maximum is taken over the contiguous rows of one
    channels-last copy of x, and all regions are clamped at 0 at once. A
    maximum does not round and keeps the sign of a zero as mac() does,
    but which NaN payload wins depends on the reduction order, so an
    input with a NaN in any region takes the per-region mac() loop. The
    rows are normalized with l2n's norm and zero cut-off and added one by
    one in region order, so the result has the bits of a per-region
    l2n-and-add loop: rows.sum(axis=0) adds a single column pairwise, and
    an in-place add meets two NaNs in another operand order, which
    decides the payload that survives.
    """
    x = np.asarray(x)
    k, height, width = x.shape
    for rx, ry, side in grid.regions:
        if rx < 0 or ry < 0 or rx + side > width or ry + side > height:
            raise GridError(
                f"region {(rx, ry, side)} outside {width}x{height} activations")
    if not grid.regions:
        raise GridError("empty region grid")
    macs = np.empty((len(grid.regions), k), dtype=np.float64)
    xt = np.ascontiguousarray(x.transpose(1, 2, 0))
    for r, (rx, ry, side) in enumerate(grid.regions):
        macs[r] = xt[ry:ry + side, rx:rx + side].max(axis=(0, 1))
    if np.isnan(macs).any():
        for r, (rx, ry, side) in enumerate(grid.regions):
            macs[r] = mac(x[:, ry:ry + side, rx:rx + side])
    else:
        np.maximum(macs, 0, out=macs)
    norms = np.sqrt(np.sum(macs ** 2, axis=1))
    degenerate = norms < 1e-12
    rows = macs / np.where(degenerate, 1.0, norms)[:, None]
    rows[degenerate] = 0.0
    if region_transform is not None:
        # one transform call per region: a stacked matrix product need
        # not round like the vector products the transform makes
        rows = np.stack([l2n(region_transform(v)) for v in rows])
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return l2n(total).astype(x.dtype)


def receptive_geometry(spec: list[LayerSpec]) -> tuple[int, int, float]:
    """Total (stride, receptive field, center offset) of a trunk.

    The offset is the input-pixel x (and y) coordinate of output cell 0's
    receptive-field center; cell u sits at offset + u * stride.
    """
    rf, jump, offset = 1, 1, 0.0
    for layer in spec:
        if layer.kind == CONV:
            k, s, p = layer.kernel, layer.stride, layer.pad
        elif layer.kind == MAXPOOL:
            k, s, p = layer.window, layer.stride, 0
        else:
            continue
        rf += (k - 1) * jump
        offset += ((k - 1) / 2.0 - p) * jump
        jump *= s
    return jump, rf, offset


def crop_activations(x: np.ndarray, bbox, geometry) -> np.ndarray:
    """Keep activation cells whose receptive-field centers fall in bbox.

    Returns the minimal enclosing rectangle of qualifying cells; when no
    center lands inside along an axis, falls back to the cell nearest the
    bbox midpoint (ties to the lower index).
    """
    x = np.asarray(x)
    stride, _, offset = geometry
    box = BBox(*bbox)

    def axis_range(n_cells, lo, hi):
        centers = offset + stride * np.arange(n_cells)
        inside = np.nonzero((centers >= lo) & (centers < hi))[0]
        if inside.size:
            return int(inside[0]), int(inside[-1])
        mid = (lo + hi) / 2.0
        best = int(np.argmin(np.abs(centers - mid)))
        return best, best

    u0, u1 = axis_range(x.shape[2], box.x0, box.x1)
    v0, v1 = axis_range(x.shape[1], box.y0, box.y1)
    return x[:, v0:v1 + 1, u0:u1 + 1]


def top_contributions(a: np.ndarray, b: np.ndarray, n: int) -> list[tuple[int, float]]:
    """Top-n per-map similarity contributions a_k * b_k, descending.

    Ties break toward the lower map index; the full list sums to
    similarity(a, b).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"descriptor dims differ: {a.shape} vs {b.shape}")
    products = a * b
    order = np.lexsort((np.arange(products.size), -products))
    return [(int(k), float(products[k])) for k in order[:n]]


# ---------------------------------------------------------------------------
# Descriptor database files
# ---------------------------------------------------------------------------


def save_descriptors(path, descriptors: dict[str, np.ndarray]) -> None:
    """Write an id -> vector map; records are sorted by id for stable bytes.

    What load_descriptors refuses is refused before the file is opened:
    zero-length vectors are a DimensionError, vectors that are not
    finite in float32 a FormatError."""
    items = [(name, ioutil.finite(np.asarray(vec, "<f4"),
                                  f"descriptor {name!r}"))
             for name, vec in sorted(descriptors.items())]
    dim = int(items[0][1].shape[0]) if items else 0
    for name, v in items:
        if v.ndim != 1 or v.shape[0] != dim:
            raise DimensionError(
                f"descriptor {name!r} has shape {v.shape}, expected ({dim},)")
    if items and not dim:
        raise DimensionError(f"descriptor {items[0][0]!r} has length 0")
    with open(os.fspath(path), "wb") as f:
        ioutil.write_header(f, DB_MAGIC, DB_VERSION)
        ioutil.write_u64(f, len(items))
        ioutil.write_u32(f, dim)
        for name, vec in items:
            raw = name.encode("utf-8")
            ioutil.write_u32(f, len(raw))
            f.write(raw)
            ioutil.write_array(f, vec, "<f4")


def load_descriptors(path) -> dict[str, np.ndarray]:
    """Read a descriptor database in file order (sortedness not assumed)."""
    out = {}
    with open(os.fspath(path), "rb") as f:
        ioutil.check_header(f, DB_MAGIC, DB_VERSION, "descriptor db")
        count = ioutil.read_u64(f, "record count")
        dim = ioutil.read_u32(f, "descriptor dim")
        if count and not dim:
            raise FormatError(f"descriptor db declares dim 0 for {count} "
                              "records")
        for i in range(count):
            id_len = ioutil.read_u32(f, f"record {i} id length")
            raw = ioutil.read_exact(f, id_len, f"record {i} id")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"record {i} id is not valid UTF-8") from exc
            if name in out:
                raise FormatError(f"duplicate descriptor id {name!r}")
            vec = ioutil.read_array(f, "<f4", dim, f"record {i} values")
            out[name] = ioutil.finite(vec, f"descriptor {name!r}")
        ioutil.expect_eof(f, "descriptor db")
    return out
