"""Miniature fully-convolutional trunk: forward, backward, checkpoint files.

Activations are channels-first float arrays of shape (maps, height, width).
backward() returns the gradients of the scalar <output_grad, output> with
respect to the parameters and the input, or, given lowest_conv, only the
parameter gradients from that conv layer up; running it under float64
inputs is the gradient-check mode, float32 is the production mode.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .ioutil import (
    FormatError,
    check_magic,
    expect_eof,
    read_f32_array,
    read_u8,
    read_u32,
    write_f32_array,
    write_u8,
    write_u32,
)
from .numeric import SeededStream

CONV = "conv"
RELU = "relu"
MAXPOOL = "maxpool"

CHECKPOINT_MAGIC = b"MFCK"
CHECKPOINT_VERSION = 1
_KIND_CODES = {CONV: 0, RELU: 1, MAXPOOL: 2}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


class SpecError(ValueError):
    """Layer list violates a structural invariant."""


class ShapeError(ValueError):
    """Input too small for a layer, or tensor rank/maps mismatch."""


class TapeError(ValueError):
    """Tape does not match the (spec, output_grad) it is replayed against."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the trunk. Unused fields stay at their defaults."""

    kind: str
    in_maps: int = 0
    out_maps: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    window: int = 0


def conv(in_maps: int, out_maps: int, kernel: int, stride: int = 1, pad: int = 0) -> LayerSpec:
    return LayerSpec(CONV, in_maps=in_maps, out_maps=out_maps, kernel=kernel,
                     stride=stride, pad=pad)


def relu() -> LayerSpec:
    return LayerSpec(RELU)


def maxpool(window: int, stride: int) -> LayerSpec:
    return LayerSpec(MAXPOOL, window=window, stride=stride)


def tiny_spec() -> list[LayerSpec]:
    """Default desk-scale trunk; descriptor dimension 32, total stride 8."""
    return [
        conv(3, 8, 5, stride=2, pad=2),
        relu(),
        maxpool(2, 2),
        conv(8, 16, 3, stride=1, pad=1),
        relu(),
        maxpool(2, 2),
        conv(16, 32, 3, stride=1, pad=1),
        relu(),
    ]


def validate_spec(spec: list[LayerSpec]) -> None:
    """Check per-layer invariants and conv in/out chaining."""
    if not spec:
        raise SpecError("empty layer list")
    prev_out = None
    for i, layer in enumerate(spec):
        if layer.kind == CONV:
            if layer.kernel < 1 or layer.stride < 1:
                raise SpecError(f"layer {i}: conv kernel and stride must be >= 1")
            if layer.in_maps < 1 or layer.out_maps < 1:
                raise SpecError(f"layer {i}: conv map counts must be >= 1")
            if layer.pad < 0:
                raise SpecError(f"layer {i}: negative padding")
            if prev_out is not None and layer.in_maps != prev_out:
                raise SpecError(
                    f"layer {i}: expects {layer.in_maps} input maps,"
                    f" previous conv produces {prev_out}"
                )
            prev_out = layer.out_maps
        elif layer.kind == MAXPOOL:
            if layer.window < 1 or layer.stride < 1:
                raise SpecError(f"layer {i}: maxpool window and stride must be >= 1")
        elif layer.kind != RELU:
            raise SpecError(f"layer {i}: unknown kind {layer.kind!r}")


@dataclass
class NetParams:
    """Weights (out, in, k, k) and biases (out,) for each conv layer in order."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "NetParams":
        return NetParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])

    def astype(self, dtype) -> "NetParams":
        return NetParams([w.astype(dtype) for w in self.weights],
                         [b.astype(dtype) for b in self.biases])

    def zeros_like(self) -> "NetParams":
        return NetParams([np.zeros_like(w) for w in self.weights],
                         [np.zeros_like(b) for b in self.biases])


INIT_GAIN = 0.7


def _color_blob_filters(layer: LayerSpec, stream: SeededStream) -> np.ndarray:
    """First-layer filters built as color-opponent Gaussian blobs.

    Each filter is a zero-mean color direction spread over a centered spatial
    bump and rescaled to the norm a Glorot filter would have in expectation.
    Starting from such a bank, the image descriptors separate inputs by color
    content for every seed; an unstructured random first layer occasionally
    maps all inputs to near-identical descriptors, which leaves gradient
    descent on a plateau.
    """
    k = layer.kernel
    fan_in = layer.in_maps * k * k
    fan_out = layer.out_maps * k * k
    target = np.sqrt(6.0 / (fan_in + fan_out)) * np.sqrt(fan_in / 3.0)
    yy, xx = np.mgrid[0:k, 0:k].astype(np.float64)
    c = (k - 1) / 2.0
    bump = np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (2.0 * (k / 4.0) ** 2))
    w = np.empty((layer.out_maps, layer.in_maps, k, k), dtype=np.float64)
    for o in range(layer.out_maps):
        direction = stream.normal(size=layer.in_maps)
        direction -= direction.mean()
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            direction = np.zeros(layer.in_maps)
            direction[o % layer.in_maps] = 1.0
            norm = 1.0
        direction /= norm
        f = direction[:, None, None] * bump[None, :, :]
        w[o] = f * (target / np.linalg.norm(f))
    return w


def init_params(spec: list[LayerSpec], stream: SeededStream) -> NetParams:
    """Seeded parameter init: color blobs up front, Glorot uniform deeper.

    A first conv over 3-channel input gets the structured color-opponent
    filters; every other conv draws Glorot uniform weights with bound
    sqrt(6 / (fan_in + fan_out)). All weights are then damped by INIT_GAIN.
    Relu and max-pool layers are positively homogeneous, so the damping
    leaves the l2-normalized descriptors of the fresh net exactly unchanged;
    it only raises the effective step size early in training. Biases start
    at zero.
    """
    validate_spec(spec)
    weights, biases = [], []
    first_conv = True
    for layer in spec:
        if layer.kind != CONV:
            continue
        if first_conv and layer.in_maps == 3:
            w = _color_blob_filters(layer, stream)
        else:
            fan_in = layer.in_maps * layer.kernel ** 2
            fan_out = layer.out_maps * layer.kernel ** 2
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            shape = (layer.out_maps, layer.in_maps, layer.kernel, layer.kernel)
            w = stream.uniform(-bound, bound, shape)
        first_conv = False
        weights.append((w * INIT_GAIN).astype(np.float32))
        biases.append(np.zeros(layer.out_maps, dtype=np.float32))
    return NetParams(weights, biases)


def output_shapes(spec: list[LayerSpec], in_shape: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Declared (maps, h, w) after each layer; ShapeError names a collapsing layer."""
    maps, h, w = in_shape
    shapes = []
    for i, layer in enumerate(spec):
        if layer.kind == CONV:
            if layer.in_maps != maps:
                raise ShapeError(
                    f"layer {i}: conv expects {layer.in_maps} maps, input has {maps}")
            ph, pw = h + 2 * layer.pad, w + 2 * layer.pad
            if ph < layer.kernel or pw < layer.kernel:
                raise ShapeError(
                    f"layer {i}: conv kernel {layer.kernel} exceeds padded input {ph}x{pw}")
            h = (ph - layer.kernel) // layer.stride + 1
            w = (pw - layer.kernel) // layer.stride + 1
            maps = layer.out_maps
        elif layer.kind == MAXPOOL:
            if h < layer.window or w < layer.window:
                raise ShapeError(
                    f"layer {i}: maxpool window {layer.window} exceeds input {h}x{w}")
            h = (h - layer.window) // layer.stride + 1
            w = (w - layer.window) // layer.stride + 1
        shapes.append((maps, h, w))
    return shapes


def _im2col(x: np.ndarray, kernel: int, stride: int):
    """Unfold (maps, h, w) into (maps*k*k, out_h*out_w) patch columns."""
    maps, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    # as_strided keeps x's own strides, so a sliced or flipped input (a
    # pad-0 first conv reads the caller's array) needs no copy first
    sm, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (maps, kernel, kernel, out_h, out_w),
        (sm, sh, sw, sh * stride, sw * stride), writeable=False)
    cols = win.reshape(maps * kernel * kernel, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def _conv_forward(x, weight, bias, layer):
    p = layer.pad
    if p:
        # the bytes np.pad writes, without its per-call overhead
        maps, h, w = x.shape
        x_pad = np.zeros((maps, h + 2 * p, w + 2 * p), dtype=x.dtype)
        x_pad[:, p:p + h, p:p + w] = x
    else:
        x_pad = x
    cols, (out_h, out_w) = _im2col(x_pad, layer.kernel, layer.stride)
    w_mat = weight.reshape(layer.out_maps, -1)
    y = w_mat @ cols + bias[:, None]
    y = np.ascontiguousarray(y.reshape(layer.out_maps, out_h, out_w))
    cache = (CONV, cols, x.shape, x_pad.shape, y.shape)
    return y, cache


def _conv_backward(g, weight, layer, cache, input_grad):
    """(dx, dw, db) of one conv; dx is None when input_grad is false."""
    _, cols, x_shape, pad_shape, out_shape = cache
    out_maps, out_h, out_w = out_shape
    g_mat = g.reshape(out_maps, out_h * out_w)
    dw = (g_mat @ cols.T).reshape(weight.shape)
    db = g_mat.sum(axis=1)
    if not input_grad:
        return None, dw, db
    w_mat = weight.reshape(out_maps, -1)
    dcols = (w_mat.T @ g_mat).reshape(
        layer.in_maps, layer.kernel, layer.kernel, out_h, out_w)
    dx_pad = np.zeros(pad_shape, dtype=g.dtype)
    s = layer.stride
    # For a fixed (di, dj) kernel offset the strided targets are pairwise
    # distinct, so each slice += is overlap-free; offsets accumulate.
    for di in range(layer.kernel):
        for dj in range(layer.kernel):
            dx_pad[:, di:di + s * out_h:s, dj:dj + s * out_w:s] += dcols[:, di, dj]
    p = layer.pad
    if p:
        dx = np.ascontiguousarray(dx_pad[:, p:p + x_shape[1], p:p + x_shape[2]])
    else:
        dx = dx_pad
    return dx, dw, db


def _maxpool_forward(x, layer):
    w, s = layer.window, layer.stride
    maps, h, wd = x.shape
    out_h = (h - w) // s + 1
    out_w = (wd - w) // s + 1
    # Each window offset (di, dj), in row-major order, copied once into a
    # contiguous plane: the comparisons below then run on contiguous
    # memory instead of stride-s views.
    phases = np.empty((w * w, maps, out_h, out_w), dtype=x.dtype)
    for di in range(w):
        for dj in range(w):
            phases[di * w + dj] = x[:, di:di + s * out_h:s, dj:dj + s * out_w:s]
    # A running maximum over the planes follows np.argmax's rule: the
    # first maximum wins, i.e. the lowest input linear index inside the
    # window, and the first NaN wins its window. A later offset replaces
    # the current one only if it is strictly greater, or if it is NaN
    # while the current value is not; `cand > y` alone would keep a
    # number over a NaN at a later offset.
    has_nan = np.isnan(phases).any()
    y = phases[0]
    idxs = np.zeros((maps, out_h, out_w), dtype=np.intp)
    for k in range(1, w * w):
        cand = phases[k]
        upd = cand > y
        if has_nan:
            upd |= np.isnan(cand) & ~np.isnan(y)
        y = np.where(upd, cand, y)
        idxs = np.where(upd, k, idxs)
    cache = (MAXPOOL, idxs, x.shape, y.shape)
    return y, cache


def _maxpool_backward(g, layer, cache):
    _, idxs, x_shape, out_shape = cache
    w, s = layer.window, layer.stride
    _, out_h, out_w = out_shape
    dx = np.zeros(x_shape, dtype=g.dtype)
    for di in range(w):
        for dj in range(w):
            sel = idxs == (di * w + dj)
            if not sel.any():
                continue
            dx[:, di:di + s * out_h:s, dj:dj + s * out_w:s] += np.where(sel, g, 0.0)
    return dx


def forward(params: NetParams, spec: list[LayerSpec], image: np.ndarray):
    """Run the trunk on one image; returns (output, tape) for backward."""
    validate_spec(spec)
    x = np.asarray(image)
    if x.ndim != 3:
        raise ShapeError(f"input must be (maps, h, w), got shape {x.shape}")
    output_shapes(spec, x.shape)  # raises naming the offending layer
    tape = []
    conv_i = 0
    for layer in spec:
        if layer.kind == CONV:
            x, cache = _conv_forward(x, params.weights[conv_i], params.biases[conv_i], layer)
            conv_i += 1
        elif layer.kind == RELU:
            mask = x > 0
            x = np.maximum(x, 0)
            cache = (RELU, mask)
        else:
            x, cache = _maxpool_forward(x, layer)
        tape.append(cache)
    return x, tape


def _cache_out_shape(cache):
    if cache[0] == RELU:
        return cache[1].shape
    return cache[-1]


def _cache_in_shape(cache):
    if cache[0] == RELU:
        return cache[1].shape
    return cache[2]


def backward(params: NetParams, spec: list[LayerSpec], tape, output_grad: np.ndarray,
             *, lowest_conv: int | None = None):
    """Gradients of <output_grad, output> w.r.t. params and input.

    lowest_conv=k (counting conv layers from 0) names the lowest conv
    whose gradients the caller reads. The walk stops once conv k has its
    weight and bias gradients: conv k's input gradient and the layers
    below it are not computed, and the gradient entries of the convs
    below k are None. The second result is then not a gradient but a
    read-only zero array of the input's shape that allocates nothing; it
    stands in for the input gradient only because the benchmark's span
    wrapper reads its shape, and becomes None once the benchmark reads
    the program's own spans (ROADMAP item 3). None walks every layer.
    """
    if len(tape) != len(spec):
        raise TapeError(f"tape has {len(tape)} entries for {len(spec)} layers")
    if lowest_conv is not None and not 0 <= lowest_conv < len(params.weights):
        raise ValueError(f"lowest_conv {lowest_conv} outside the"
                         f" {len(params.weights)} conv layers")
    g = np.asarray(output_grad)
    expected = _cache_out_shape(tape[-1])
    if g.shape != expected:
        raise TapeError(f"output_grad shape {g.shape} != forward output {expected}")
    weight_grads = [None] * len(params.weights)
    bias_grads = [None] * len(params.biases)
    conv_i = len(params.weights)
    for i in range(len(spec) - 1, -1, -1):
        layer, cache = spec[i], tape[i]
        if cache[0] != layer.kind:
            raise TapeError(f"layer {i}: tape says {cache[0]!r}, spec says {layer.kind!r}")
        if layer.kind == CONV:
            conv_i -= 1
            dtype = g.dtype
            g, dw, db = _conv_backward(g, params.weights[conv_i], layer, cache,
                                       input_grad=conv_i != lowest_conv)
            weight_grads[conv_i] = dw
            bias_grads[conv_i] = db
            if g is None:
                placeholder = np.broadcast_to(np.zeros((), dtype),
                                              _cache_in_shape(tape[0]))
                return NetParams(weight_grads, bias_grads), placeholder
        elif layer.kind == RELU:
            g = g * cache[1]
        else:
            g = _maxpool_backward(g, layer, cache)
    return NetParams(weight_grads, bias_grads), g


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def save_checkpoint(path, spec: list[LayerSpec], params: NetParams, meta: dict | None = None) -> None:
    """Write weights plus a sidecar JSON (path + ".json") holding meta."""
    validate_spec(spec)
    path = os.fspath(path)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        write_u32(f, CHECKPOINT_VERSION)
        write_u32(f, len(spec))
        for layer in spec:
            write_u8(f, _KIND_CODES[layer.kind])
            if layer.kind == CONV:
                for v in (layer.in_maps, layer.out_maps, layer.kernel,
                          layer.stride, layer.pad):
                    write_u32(f, v)
            elif layer.kind == MAXPOOL:
                write_u32(f, layer.window)
                write_u32(f, layer.stride)
        for w, b in zip(params.weights, params.biases):
            write_f32_array(f, w)
            write_f32_array(f, b)
    with open(path + ".json", "w") as f:
        json.dump(dict(meta or {}), f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (spec, params, meta)."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        check_magic(f, CHECKPOINT_MAGIC, "checkpoint")
        version = read_u32(f, "checkpoint version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        n_layers = read_u32(f, "layer count")
        spec = []
        for i in range(n_layers):
            code = read_u8(f, f"layer {i} kind")
            kind = _CODE_KINDS.get(code)
            if kind is None:
                raise FormatError(f"layer {i}: unknown kind code {code}")
            if kind == CONV:
                fields = [read_u32(f, f"layer {i} conv field") for _ in range(5)]
                spec.append(conv(*fields))
            elif kind == MAXPOOL:
                window = read_u32(f, f"layer {i} window")
                stride = read_u32(f, f"layer {i} stride")
                spec.append(maxpool(window, stride))
            else:
                spec.append(relu())
        try:
            validate_spec(spec)
        except SpecError as exc:
            raise FormatError(f"checkpoint layer list invalid: {exc}") from exc
        weights, biases = [], []
        for i, layer in enumerate(spec):
            if layer.kind != CONV:
                continue
            count = layer.out_maps * layer.in_maps * layer.kernel ** 2
            w = read_f32_array(f, count, f"layer {i} weights")
            weights.append(w.reshape(layer.out_maps, layer.in_maps,
                                     layer.kernel, layer.kernel))
            biases.append(read_f32_array(f, layer.out_maps, f"layer {i} biases"))
        expect_eof(f, "checkpoint")
    for arr in weights + biases:
        if not np.all(np.isfinite(arr)):
            raise FormatError("checkpoint contains non-finite parameters")
    meta = {}
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        with open(sidecar) as f:
            try:
                meta = json.load(f)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise FormatError(
                    f"checkpoint sidecar {sidecar} is not valid JSON: {exc}"
                ) from exc
    return spec, NetParams(weights, biases), meta
