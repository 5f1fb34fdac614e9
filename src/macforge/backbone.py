"""Miniature fully-convolutional trunk: forward, backward, checkpoint files.

Activations are channels-first float arrays of shape (maps, height, width).
forward() keeps references to the activations it computes as a tape for
backward(), which routes ReLU and max-pool gradients from them.
forward(..., tape=False) keeps none and returns the same output bytes;
the forwards that nothing back-propagates (re-mining, validation, the
initial embedding of training, descriptor extraction) skip the tape that
way. backward() returns the gradients of the scalar <output_grad, output>
with respect to the parameters and the input, or, given lowest_conv, only
the parameter gradients from that conv layer up; running it under float64
inputs is the gradient-check mode, float32 is the production mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import ioutil
from .ioutil import FormatError
from .numeric import SeededStream

CONV = "conv"
RELU = "relu"
MAXPOOL = "maxpool"

CHECKPOINT_MAGIC = b"MFCK"
CHECKPOINT_VERSION = 1
# the MFCK layer record: a u8 kind code, then these LayerSpec fields as u32
_LAYER_RECORDS = {CONV: (0, ("in_maps", "out_maps", "kernel", "stride", "pad")),
                  RELU: (1, ()),
                  MAXPOOL: (2, ("window", "stride"))}
_CODE_KINDS = {code: kind for kind, (code, _) in _LAYER_RECORDS.items()}


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
    # x is C-contiguous (_conv_forward sees to it), so the ndarray
    # constructor can view its buffer at a fraction of as_strided's cost
    sm, sh, sw = x.strides
    win = np.ndarray((maps, kernel, kernel, out_h, out_w), x.dtype, x, 0,
                     (sm, sh, sw, sh * stride, sw * stride))
    cols = win.reshape(maps * kernel * kernel, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def _conv_forward(x, weight, bias, layer):
    """(y, (cols, padded input shape)) of one conv. It allocates the
    padded input (pad > 0, or a non-contiguous pad-0 input's copy), the
    patch columns and the output, to which the bias is added in place."""
    p = layer.pad
    if p:
        # the bytes np.pad writes, without its per-call overhead
        maps, h, w = x.shape
        x_pad = np.zeros((maps, h + 2 * p, w + 2 * p), dtype=x.dtype)
        x_pad[:, p:p + h, p:p + w] = x
    else:
        # a pad-0 first conv reads the caller's array, maybe sliced or
        # flipped; a contiguous one is used as it is
        x_pad = np.ascontiguousarray(x)
    cols, (out_h, out_w) = _im2col(x_pad, layer.kernel, layer.stride)
    w_mat = weight.reshape(layer.out_maps, -1)
    y = w_mat @ cols
    y += bias[:, None]
    return y.reshape(layer.out_maps, out_h, out_w), (cols, x_pad.shape)


def _conv_backward(g, weight, layer, cache, input_grad):
    """(dx, dw, db) of one conv; dx is None when input_grad is false."""
    _, x_shape, out_shape, cols, pad_shape = cache
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


def _window_views(x, layer, out_shape):
    """The strided view of x under each window offset (di, dj), in
    row-major offset order."""
    w, s = layer.window, layer.stride
    _, out_h, out_w = out_shape
    return [x[:, di:di + s * out_h:s, dj:dj + s * out_w:s]
            for di in range(w) for dj in range(w)]


def _maxpool_forward(x, layer, out_shape):
    """Max-pool by np.argmax's rule: inside a window, scanned in row-major
    offset order, the first maximum wins, and the first NaN wins over
    every number.

    A running maximum of the window offsets on strided views: on a tie
    np.maximum(later, earlier) returns its second operand, so the earlier
    offset wins, -0.0 against 0.0 included (test_backbone pins this).
    np.maximum does not order NaN payloads that way, so the windows whose
    output is NaN then take their first NaN by a pass over the offsets in
    reverse order.
    """
    views = _window_views(x, layer, out_shape)
    y = views[0].copy()
    for view in views[1:]:
        np.maximum(view, y, out=y)
    nan = np.isnan(y)
    if nan.any():
        for view in reversed(views):
            np.copyto(y, view, where=nan & np.isnan(view))
    return y


def _maxpool_backward(g, layer, cache):
    """Route each output's gradient to the window offset the forward took:
    the first, in row-major order, whose input equals the output, or the
    first NaN where the output is NaN."""
    _, x_shape, out_shape, x, y = cache
    nan = np.isnan(y)
    if not nan.any():
        nan = None
    unrouted = np.ones(out_shape, dtype=bool)
    dx = np.zeros(x_shape, dtype=g.dtype)
    for view, dx_view in zip(_window_views(x, layer, out_shape),
                             _window_views(dx, layer, out_shape)):
        sel = view == y
        if nan is not None:
            sel |= nan & np.isnan(view)
        sel &= unrouted
        if sel.any():
            unrouted ^= sel
            dx_view += np.where(sel, g, 0.0)
    return dx


def forward(params: NetParams, spec: list[LayerSpec], image: np.ndarray,
            *, tape: bool = True):
    """Run the trunk on one image; returns (output, tape) for backward.

    The tape holds, per layer, (kind, input shape, output shape, arrays):
    a conv's patch columns and padded input shape, a ReLU's output, a
    max-pool's input and output. These are the arrays the forward makes
    anyway, kept by reference. A leading max-pool therefore keeps a
    reference to image itself: the caller must not change image before
    backward. tape=False keeps no references and returns (output, None)
    with the same output bytes; callers that never call backward pass it.
    """
    validate_spec(spec)
    x = np.asarray(image)
    if x.ndim != 3:
        raise ShapeError(f"input must be (maps, h, w), got shape {x.shape}")
    shapes = output_shapes(spec, x.shape)  # raises naming the offending layer
    caches = [] if tape else None
    conv_i = 0
    for layer, out_shape in zip(spec, shapes):
        if layer.kind == CONV:
            y, kept = _conv_forward(x, params.weights[conv_i],
                                    params.biases[conv_i], layer)
            conv_i += 1
        elif layer.kind == RELU:
            y = np.maximum(x, 0)
            kept = (y,)
        else:
            y = _maxpool_forward(x, layer, out_shape)
            kept = (x, y)
        if tape:
            caches.append((layer.kind, x.shape, y.shape) + kept)
        # without a tape, a conv's patch columns are freed here, before
        # the next layer allocates its output
        x, kept = y, None
    return x, caches


def backward(params: NetParams, spec: list[LayerSpec], tape, output_grad: np.ndarray,
             *, lowest_conv: int | None = None):
    """Gradients of <output_grad, output> w.r.t. params and input.

    ReLU and max-pool gradients are routed from the activations on the
    tape: a ReLU passes where its output is positive, a max-pool sends
    each output's gradient to the window offset the forward took.

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
    expected = tape[-1][2]
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
                placeholder = np.broadcast_to(np.zeros((), dtype), tape[0][1])
                return NetParams(weight_grads, bias_grads), placeholder
        elif layer.kind == RELU:
            g = g * (cache[3] > 0)
        else:
            g = _maxpool_backward(g, layer, cache)
    return NetParams(weight_grads, bias_grads), g


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def save_checkpoint(path, spec: list[LayerSpec], params: NetParams, meta: dict | None = None) -> None:
    """Write weights plus a sidecar JSON (path + ".json") holding meta.

    Non-finite parameters are a FormatError before either file is
    opened, as load_checkpoint refuses them."""
    validate_spec(spec)
    arrays = [ioutil.finite(np.asarray(a, "<f4"), "checkpoint parameters")
              for wb in zip(params.weights, params.biases) for a in wb]
    path = os.fspath(path)
    with open(path, "wb") as f:
        ioutil.write_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        ioutil.write_u32(f, len(spec))
        for layer in spec:
            code, fields = _LAYER_RECORDS[layer.kind]
            ioutil.write_u8(f, code)
            for name in fields:
                ioutil.write_u32(f, getattr(layer, name))
        for a in arrays:
            ioutil.write_array(f, a, "<f4")
    ioutil.write_json(path + ".json", dict(meta or {}), indent=2)


def load_checkpoint(path):
    """Read a checkpoint; returns (spec, params, meta). A missing sidecar
    gives meta {}."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        ioutil.check_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                            "checkpoint")
        n_layers = ioutil.read_u32(f, "layer count")
        spec = []
        for i in range(n_layers):
            code = ioutil.read_u8(f, f"layer {i} kind")
            if code not in _CODE_KINDS:
                raise FormatError(f"layer {i}: unknown kind code {code}")
            kind = _CODE_KINDS[code]
            spec.append(LayerSpec(kind, **{
                name: ioutil.read_u32(f, f"layer {i} {name}")
                for name in _LAYER_RECORDS[kind][1]}))
        try:
            validate_spec(spec)
        except SpecError as exc:
            raise FormatError(f"checkpoint layer list invalid: {exc}") from exc
        weights, biases = [], []
        for i, layer in enumerate(spec):
            if layer.kind != CONV:
                continue
            count = layer.out_maps * layer.in_maps * layer.kernel ** 2
            w = ioutil.read_array(f, "<f4", count, f"layer {i} weights")
            weights.append(w.reshape(layer.out_maps, layer.in_maps,
                                     layer.kernel, layer.kernel))
            biases.append(ioutil.read_array(f, "<f4", layer.out_maps,
                                            f"layer {i} biases"))
        ioutil.expect_eof(f, "checkpoint")
    for arr in weights + biases:
        ioutil.finite(arr, "checkpoint parameters")
    sidecar = path + ".json"
    meta = (ioutil.load_json(sidecar, f"checkpoint sidecar {sidecar}")
            if os.path.exists(sidecar) else {})
    return spec, NetParams(weights, biases), meta
