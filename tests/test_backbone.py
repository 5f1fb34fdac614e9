"""Tests for the convolutional trunk: shapes, gradients, checkpoints."""

import numpy as np
import pytest
from testkit import (central_difference, in_new_interpreter, margins_ok,
                     rel_err, traced_peak)

from macforge.backbone import (
    INIT_GAIN,
    NetParams,
    ShapeError,
    SpecError,
    TapeError,
    backward,
    conv,
    forward,
    init_params,
    load_checkpoint,
    maxpool,
    output_shapes,
    relu,
    save_checkpoint,
    tiny_spec,
    validate_spec,
)
from macforge.ioutil import FormatError
from macforge.numeric import SeededStream


def direct_conv(x, weight, bias, stride, pad):
    """Convolution by its definition: per-output-cell patch dot products."""
    out_maps, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (xp.shape[1] - k) // stride + 1
    ow = (xp.shape[2] - k) // stride + 1
    y = np.zeros((out_maps, oh, ow))
    for o in range(out_maps):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride:i * stride + k, j * stride:j * stride + k]
                y[o, i, j] = np.sum(patch * weight[o]) + bias[o]
    return y


def reference_forward(params, spec, x):
    """forward() as first written: np.pad for the conv border, and a
    reshape copy of every pooling window read by argmax and
    take_along_axis. Its tape holds each conv's patch columns, each
    ReLU's input mask and each max-pool's argmax offsets, for
    reference_backward."""
    x = np.asarray(x)
    tape = []
    conv_i = 0
    for layer in spec:
        if layer.kind == "conv":
            p, k, s = layer.pad, layer.kernel, layer.stride
            x_pad = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
            win = np.lib.stride_tricks.sliding_window_view(
                x_pad, (k, k), axis=(1, 2))[:, ::s, ::s]
            out_h, out_w = win.shape[1], win.shape[2]
            cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2).reshape(
                x.shape[0] * k * k, out_h * out_w))
            y = (params.weights[conv_i].reshape(layer.out_maps, -1) @ cols
                 + params.biases[conv_i][:, None])
            y = np.ascontiguousarray(y.reshape(layer.out_maps, out_h, out_w))
            tape.append(("conv", cols, x.shape, x_pad.shape, y.shape))
            conv_i += 1
        elif layer.kind == "relu":
            tape.append(("relu", x > 0))
            y = np.maximum(x, 0)
        else:
            w, s = layer.window, layer.stride
            win = np.lib.stride_tricks.sliding_window_view(
                x, (w, w), axis=(1, 2))[:, ::s, ::s]
            flat = win.reshape(win.shape[0], win.shape[1], win.shape[2], w * w)
            idxs = np.argmax(flat, axis=3)
            y = np.ascontiguousarray(
                np.take_along_axis(flat, idxs[..., None], axis=3)[..., 0])
            tape.append(("maxpool", idxs, x.shape, y.shape))
        x = y
    return x, tape


def reference_backward(params, spec, tape, gout):
    """backward() as first written, on reference_forward's tape: a ReLU
    masks by its input, a max-pool routes by the argmax offsets. Returns
    (grads, input gradient)."""
    g = np.asarray(gout)
    weights, biases = [], []
    conv_i = len(params.weights)
    for layer, entry in zip(reversed(spec), reversed(tape)):
        if layer.kind == "conv":
            conv_i -= 1
            _, cols, x_shape, pad_shape, (out_maps, out_h, out_w) = entry
            k, s, p = layer.kernel, layer.stride, layer.pad
            weight = params.weights[conv_i]
            g_mat = g.reshape(out_maps, out_h * out_w)
            weights.insert(0, (g_mat @ cols.T).reshape(weight.shape))
            biases.insert(0, g_mat.sum(axis=1))
            dcols = (weight.reshape(out_maps, -1).T @ g_mat).reshape(
                layer.in_maps, k, k, out_h, out_w)
            dx_pad = np.zeros(pad_shape, dtype=g.dtype)
            for di in range(k):
                for dj in range(k):
                    dx_pad[:, di:di + s * out_h:s,
                           dj:dj + s * out_w:s] += dcols[:, di, dj]
            g = np.ascontiguousarray(
                dx_pad[:, p:p + x_shape[1], p:p + x_shape[2]])
        elif layer.kind == "relu":
            g = g * entry[1]
        else:
            _, idxs, x_shape, (_, out_h, out_w) = entry
            w, s = layer.window, layer.stride
            dx = np.zeros(x_shape, dtype=g.dtype)
            for di in range(w):
                for dj in range(w):
                    sel = idxs == di * w + dj
                    if sel.any():
                        dx[:, di:di + s * out_h:s,
                           dj:dj + s * out_w:s] += np.where(sel, g, 0.0)
            g = dx
    return NetParams(weights, biases), g


def assert_bits_equal(a, b):
    """Same dtype, shape and bytes: tells -0.0 from 0.0 and NaN payloads."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_grads_equal(result, ref):
    """Two (grads, input gradient) results agree byte for byte."""
    (grads, gx), (ref_grads, ref_gx) = result, ref
    assert_bits_equal(gx, ref_gx)
    assert len(grads.weights) == len(ref_grads.weights)
    for g, ref_g in zip(grads.weights + grads.biases,
                        ref_grads.weights + ref_grads.biases):
        assert_bits_equal(g, ref_g)


def assert_matches_reference(params, spec, x, gout_stream):
    """forward() and backward() against reference_forward and
    reference_backward, byte for byte: the output, taped and untaped, the
    input gradient and every parameter gradient; forward(..., tape=False)
    returns no tape."""
    out, tape = forward(params, spec, x)
    ref_out, ref_tape = reference_forward(params, spec, x)
    assert_bits_equal(out, ref_out)
    untaped, no_tape = forward(params, spec, x, tape=False)
    assert no_tape is None
    assert_bits_equal(untaped, out)
    gout = gout_stream.normal(size=out.shape).astype(out.dtype)
    assert_grads_equal(backward(params, spec, tape, gout),
                       reference_backward(params, spec, ref_tape, gout))
    return out


class TestSpecAndInit:
    def test_validate_rejects_bad_chaining(self):
        with pytest.raises(SpecError):
            validate_spec([conv(3, 8, 3), relu(), conv(4, 8, 3)])

    def test_validate_rejects_empty_and_bad_fields(self):
        with pytest.raises(SpecError):
            validate_spec([])
        with pytest.raises(SpecError):
            validate_spec([conv(3, 8, 0)])
        with pytest.raises(SpecError):
            validate_spec([maxpool(2, 0)])

    def test_minimal_net(self):
        params = init_params([conv(1, 1, 1)], SeededStream(1))
        assert params.weights[0].shape == (1, 1, 1, 1)
        np.testing.assert_array_equal(params.biases[0], [0.0])

    def test_init_deterministic(self):
        a = init_params(tiny_spec(), SeededStream(42, 1))
        b = init_params(tiny_spec(), SeededStream(42, 1))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_init_first_conv_color_blobs(self):
        params = init_params(tiny_spec(), SeededStream(7))
        w = params.weights[0]
        assert w.dtype == np.float32
        # color directions are zero-mean across channels
        np.testing.assert_allclose(w.sum(axis=1), 0.0, atol=1e-6)
        # every filter carries the damped Glorot-equivalent norm
        fan_in, fan_out = 3 * 25, 8 * 25
        target = INIT_GAIN * np.sqrt(6.0 / (fan_in + fan_out)) * np.sqrt(fan_in / 3.0)
        norms = np.linalg.norm(w.reshape(8, -1), axis=1)
        np.testing.assert_allclose(norms, target, rtol=1e-5)
        # the Gaussian bump peaks at the filter center
        mags = np.abs(w)
        assert np.all(mags[:, :, 2, 2] >= mags[:, :, 0, 0])

    def test_init_deeper_convs_glorot(self):
        params = init_params(tiny_spec(), SeededStream(7))
        for w, fan_in, fan_out in ((params.weights[1], 8 * 9, 16 * 9),
                                   (params.weights[2], 16 * 9, 32 * 9)):
            bound = INIT_GAIN * np.sqrt(6.0 / (fan_in + fan_out))
            assert w.dtype == np.float32
            assert np.all(np.abs(w) <= bound * (1 + 1e-6))
            assert np.max(np.abs(w)) > 0.5 * bound

    def test_init_non_rgb_first_conv_is_glorot(self):
        # structured color filters only make sense over 3-channel input
        params = init_params([conv(4, 6, 3)], SeededStream(7))
        bound = INIT_GAIN * np.sqrt(6.0 / (4 * 9 + 6 * 9))
        assert np.all(np.abs(params.weights[0]) <= bound * (1 + 1e-6))
        assert not np.allclose(params.weights[0].sum(axis=1), 0.0, atol=1e-4)

    def test_init_gain_invisible_after_l2n(self):
        # relu and maxpool are positively homogeneous, so a uniform weight
        # rescaling scales the output tensor and cancels under l2n
        spec = tiny_spec()
        params = init_params(spec, SeededStream(11))
        doubled = params.copy()
        for i in range(len(doubled.weights)):
            doubled.weights[i] = doubled.weights[i] * np.float32(2.0)
        x = SeededStream(12).random((3, 24, 24)).astype(np.float32)
        y, _ = forward(params, spec, x)
        y2, _ = forward(doubled, spec, x)
        n_convs = 3
        np.testing.assert_allclose(y2, y * 2.0 ** n_convs, rtol=1e-4)


class TestForward:
    def test_identity_conv(self):
        spec = [conv(1, 1, 1)]
        params = NetParams([np.ones((1, 1, 1, 1), np.float32)],
                           [np.zeros(1, np.float32)])
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        y, _ = forward(params, spec, x)
        np.testing.assert_array_equal(y, x)

    def test_maxpool_single_window(self):
        spec = [maxpool(2, 2)]
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        y, _ = forward(NetParams([], []), spec, x)
        np.testing.assert_array_equal(y, [[[4.0]]])

    def test_direct_convolution_reference(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        spec = [conv(2, 3, 3, stride=1, pad=0)]
        y, _ = forward(NetParams([weight], [bias]), spec, x)
        np.testing.assert_allclose(y, direct_conv(x, weight, bias, 1, 0), rtol=1e-12)

    def test_direct_convolution_stride_and_pad(self):
        rng = np.random.default_rng(21)
        for stride, pad, k in [(2, 1, 3), (2, 2, 5), (3, 0, 2), (1, 1, 1)]:
            x = rng.normal(size=(3, 9, 8))
            weight = rng.normal(size=(2, 3, k, k))
            bias = rng.normal(size=2)
            spec = [conv(3, 2, k, stride=stride, pad=pad)]
            y, _ = forward(NetParams([weight], [bias]), spec, x)
            np.testing.assert_allclose(
                y, direct_conv(x, weight, bias, stride, pad), rtol=1e-12)

    def test_declared_shapes_match_realized(self):
        stream = SeededStream(3)
        for trial in range(10):
            s = stream.derive("spec", trial)
            c1 = int(s.integers(1, 4))
            c2 = int(s.integers(1, 5))
            spec = [
                conv(c1, c2, int(s.integers(1, 4)), stride=int(s.integers(1, 3)),
                     pad=int(s.integers(0, 3))),
                relu(),
                maxpool(int(s.integers(1, 3)), int(s.integers(1, 3))),
            ]
            x = s.normal(size=(c1, int(s.integers(8, 14)), int(s.integers(8, 14))))
            declared = output_shapes(spec, x.shape)
            params = init_params(spec, s.derive("params"))
            for i in range(len(spec)):
                y, _ = forward(params, spec[:i + 1], x.astype(np.float32))
                assert y.shape == declared[i]

    def test_undersized_input_names_layer(self):
        spec = [conv(1, 2, 3), relu(), maxpool(4, 4)]
        params = init_params(spec, SeededStream(5))
        with pytest.raises(ShapeError, match="layer 2"):
            forward(params, spec, np.zeros((1, 5, 5), np.float32))

    def test_relu_idempotent(self):
        x = np.linspace(-2, 2, 24).reshape(2, 3, 4).astype(np.float32)
        once, _ = forward(NetParams([], []), [relu()], x)
        twice, _ = forward(NetParams([], []), [relu()], once)
        np.testing.assert_array_equal(once, twice)

    def test_forward_deterministic(self):
        spec = tiny_spec()
        params = init_params(spec, SeededStream(9))
        x = SeededStream(10).normal(size=(3, 40, 40)).astype(np.float32)
        y1, _ = forward(params, spec, x)
        y2, _ = forward(params, spec, x.copy())
        assert np.array_equal(y1, y2)

    def test_tiny_spec_output_dim(self):
        shapes = output_shapes(tiny_spec(), (3, 96, 96))
        assert shapes[-1][0] == 32


POOLS = [(1, 1), (2, 2), (3, 2), (2, 3)]  # plain, tiling, overlapping, gapped


def _oracle_instance(s, dtype, quantize):
    """A random conv/relu/maxpool net on an odd, non-square input, with a
    maxpool first so raw values (negatives, signed zeros) reach it."""
    c1, c2, c3 = (int(s.integers(1, 4)) for _ in range(3))
    p0, p1, p2 = (POOLS[int(s.integers(0, len(POOLS)))] for _ in range(3))
    spec = [
        maxpool(*p0),
        conv(c1, c2, int(s.integers(1, 4)), stride=int(s.integers(1, 4)),
             pad=int(s.integers(0, 3))),
        relu(),
        maxpool(*p1),
        conv(c2, c3, int(s.integers(1, 3)), stride=int(s.integers(1, 4)),
             pad=int(s.integers(0, 3))),
        maxpool(*p2),
        relu(),
    ]
    h, w = 2 * int(s.integers(8, 16)) + 1, 2 * int(s.integers(8, 16)) + 1
    if h == w:
        w += 2
    x = s.normal(size=(c1, h, w))
    if quantize:
        # a coarse grid makes pooling windows tie, and rounds small
        # negatives to -0.0
        x = np.round(x * 2.0) / 2.0
    params = init_params(spec, s.derive("params")).astype(dtype)
    if quantize:
        for i in range(len(params.weights)):
            params.weights[i] = np.round(params.weights[i] * 8.0) / 8.0
    return spec, params, x.astype(dtype)


# quiet NaNs that differ only in sign and payload bits
NAN_WORDS = {
    np.float32: (np.uint32, [0xFFC00001, 0x7FC00002, 0x7FC00003]),
    np.float64: (np.uint64, [0xFFF8000000000001, 0x7FF8000000000002,
                             0x7FF8000000000003]),
}


def _nans(dtype):
    bits, words = NAN_WORDS[dtype]
    return np.array(words, bits).view(dtype)


class TestForwardMatchesReference:
    """forward() pads by slice assignment, unfolds patches through one
    strided window view and pools by an in-place running np.maximum on the
    strided window views; backward() routes from the activations. Outputs,
    taped and untaped, and gradients must equal the np.pad/argmax
    reference bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_random_nets(self, dtype, quantize):
        stream = SeededStream(20161018).derive(np.dtype(dtype).name, quantize)
        checked = 0
        for trial in range(40):
            s = stream.derive("trial", trial)
            spec, params, x = _oracle_instance(s, dtype, quantize)
            try:
                output_shapes(spec, x.shape)
            except ShapeError:
                continue
            assert_matches_reference(params, spec, x, s.derive("gout"))
            checked += 1
        assert checked >= 20

    # A pad-0 first layer reads the caller's array as it is, so views with
    # offset or negative strides reach the kernels directly.
    FIRST_LAYERS = {
        "conv": [conv(2, 3, 3, stride=2), relu(), maxpool(2, 2)],
        "maxpool": [maxpool(3, 2), conv(2, 3, 2, stride=1, pad=1), relu()],
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["sliced", "flipped"])
    @pytest.mark.parametrize("first", sorted(FIRST_LAYERS))
    def test_non_contiguous_input(self, first, view, dtype):
        spec = self.FIRST_LAYERS[first]
        s = SeededStream(20161019).derive(first, view, np.dtype(dtype).name)
        params = init_params(spec, s.derive("params")).astype(dtype)
        x = s.derive("x").normal(size=(2, 17, 19)).astype(dtype)
        x = x[:, 1:-2, 3:] if view == "sliced" else x[..., ::-1]
        assert not x.flags.c_contiguous
        assert_matches_reference(params, spec, x, s.derive("gout"))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_window_one_pool(self, stride):
        spec = [conv(1, 2, 3, pad=1), maxpool(1, stride), relu()]
        s = SeededStream(20161020).derive(stride)
        params = init_params(spec, s.derive("params"))
        x = s.derive("x").normal(size=(1, 9, 8)).astype(np.float32)
        assert_matches_reference(params, spec, x, s.derive("gout"))

    @pytest.mark.parametrize("pool", [(2, 2), (2, 3)])
    def test_nan_outside_every_window(self, pool):
        # the last row of a 5-row input falls outside every (2, 2) window,
        # and row 2 between the (2, 3) windows' rows 0-1 and 3-4
        spec = [maxpool(*pool)]
        x = np.round(SeededStream(20161021).normal(size=(2, 5, 6)) * 2) / 2
        x[:, 4 if pool == (2, 2) else 2, 1] = np.nan
        out = assert_matches_reference(NetParams([], []), spec, x,
                                       SeededStream(20161022))
        assert not np.isnan(out).any()

    # Palettes of values that np.maximum might order differently from the
    # taped pool: signed zeros tie, NaNs differ only in their payload
    # bits, and infinities tie with each other.
    SPECIAL = {
        "signed_zeros": lambda dtype: np.array([0.0, -0.0, -1.0], dtype),
        "nan_payloads": lambda dtype: np.concatenate(
            [_nans(dtype), np.array([1.0, 0.0, -0.0], dtype)]),
        "infinities": lambda dtype: np.array(
            [np.inf, -np.inf, 0.0, -0.0, 1.0], dtype),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", sorted(SPECIAL))
    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("relu_pool", [False, True])
    def test_special_values(self, relu_pool, pool, values, dtype):
        # the raw input reaches the first pool, whose output shows the
        # sign of a zero; a ReLU turns negatives into ties of zeros for a
        # second pool
        spec = [maxpool(*pool)] + ([relu(), maxpool(2, 2)] if relu_pool
                                   else [])
        palette = self.SPECIAL[values](dtype)
        s = SeededStream(20161023).derive(values, *pool, np.dtype(dtype).name)
        nan_outputs = 0
        for trial in range(6):
            x = palette[s.derive(trial).integers(0, len(palette), (2, 9, 11))]
            out = assert_matches_reference(NetParams([], []), spec, x,
                                           s.derive("gout", trial))
            nan_outputs += bool(np.isnan(out).any())
        assert nan_outputs or values != "nan_payloads"

    def test_tiny_spec_on_odd_input(self):
        spec = tiny_spec()
        params = init_params(spec, SeededStream(31))
        x = SeededStream(32).random((3, 61, 47)).astype(np.float32)
        assert_matches_reference(params, spec, x, SeededStream(33))

    def test_output_does_not_alias_input(self):
        x = np.arange(12.0).reshape(1, 3, 4)
        for tape in (True, False):
            y, _ = forward(NetParams([], []), [maxpool(1, 1)], x, tape=tape)
            y[...] = -1.0
            np.testing.assert_array_equal(x, np.arange(12.0).reshape(1, 3, 4))


def assert_tape_matches_reference(params, spec, x, tape):
    """Every entry of forward()'s tape holds reference_forward's bytes: a
    conv's patch columns and padded shape, a ReLU's output, a max-pool's
    input and output, each with its layer's input and output shapes."""
    _, ref_tape = reference_forward(params, spec, x)
    acts = [np.asarray(x)] + [reference_forward(params, spec[:i + 1], x)[0]
                              for i in range(len(spec))]
    assert len(tape) == len(spec)
    for i, (entry, ref) in enumerate(zip(tape, ref_tape)):
        kind, in_shape, out_shape, *kept = entry
        assert (kind, in_shape, out_shape) == \
            (ref[0], acts[i].shape, acts[i + 1].shape)
        if kind == "conv":
            assert_bits_equal(kept[0], ref[1])
            assert kept[1] == ref[3]
        elif kind == "relu":
            assert_bits_equal(kept[0], acts[i + 1])
        else:
            assert_bits_equal(kept[0], acts[i])
            assert_bits_equal(kept[1], acts[i + 1])


class TestConvWindowView:
    """A conv unfolds every input through an np.ndarray view of a
    C-contiguous buffer: the padded one, a contiguous pad-0 input as it
    is, and a contiguous copy of any other; each matches reference_forward
    byte for byte and leaves the input as it was."""

    FIRST_CONVS = {
        "pad0": [conv(2, 3, 3, stride=2), relu(), maxpool(2, 2),
                 conv(3, 2, 2, pad=1), relu()],
        "padded": [conv(2, 3, 3, stride=2, pad=1), relu(), maxpool(2, 2)],
    }
    INPUTS = {
        "contiguous": lambda x: x,
        "sliced": lambda x: x[:, 1:-2, 3:],
        "negative_stride": lambda x: x[:, ::-1, ::-2],
        "read_only": lambda x: x.copy(),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tape", [True, False])
    @pytest.mark.parametrize("view", sorted(INPUTS))
    @pytest.mark.parametrize("first", sorted(FIRST_CONVS))
    def test_matches_reference(self, first, view, tape, dtype):
        spec = self.FIRST_CONVS[first]
        s = SeededStream(20161024).derive(first, view, np.dtype(dtype).name)
        params = init_params(spec, s.derive("params")).astype(dtype)
        params.biases = [s.derive("bias", i).normal(size=b.shape).astype(dtype)
                         for i, b in enumerate(params.biases)]
        x = self.INPUTS[view](
            s.derive("x").normal(size=(2, 17, 19)).astype(dtype))
        if view == "read_only":
            x.setflags(write=False)
        assert x.flags.c_contiguous == (view in ("contiguous", "read_only"))
        before = (x.tobytes(), x.strides, x.flags.c_contiguous,
                  x.flags.writeable, x.flags.owndata)
        out, kept = forward(params, spec, x, tape=tape)
        assert_bits_equal(out, reference_forward(params, spec, x)[0])
        if tape:
            assert_tape_matches_reference(params, spec, x, kept)
        else:
            assert kept is None
        assert (x.tobytes(), x.strides, x.flags.c_contiguous,
                x.flags.writeable, x.flags.owndata) == before


# One tape-free tiny_spec forward at 96 px holds, at its peak, conv0's
# padded input (3 x 100 x 100 float32), its patch columns (75 x 2304)
# and one conv0 output (8 x 48 x 48); the ReLU and pool outputs after
# it are smaller. SLACK covers the walk's small arrays and objects
# (29.7 kB measured) and is under one more conv0 output (73.7 kB), which
# a bias added into a second array would allocate.
CONV0_BYTES = 4 * (3 * 100 * 100 + 75 * 48 * 48 + 8 * 48 * 48)
SLACK = 48 * 1024


def untaped_forward_peak():
    """Traced peak of one tape-free tiny_spec forward at 96 px."""
    spec = tiny_spec()
    params = init_params(spec, SeededStream(5).derive("init"))
    x = SeededStream(6).random((3, 96, 96)).astype(np.float32)
    forward(params, spec, x, tape=False)  # first-call set-up untraced
    return traced_peak(lambda: forward(params, spec, x, tape=False))


class TestConvAllocations:

    def test_untaped_peak_is_one_conv0(self):
        # traced in a new interpreter, as TestOneTapeAlive is
        peak = in_new_interpreter("test_backbone", "untaped_forward_peak")
        assert CONV0_BYTES < peak < CONV0_BYTES + SLACK


class TestBackward:
    def test_zero_grad(self):
        spec = [conv(1, 2, 3, pad=1), relu()]
        params = init_params(spec, SeededStream(11))
        x = SeededStream(12).normal(size=(1, 5, 5)).astype(np.float32)
        out, tape = forward(params, spec, x)
        grads, gx = backward(params, spec, tape, np.zeros_like(out))
        np.testing.assert_array_equal(gx, 0.0)
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, 0.0)

    def test_identity_conv_passes_grad(self):
        spec = [conv(1, 1, 1)]
        params = NetParams([np.ones((1, 1, 1, 1))], [np.zeros(1)])
        x = np.arange(4.0).reshape(1, 2, 2)
        _, tape = forward(params, spec, x)
        gout = np.array([[[1.0, -2.0], [0.5, 3.0]]])
        _, gx = backward(params, spec, tape, gout)
        np.testing.assert_array_equal(gx, gout)

    def test_maxpool_tie_routes_to_lowest_linear_index(self):
        spec = [maxpool(2, 2)]
        x = np.full((1, 4, 4), 7.0)
        _, tape = forward(NetParams([], []), spec, x)
        gout = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        _, gx = backward(NetParams([], []), spec, tape, gout)
        want = np.zeros((1, 4, 4))
        want[0, 0, 0], want[0, 0, 2], want[0, 2, 0], want[0, 2, 2] = 1, 2, 3, 4
        np.testing.assert_array_equal(gx, want)

    # Pooling follows np.argmax: inside a window, scanned in row-major
    # offset order, the first maximum wins (the lowest input linear index)
    # and the first NaN wins over every number, +inf included.

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_nan_at_later_offset_wins_its_window(self, dtype):
        nan = np.nan
        x = np.array([[[1.0, 0.0, 5.0, nan],
                       [nan, 2.0, nan, 9.0],
                       [np.inf, nan, 0.0, 0.0],
                       [0.0, 0.0, -1.0, nan]]], dtype=dtype)
        spec = [maxpool(2, 2)]
        y, tape = forward(NetParams([], []), spec, x)
        assert np.isnan(y).tolist() == [[[True, True], [True, True]]]
        _, gx = backward(NetParams([], []), spec, tape,
                         np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype))
        # window (0, 0) takes its NaN at offset 2, (0, 1) and (1, 0) at 1,
        # (1, 1) at 3
        np.testing.assert_array_equal(np.argwhere(gx[0]),
                                      [[0, 3], [1, 0], [2, 1], [3, 3]])
        np.testing.assert_array_equal(gx[0][gx[0] != 0], [2.0, 1.0, 3.0, 4.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_infinities(self, dtype):
        inf = np.inf
        x = np.array([[[-inf, -inf, -inf, 3.0],
                       [-inf, -inf, inf, inf],
                       [-inf, inf, 2.0, 2.0],
                       [inf, -inf, 2.0, 2.0]]], dtype=dtype)
        spec = [maxpool(2, 2)]
        y, tape = forward(NetParams([], []), spec, x)
        np.testing.assert_array_equal(y, [[[-inf, inf], [inf, 2.0]]])
        _, gx = backward(NetParams([], []), spec, tape,
                         np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype))
        # ties of -inf, +inf and 2.0 go to offsets 0, 2, 1 and 0
        np.testing.assert_array_equal(np.argwhere(gx[0]),
                                      [[0, 0], [1, 2], [2, 1], [2, 2]])
        np.testing.assert_array_equal(gx[0][gx[0] != 0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_overlapping_windows(self, dtype):
        # 3x3 windows at stride 2 on a 5x7 input: rows 0-2 and 2-4, columns
        # 0-2, 2-4 and 4-6. Distinct negative eighths fill the input, so
        # each window's first cell is its maximum unless set otherwise.
        x = -(np.arange(35.0).reshape(1, 5, 7) + 1) / 8
        x[0, 1, 2] = 9.0  # the maximum of windows (0, 0) and (0, 1)
        x[0, 0, 5] = x[0, 1, 6] = 5.0  # a tie in window (0, 2)
        x[0, 3, 0] = 7.0  # window (1, 0): a NaN at a later offset wins
        x[0, 4, 1] = np.nan
        x = x.astype(dtype)
        spec = [maxpool(3, 2)]
        y, tape = forward(NetParams([], []), spec, x)
        np.testing.assert_array_equal(
            y, np.array([[[9.0, 9.0, 5.0], [np.nan, -17 / 8, -19 / 8]]], dtype))
        gout = np.array([[[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]]], dtype)
        _, gx = backward(NetParams([], []), spec, tape, gout)
        want = np.zeros((1, 5, 7), dtype)
        want[0, 1, 2] = 1.0 + 2.0
        want[0, 0, 5] = 4.0
        want[0, 4, 1] = 8.0
        want[0, 2, 2] = 16.0
        want[0, 2, 4] = 32.0
        assert_bits_equal(gx, want)

    @pytest.mark.parametrize("spec", [
        tiny_spec(),
        [maxpool(3, 2), relu(), maxpool(2, 1), conv(3, 2, 3, pad=1), relu()],
    ])
    def test_tape_holds_references_only(self, spec):
        # ReLU and max-pool entries are the activations themselves, not
        # copies, masks or offsets; a leading pool reads the caller's image
        params = init_params(spec, SeededStream(15))
        x = SeededStream(16).normal(size=(3, 23, 21)).astype(np.float32)
        out, tape = forward(params, spec, x)
        produced = x  # the array the current layer reads
        for entry in tape:
            for field in entry[3:]:
                if isinstance(field, np.ndarray):
                    assert field.dtype.kind == "f"
            if entry[0] == "maxpool":
                assert produced is None or np.shares_memory(entry[3], produced)
            produced = entry[-1] if entry[0] in ("relu", "maxpool") else None
        assert np.shares_memory(produced, out)

    def test_tape_mismatch(self):
        spec = [conv(1, 1, 1), relu()]
        params = init_params(spec, SeededStream(13))
        x = np.ones((1, 3, 3), np.float32)
        out, tape = forward(params, spec, x)
        with pytest.raises(TapeError):
            backward(params, spec, tape[:1], np.ones_like(out))
        with pytest.raises(TapeError):
            backward(params, spec, tape, np.ones((1, 9, 9), np.float32))


def _stop_instance(s, first, dtype, quantize):
    """A random three-conv net whose first layer is of kind `first`, on an
    odd, non-square input."""
    head = {"conv": [], "relu": [relu()],
            "maxpool": [maxpool(*POOLS[int(s.integers(0, len(POOLS)))])]}
    c0, c1, c2, c3 = (int(s.integers(1, 4)) for _ in range(4))
    for attempt in range(100):
        a = s.derive("shape", attempt)
        spec = head[first] + [
            conv(c0, c1, int(a.integers(1, 4)), stride=int(a.integers(1, 3)),
                 pad=int(a.integers(0, 3))),
            relu(),
            maxpool(*POOLS[int(a.integers(0, len(POOLS)))]),
            conv(c1, c2, int(a.integers(1, 4)), pad=int(a.integers(0, 2))),
            relu(),
            conv(c2, c3, int(a.integers(1, 3)), stride=int(a.integers(1, 3))),
        ]
        shape = (c0, 2 * int(a.integers(7, 14)) + 1,
                 2 * int(a.integers(7, 14)) + 3)
        try:
            output_shapes(spec, shape)
        except ShapeError:
            continue
        x = s.normal(size=shape)
        params = init_params(spec, s.derive("params"))
        if quantize:
            # ties in the pooling windows, -0.0 in the upstream gradient
            x = np.round(x * 2.0) / 2.0
            for i in range(len(params.weights)):
                params.weights[i] = np.round(params.weights[i] * 8.0) / 8.0
        return spec, params.astype(dtype), x.astype(dtype)
    raise AssertionError("could not build a valid instance")


class TestBackwardStop:
    """backward(lowest_conv=k) returns the default call's parameter
    gradients from conv k up, byte for byte, and None below."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("first", ["conv", "relu", "maxpool"])
    def test_matches_full_walk(self, first, dtype):
        stream = SeededStream(20160425, 13)
        for trial in range(12):
            s = stream.derive(first, trial)
            spec, params, x = _stop_instance(s, first, dtype,
                                             quantize=trial % 2 == 1)
            out, tape = forward(params, spec, x)
            gout = s.derive("gout").normal(size=out.shape)
            if trial % 2:
                gout = np.round(gout * 2.0) / 2.0
            gout = gout.astype(dtype)
            full, gx = backward(params, spec, tape, gout)
            assert_grads_equal(
                (full, gx),
                reference_backward(params, spec,
                                   reference_forward(params, spec, x)[1], gout))
            for k in range(len(params.weights)):
                grads, placeholder = backward(params, spec, tape, gout,
                                              lowest_conv=k)
                assert grads.weights[:k] == [None] * k
                assert grads.biases[:k] == [None] * k
                for g, ref in zip(grads.weights[k:] + grads.biases[k:],
                                  full.weights[k:] + full.biases[k:]):
                    assert_bits_equal(g, ref)
                assert placeholder.shape == x.shape == gx.shape
                assert placeholder.dtype == x.dtype == gx.dtype
                assert not placeholder.any()
                assert not placeholder.flags.writeable

    @pytest.mark.parametrize("lowest", [-1, 2])
    def test_rejects_layer_outside_the_net(self, lowest):
        spec = [conv(1, 2, 1), relu(), conv(2, 2, 1)]
        params = init_params(spec, SeededStream(14))
        out, tape = forward(params, spec, np.ones((1, 3, 3), np.float32))
        with pytest.raises(ValueError, match="lowest_conv"):
            backward(params, spec, tape, np.ones_like(out), lowest_conv=lowest)


def _random_instance(stream):
    """A small random net plus input with safe gradient-check margins."""
    for attempt in range(100):
        s = stream.derive("inst", attempt)
        c1, c2, c3 = (int(s.integers(1, 4)) for _ in range(3))
        spec = [
            conv(c1, c2, int(s.integers(1, 4)), stride=int(s.integers(1, 3)),
                 pad=int(s.integers(0, 2))),
            relu(),
            maxpool(int(s.integers(2, 4)), int(s.integers(1, 3))),
            conv(c2, c3, int(s.integers(1, 3))),
            relu(),
        ]
        h, w = int(s.integers(7, 11)), int(s.integers(7, 11))
        x = s.normal(size=(c1, h, w))
        try:
            output_shapes(spec, x.shape)
        except ShapeError:
            continue
        params = init_params(spec, s.derive("params")).astype(np.float64)
        if margins_ok(spec, params, x):
            return spec, params, x
    raise AssertionError("could not build a margin-safe instance")


class TestGradientsAgainstFiniteDifferences:
    def test_random_nets(self):
        stream = SeededStream(20160825, 99)
        worst = 0.0
        for trial in range(20):
            spec, params, x = _random_instance(stream.derive("trial", trial))
            out, tape = forward(params, spec, x)
            gout = stream.derive("gout", trial).normal(size=out.shape)
            grads, gx = backward(params, spec, tape, gout)

            def loss_of_input(v):
                return np.sum(forward(params, spec, v)[0] * gout)

            worst = max(worst, rel_err(gx, central_difference(loss_of_input, x)))
            for li in range(len(params.weights)):
                def loss_of_weight(w, li=li):
                    ws = list(params.weights)
                    ws[li] = w
                    return np.sum(forward(NetParams(ws, params.biases), spec, x)[0] * gout)

                def loss_of_bias(b, li=li):
                    bs = list(params.biases)
                    bs[li] = b
                    return np.sum(forward(NetParams(params.weights, bs), spec, x)[0] * gout)

                worst = max(worst, rel_err(
                    grads.weights[li],
                    central_difference(loss_of_weight, params.weights[li])))
                worst = max(worst, rel_err(
                    grads.biases[li],
                    central_difference(loss_of_bias, params.biases[li])))
        assert worst < 1e-4, f"worst relative error {worst:.3e}"


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, SeededStream(77))
        meta = {"epoch": 3, "val_map": 0.512, "config_hash": "ab12"}
        path = tmp_path / "net.mfck"
        save_checkpoint(path, spec, params, meta)
        spec2, params2, meta2 = load_checkpoint(path)
        assert spec2 == spec
        assert meta2 == meta
        for a, b in zip(params.weights + params.biases,
                        params2.weights + params2.biases):
            assert np.array_equal(a, b)
            assert b.dtype == np.float32

    def test_rewrite_byte_identical(self, tmp_path):
        spec = tiny_spec()
        params = init_params(spec, SeededStream(78))
        p1, p2 = tmp_path / "a.mfck", tmp_path / "b.mfck"
        save_checkpoint(p1, spec, params, {"epoch": 0})
        save_checkpoint(p2, spec, params, {"epoch": 0})
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.mfck.json").read_bytes() == \
            (tmp_path / "b.mfck.json").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mfck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        spec = [conv(1, 2, 3)]
        params = init_params(spec, SeededStream(79))
        path = tmp_path / "net.mfck"
        save_checkpoint(path, spec, params)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        spec = [conv(1, 2, 3)]
        params = init_params(spec, SeededStream(80))
        path = tmp_path / "net.mfck"
        save_checkpoint(path, spec, params)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unknown_layer_kind(self, tmp_path):
        path = tmp_path / "bad.mfck"
        import struct
        path.write_bytes(b"MFCK" + struct.pack("<II", 1, 1) + b"\x09")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["weights", "biases"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_non_finite_parameters_refused_before_any_write(
            self, tmp_path, where, value):
        # 1e300 is finite in float64 but not in the float32 the file holds
        spec = tiny_spec()
        params = init_params(spec, SeededStream(81)).astype(np.float64)
        getattr(params, where)[1][0] = value
        path = tmp_path / "net.mfck"
        with np.errstate(over="ignore"), \
                pytest.raises(FormatError, match="non-finite"):
            save_checkpoint(path, spec, params, {"epoch": 1})
        assert not path.exists()
        assert not (tmp_path / "net.mfck.json").exists()

    @pytest.mark.parametrize("sidecar", ["[1, 2]", '"meta"', "3", "null"])
    def test_sidecar_must_be_a_json_object(self, tmp_path, sidecar):
        spec = [conv(1, 2, 3)]
        path = tmp_path / "net.mfck"
        save_checkpoint(path, spec, init_params(spec, SeededStream(82)))
        (tmp_path / "net.mfck.json").write_text(sidecar)
        with pytest.raises(FormatError, match="must be a JSON object"):
            load_checkpoint(path)

    def test_missing_sidecar_gives_empty_meta(self, tmp_path):
        spec = [conv(1, 2, 3)]
        path = tmp_path / "net.mfck"
        save_checkpoint(path, spec, init_params(spec, SeededStream(83)),
                        {"epoch": 2})
        (tmp_path / "net.mfck.json").unlink()
        assert load_checkpoint(path)[2] == {}
