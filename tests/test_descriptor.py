"""Tests for MAC/R-MAC construction, cropping, and the descriptor db."""

import math
from fractions import Fraction

import numpy as np
import pytest
from testkit import central_difference

from macforge.backbone import conv, maxpool, relu, tiny_spec
from macforge.descriptor import (
    BBox,
    GridError,
    RegionGrid,
    crop_activations,
    l2n,
    load_descriptors,
    mac,
    mac_backward,
    receptive_geometry,
    rmac,
    rmac_regions,
    save_descriptors,
    similarity,
    top_contributions,
)
from macforge.ioutil import FormatError
from macforge.numeric import DimensionError, SeededStream


class TestMac:
    def test_indicator_zeroes_negative_map(self):
        x = np.array([[[1.0, -2.0], [3.0, 0.5]],
                      [[-1.0, -1.0], [-1.0, -1.0]]])
        np.testing.assert_array_equal(mac(x), [3.0, 0.0])

    def test_single_cell_identity(self):
        vals = np.array([0.0, 1.5, 2.0, 0.25])
        x = vals.reshape(4, 1, 1)
        np.testing.assert_array_equal(mac(x), vals)

    def test_matches_exhaustive_scan(self):
        x = SeededStream(30).normal(size=(4, 7, 5))
        want = np.zeros(4)
        for k in range(4):
            best = 0.0
            for i in range(7):
                for j in range(5):
                    if x[k, i, j] > best:
                        best = x[k, i, j]
            want[k] = best
        np.testing.assert_array_equal(mac(x), want)

    def test_spatial_permutation_invariant(self):
        stream = SeededStream(31)
        x = stream.normal(size=(3, 4, 5))
        shuffled = np.stack([
            stream.derive("perm", k).permutation(x[k].reshape(-1)).reshape(4, 5)
            for k in range(3)
        ])
        np.testing.assert_array_equal(mac(x), mac(shuffled))

    def test_non_negative_and_indicator_free_on_relu_output(self):
        x = np.maximum(SeededStream(32).normal(size=(6, 5, 5)), 0)
        f = mac(x)
        assert np.all(f >= 0)
        np.testing.assert_array_equal(f, x.max(axis=(1, 2)))

    def test_monotone(self):
        stream = SeededStream(33)
        x = stream.normal(size=(3, 4, 4))
        before = mac(x)
        bumped = x.copy()
        k = int(stream.integers(0, 3))
        i = int(stream.integers(0, 4))
        j = int(stream.integers(0, 4))
        bumped[k, i, j] += 1.0
        after = mac(bumped)
        assert np.all(after >= before)


class TestMacBackward:
    def test_routes_to_argmax_only(self):
        x = np.array([[[1.0, 5.0], [2.0, 3.0]]])
        dx = mac_backward(x, np.array([2.0]))
        np.testing.assert_array_equal(dx, [[[0.0, 2.0], [0.0, 0.0]]])

    def test_zero_map_gets_zero_gradient(self):
        x = np.array([[[-1.0, -2.0], [-3.0, -0.5]]])
        dx = mac_backward(x, np.array([2.0]))
        np.testing.assert_array_equal(dx, 0.0)

    def test_tie_routes_to_lowest_linear_index(self):
        x = np.array([[[4.0, 4.0], [4.0, 4.0]]])
        dx = mac_backward(x, np.array([1.0]))
        np.testing.assert_array_equal(dx, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_finite_differences_away_from_ties(self):
        checked = 0
        for trial in range(60):
            s = SeededStream(34, trial)
            x = s.normal(size=(3, 4, 4))
            flat = np.sort(x.reshape(3, -1), axis=1)
            # keep the argmax unambiguous and off the positive-part kink
            if np.min(flat[:, -1] - flat[:, -2]) < 1e-3:
                continue
            if np.min(np.abs(flat[:, -1])) < 1e-3:
                continue
            gout = s.derive("g").normal(size=3)
            analytic = mac_backward(x, gout)
            fd = central_difference(lambda v: float(mac(v) @ gout), x)
            np.testing.assert_allclose(analytic, fd, atol=1e-7)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


class TestL2n:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2n(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_vector_passes_through(self):
        np.testing.assert_array_equal(l2n(np.zeros(5)), np.zeros(5))

    def test_unit_norm(self):
        for trial in range(10):
            v = SeededStream(35, trial).normal(size=32).astype(np.float32)
            n = np.linalg.norm(l2n(v))
            assert abs(n - 1.0) < 1e-6


class TestSimilarity:
    def test_one_hots(self):
        a = np.zeros(4)
        a[1] = 1.0
        b = np.zeros(4)
        b[2] = 1.0
        assert similarity(a, a) == 1.0
        assert similarity(a, b) == 0.0

    def test_matches_direct_sum(self):
        s = SeededStream(36)
        a = l2n(np.abs(s.normal(size=16)))
        b = l2n(np.abs(s.normal(size=16)))
        want = sum(float(a[k]) * float(b[k]) for k in range(16))
        assert abs(similarity(a, b) - want) < 1e-12
        assert 0.0 <= similarity(a, b) <= 1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            similarity(np.ones(3), np.ones(4))


def reference_regions(w, h, scales):
    """Grid rule re-derived with exact rational arithmetic."""
    out = []
    for level in range(1, scales + 1):
        side = max(1, math.floor(Fraction(2 * min(w, h), level + 1)))
        starts = {}
        for dim in (w, h):
            span = dim - side
            if span <= 0:
                starts[dim] = [0]
                continue
            count = math.ceil(Fraction(span) / (Fraction(6, 10) * side)) + 1
            starts[dim] = [
                math.floor(Fraction(span * i, count - 1) + Fraction(1, 2))
                for i in range(count)
            ]
        for y in starts[h]:
            for x in starts[w]:
                out.append((x, y, side))
    return out


class TestRmacRegions:
    def test_minimal_extent(self):
        grid = rmac_regions(1, 1, 3)
        assert grid.regions == [(0, 0, 1), (0, 0, 1), (0, 0, 1)]

    def test_full_cover_single_scale(self):
        grid = rmac_regions(8, 8, 1)
        assert grid.regions == [(0, 0, 8)]

    def test_matches_rational_reference(self):
        assert rmac_regions(12, 8, 3).regions == reference_regions(12, 8, 3)

    def test_matches_rational_reference_many_shapes(self):
        stream = SeededStream(37)
        for _ in range(50):
            w = int(stream.integers(1, 40))
            h = int(stream.integers(1, 40))
            scales = int(stream.integers(1, 5))
            assert rmac_regions(w, h, scales).regions == \
                reference_regions(w, h, scales)

    def test_regions_inside_and_touching_edges(self):
        for w, h in [(12, 8), (5, 30), (7, 7)]:
            grid = rmac_regions(w, h, 3)
            for level in range(1, 4):
                side = max(1, (2 * min(w, h)) // (level + 1))
                xs = sorted({r[0] for r in grid.regions if r[2] == side})
                ys = sorted({r[1] for r in grid.regions if r[2] == side})
                assert xs[0] == 0 and xs[-1] + side == max(w, side)
                assert ys[0] == 0 and ys[-1] + side == max(h, side)
            for x, y, side in grid.regions:
                assert 0 <= x and x + side <= max(w, side)
                assert 0 <= y and y + side <= max(h, side)


def reference_rmac(x, grid, region_transform=None):
    """rmac() as first written: one mac, l2n and vector add per region."""
    x = np.asarray(x)
    k, height, width = x.shape
    acc = None
    for rx, ry, side in grid.regions:
        if rx < 0 or ry < 0 or rx + side > width or ry + side > height:
            raise GridError(
                f"region {(rx, ry, side)} outside {width}x{height} activations")
        v = l2n(mac(x[:, ry:ry + side, rx:rx + side]).astype(np.float64))
        if region_transform is not None:
            v = l2n(region_transform(v))
        acc = v.copy() if acc is None else acc + v
    if acc is None:
        raise GridError("empty region grid")
    return l2n(acc).astype(x.dtype)


def _with_nans(s, x):
    """x with about a tenth of its cells set to quiet NaNs of distinct
    payloads and either sign."""
    bits = np.dtype(x.dtype).itemsize * 8
    uint = np.uint32 if bits == 32 else np.uint64
    mantissa = 23 if bits == 32 else 52
    exponent = ((1 << (bits - mantissa - 1)) - 1) << mantissa
    quiet = 1 << (mantissa - 1)
    payload = s.integers(1, quiet, size=x.shape).astype(uint)
    sign = (s.random(size=x.shape) < 0.5).astype(uint) << uint(bits - 1)
    nans = (uint(exponent | quiet) | payload | sign).view(x.dtype)
    return np.where(s.random(size=x.shape) < 0.1, nans, x)


def _rmac_instance(s, dtype, kind):
    """Activations with ties, zero maps, tiny values, all-zero input,
    signed zeros, NaNs, infinities, a cropped view or a degenerate
    extent, over a random extent."""
    # a single map: numpy adds one column of region rows pairwise
    k = 1 if kind == "nans" and s.random() < 0.3 else int(s.integers(1, 40))
    h, w = int(s.integers(1, 14)), int(s.integers(1, 14))
    if kind == "one_cell":
        h = w = 1
    elif kind == "non_square":
        h, w = sorted((int(s.integers(1, 4)), int(s.integers(6, 14))),
                      key=lambda _: s.random())
    x = s.normal(size=(k, h, w))
    if kind == "ties":
        x = np.round(x * 2.0) / 2.0
    elif kind == "zero_maps":
        # maps that are all zero or all negative have a zero MAC, and a
        # small region may see only such cells
        x = np.maximum(x, 0.0) * (s.random(size=(k, 1, 1)) < 0.5)
        x[:, :h // 2] = -np.abs(x[:, :h // 2])
    elif kind == "tiny":
        # region norms on both sides of l2n's 1e-12 cut-off
        x = x * 10.0 ** -int(s.integers(11, 14))
    elif kind == "zeros":
        x = np.zeros_like(x)
    elif kind == "signed_zeros":
        # region maxima that are zeros of either sign, among them whole
        # maps of -0.0
        x = np.where(s.random(size=x.shape) < 0.5, -0.0, 0.0)
        x[s.random(size=x.shape) < 0.3] = -1.0
        x[s.random(size=(k, 1, 1)).repeat(h, 1).repeat(w, 2) < 0.2] = -0.0
    elif kind == "nans":
        return _with_nans(s, x.astype(dtype))
    elif kind == "infs":
        x[s.random(size=x.shape) < 0.1] = np.inf
        x[s.random(size=x.shape) < 0.1] = -np.inf
    elif kind == "cropped":
        # a view of a larger map, as crop_activations returns it
        big = s.normal(size=(k, h + 5, w + 5)).astype(dtype)
        y0, x0 = int(s.integers(0, 6)), int(s.integers(0, 6))
        return crop_activations(big, (x0, y0, x0 + w, y0 + h), (1, 1, 0.0))
    return x.astype(dtype)


class TestRmac:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["random", "ties", "zero_maps", "tiny",
                                      "zeros", "signed_zeros", "nans",
                                      "infs", "cropped", "one_cell",
                                      "non_square"])
    @pytest.mark.parametrize("transform", [None, "square", "reducing"])
    def test_bit_equal_to_region_loop(self, transform, kind, dtype):
        s = SeededStream(20161024).derive(transform or "none", kind,
                                          np.dtype(dtype).name)
        for trial in range(20):
            t = s.derive(trial)
            x = _rmac_instance(t, dtype, kind)
            k = x.shape[0]
            region_transform = None
            if transform is not None:
                d = k if transform == "square" else int(t.integers(1, k + 1))
                matrix, mean = t.normal(size=(k, d)), t.normal(size=k)
                region_transform = lambda v: matrix.T @ (v - mean)  # noqa: E731
            for scales in (1, 2, 3):
                grid = rmac_regions(x.shape[2], x.shape[1], scales)
                # inf / inf and inf - inf make NaNs, on both sides alike
                with np.errstate(invalid="ignore", over="ignore"):
                    got = rmac(x, grid, region_transform)
                    want = reference_rmac(x, grid, region_transform)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_single_region_equals_mac(self):
        x = np.abs(SeededStream(38).normal(size=(8, 6, 6)))
        grid = RegionGrid(1, [(0, 0, 6)])
        np.testing.assert_allclose(rmac(x, grid), l2n(mac(x)), atol=1e-12)

    def test_constant_tensor_symmetry(self):
        x = np.tile(np.linspace(0.1, 1.0, 8).reshape(8, 1, 1), (1, 9, 9))
        grid = rmac_regions(9, 9, 3)
        region_vec = l2n(mac(x[:, :1, :1]))
        np.testing.assert_allclose(rmac(x, grid), region_vec, atol=1e-12)

    def test_matches_compositional_oracle(self):
        x = SeededStream(39).normal(size=(8, 10, 7))
        grid = rmac_regions(7, 10, 3)
        acc = np.zeros(8)
        for rx, ry, side in grid.regions:
            acc = acc + l2n(mac(x[:, ry:ry + side, rx:rx + side]))
        np.testing.assert_allclose(rmac(x, grid), l2n(acc), atol=1e-12)

    def test_region_transform_applied_before_aggregation(self):
        s = SeededStream(40)
        x = s.normal(size=(6, 8, 8))
        grid = rmac_regions(8, 8, 2)
        matrix = s.normal(size=(6, 6))
        mean = s.normal(size=6)
        acc = np.zeros(6)
        for rx, ry, side in grid.regions:
            v = l2n(mac(x[:, ry:ry + side, rx:rx + side]))
            acc = acc + l2n(matrix.T @ (v - mean))
        np.testing.assert_allclose(
            rmac(x, grid, lambda v: matrix.T @ (v - mean)), l2n(acc),
            atol=1e-12)

    def test_out_of_bounds_region(self):
        x = np.ones((2, 4, 4))
        with pytest.raises(GridError):
            rmac(x, RegionGrid(1, [(1, 0, 4)]))


class TestReceptiveGeometry:
    def test_empty_spec(self):
        assert receptive_geometry([]) == (1, 1, 0.0)

    def test_conv_pool_recurrence(self):
        stride, rf, offset = receptive_geometry(
            [conv(3, 8, 5, stride=2, pad=0), maxpool(2, 2)])
        assert (stride, rf) == (4, 7)
        assert offset == 3.0

    def test_padding_balanced_conv(self):
        assert receptive_geometry([conv(3, 8, 3, stride=1, pad=1)]) == (1, 3, 0.0)

    def test_relu_transparent(self):
        with_relu = receptive_geometry([conv(3, 8, 3, pad=1), relu()])
        without = receptive_geometry([conv(3, 8, 3, pad=1)])
        assert with_relu == without

    def test_default_trunk(self):
        # hand-unrolled recurrence for the default trunk
        assert receptive_geometry(tiny_spec()) == (8, 35, 3.0)


class TestCropActivations:
    def test_full_image_is_identity(self):
        x = SeededStream(41).normal(size=(4, 12, 12))
        out = crop_activations(x, BBox(0, 0, 96, 96), (8, 35, 3.0))
        np.testing.assert_array_equal(out, x)

    def test_center_rule_example(self):
        x = np.arange(64, dtype=float).reshape(1, 8, 8)
        out = crop_activations(x, BBox(8, 8, 16, 16), (4, 1, 0.0))
        np.testing.assert_array_equal(out, x[:, 2:4, 2:4])

    def test_one_pixel_bbox_falls_back_to_nearest(self):
        x = np.arange(32, dtype=float).reshape(2, 4, 4)
        out = crop_activations(x, BBox(9, 5, 10, 6), (4, 1, 0.0))
        np.testing.assert_array_equal(out, x[:, 1:2, 2:3])

    def test_fallback_tie_picks_lower_cell(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        # centers at 0,4,8,12; bbox midpoint 2 is equidistant from 0 and 4
        out = crop_activations(x, BBox(1, 1, 3, 3), (4, 1, 0.0))
        np.testing.assert_array_equal(out, x[:, 0:1, 0:1])


class TestTopContributions:
    def test_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert top_contributions(a, b, 2) == [(0, 0.0), (1, 0.0)]

    def test_identical_one_hot(self):
        v = np.zeros(6)
        v[3] = 1.0
        assert top_contributions(v, v, 1) == [(3, 1.0)]

    def test_full_list_matches_sort_oracle(self):
        s = SeededStream(42)
        a = l2n(np.abs(s.normal(size=12)))
        b = l2n(np.abs(s.normal(size=12)))
        got = top_contributions(a, b, 12)
        want = sorted(((k, float(a[k] * b[k])) for k in range(12)),
                      key=lambda kv: (-kv[1], kv[0]))
        assert got == want
        assert abs(sum(c for _, c in got) - similarity(a, b)) < 1e-12

    def test_ties_break_to_lower_index(self):
        a = np.array([0.5, 0.5, 0.5])
        assert top_contributions(a, a, 3) == [(0, 0.25), (1, 0.25), (2, 0.25)]


class TestDescriptorDb:
    def test_roundtrip_and_sorted_output(self, tmp_path):
        s = SeededStream(43)
        db = {
            "zebra": l2n(np.abs(s.normal(size=8))).astype(np.float32),
            "aardvark": l2n(np.abs(s.normal(size=8))).astype(np.float32),
            "münster/07.ppm": l2n(np.abs(s.normal(size=8))).astype(np.float32),
        }
        path = tmp_path / "desc.macd"
        save_descriptors(path, db)
        loaded = load_descriptors(path)
        assert list(loaded) == sorted(db)
        for name, vec in db.items():
            np.testing.assert_array_equal(loaded[name], vec)

    def test_rewrite_byte_identical(self, tmp_path):
        db = {"b": np.ones(4, np.float32), "a": np.zeros(4, np.float32)}
        p1, p2 = tmp_path / "x.macd", tmp_path / "y.macd"
        save_descriptors(p1, db)
        save_descriptors(p2, dict(reversed(list(db.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_db(self, tmp_path):
        path = tmp_path / "empty.macd"
        save_descriptors(path, {})
        assert load_descriptors(path) == {}

    def test_zero_length_vectors_rejected_on_save(self, tmp_path):
        path = tmp_path / "empty.macd"
        with pytest.raises(DimensionError, match="'a' has length 0"):
            save_descriptors(path, {"b": np.zeros(0), "a": np.zeros(0)})
        assert not path.exists()

    def test_dim_mismatch_on_save(self, tmp_path):
        with pytest.raises(DimensionError):
            save_descriptors(tmp_path / "bad.macd",
                             {"a": np.ones(4), "b": np.ones(5)})

    def test_malformed_files(self, tmp_path):
        path = tmp_path / "bad.macd"
        path.write_bytes(b"WRNG" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_descriptors(path)
        good = tmp_path / "good.macd"
        save_descriptors(good, {"a": np.ones(4, np.float32)})
        data = good.read_bytes()
        trunc = tmp_path / "trunc.macd"
        trunc.write_bytes(data[:-3])
        with pytest.raises(FormatError):
            load_descriptors(trunc)
        trail = tmp_path / "trail.macd"
        trail.write_bytes(data + b"\x01")
        with pytest.raises(FormatError):
            load_descriptors(trail)
        # a large declared dim or id length is checked against the bytes
        # left before it is read: header magic, version, count, then dim
        claims = tmp_path / "claims.macd"
        for offset, what in ((16, "record 0 values"), (20, "record 0 id")):
            claims.write_bytes(data[:offset] + (2 ** 24).to_bytes(4, "little")
                               + data[offset + 4:])
            with pytest.raises(FormatError, match=f"for {what}, .* left"):
                load_descriptors(claims)
