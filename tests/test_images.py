"""Tests for PPM files and bilinear resizing."""

import numpy as np
import pytest

from macforge.images import read_ppm, resize_max_side, write_ppm
from macforge.ioutil import FormatError
from macforge.numeric import DimensionError, SeededStream


class TestPpmRoundTrip:
    def test_quantized_values_survive(self, tmp_path):
        stream = SeededStream(50)
        levels = stream.integers(0, 256, size=(3, 5, 7))
        image = levels.astype(np.float32) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, image)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((3, 3, 4), dtype=np.float32))
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n4 3\n255\n")
        assert len(blob) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3

    def test_rewrite_is_byte_identical(self, tmp_path):
        stream = SeededStream(51)
        image = stream.random((3, 8, 8)).astype(np.float32)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(p1, image)
        write_ppm(p2, read_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_values_clip(self, tmp_path):
        image = np.array([[[-0.5]], [[2.0]], [[0.5]]])
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_ppm(path)
        np.testing.assert_allclose(back[:, 0, 0], [0.0, 1.0, 128 / 255])

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        image = read_ppm(path)
        assert image.shape == (3, 1, 2)
        np.testing.assert_array_equal(image, 0.0)

    def test_malformed_files(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_ppm(path)
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(path)
        # a large declared size is checked before the pixels are read
        path.write_bytes(b"P6\n4096 4096\n255\n" + bytes(12))
        with pytest.raises(FormatError, match="12 left"):
            read_ppm(path)
        path.write_bytes(b"P6\n1 1\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="trailing"):
            read_ppm(path)
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(path)
        path.write_bytes(b"P6\nx 1\n255\n")
        with pytest.raises(FormatError):
            read_ppm(path)
        path.write_bytes(b"P6\n0 1\n255\n")
        with pytest.raises(FormatError):
            read_ppm(path)

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            write_ppm(tmp_path / "x.ppm", np.zeros((1, 4, 4)))


class TestResize:
    def test_small_image_passes_through(self):
        image = np.ones((3, 10, 20), dtype=np.float32)
        out = resize_max_side(image, 20)
        assert out is image

    def test_shrink_preserves_aspect(self):
        image = np.ones((3, 50, 100), dtype=np.float32)
        out = resize_max_side(image, 50)
        assert out.shape == (3, 25, 50)
        out = resize_max_side(np.ones((3, 100, 50)), 10)
        assert out.shape == (3, 10, 5)

    def test_constant_image_stays_constant(self):
        image = np.full((3, 30, 40), 0.25, dtype=np.float32)
        out = resize_max_side(image, 16)
        np.testing.assert_allclose(out, 0.25, atol=1e-7)

    def test_linear_ramp_midpoints(self):
        # halving [0,1,2,3] with center-aligned sampling averages pairs
        image = np.arange(4.0).reshape(1, 1, 4)
        out = resize_max_side(image, 2)
        np.testing.assert_allclose(out[0, 0], [0.5, 2.5])

    def test_range_preserved(self):
        stream = SeededStream(52)
        image = stream.random((3, 33, 47))
        out = resize_max_side(image, 20)
        assert out.min() >= image.min() - 1e-12
        assert out.max() <= image.max() + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            resize_max_side(np.ones((3, 4, 4)), 0)
        with pytest.raises(DimensionError):
            resize_max_side(np.ones((4, 4)), 2)
