"""Tests for discriminative and PCA whitening projections."""

import struct

import numpy as np
import pytest

from macforge.ioutil import FormatError
from macforge.numeric import DimensionError, SeededStream
from macforge.whitening import (
    KIND_LW,
    KIND_PCAW,
    ProjectionModel,
    apply_projection,
    fit_lw,
    fit_pcaw,
    load_projection,
    save_projection,
)

ZERO2 = np.zeros(2)


def pairs_from_diffs(diffs):
    return [(np.asarray(d, dtype=np.float64), np.zeros(len(d))) for d in diffs]


def assert_columns_match_up_to_sign(got, expected, atol=1e-10):
    assert got.shape == expected.shape
    for j in range(got.shape[1]):
        same = np.allclose(got[:, j], expected[:, j], atol=atol)
        flipped = np.allclose(got[:, j], -expected[:, j], atol=atol)
        assert same or flipped, f"column {j}: {got[:, j]} vs {expected[:, j]}"


def random_pair_sets(stream, k, n_match, n_diff):
    def unit_rows(s, n):
        m = s.normal(size=(n, k))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    anchors = unit_rows(stream.derive("anchor"), n_match)
    mates = unit_rows(stream.derive("mate"), n_match)
    matching = [(a, (a + 0.2 * b) / np.linalg.norm(a + 0.2 * b))
                for a, b in zip(anchors, mates)]
    left = unit_rows(stream.derive("left"), n_diff)
    right = unit_rows(stream.derive("right"), n_diff)
    nonmatching = list(zip(left, right))
    mean_source = unit_rows(stream.derive("mean"), 3 * k)
    return matching, nonmatching, mean_source


class TestFitLw:
    def test_hand_example(self):
        # matching diffs (2,0),(0,1) -> C_S = diag(4,1), whitening diag(0.5,1)
        # non-matching diff (0,3) -> whitened C_D = diag(0,9), axes swap
        model = fit_lw(pairs_from_diffs([(2, 0), (0, 1)]),
                       pairs_from_diffs([(0, 3)]),
                       [ZERO2])
        assert model.kind == KIND_LW
        assert_columns_match_up_to_sign(
            model.projection, np.array([[0.0, 0.5], [1.0, 0.0]]))
        np.testing.assert_allclose(model.spectrum, [9.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(model.mean, ZERO2)

    def test_mean_comes_from_mean_source(self):
        model = fit_lw(pairs_from_diffs([(2, 0), (0, 1)]),
                       pairs_from_diffs([(0, 3)]),
                       [np.array([1.0, 0.0]), np.array([0.0, 3.0])])
        np.testing.assert_allclose(model.mean, [0.5, 1.5])

    def test_isotropic_gives_scaled_rotation(self):
        model = fit_lw(pairs_from_diffs([(2, 0), (0, 2)]),
                       pairs_from_diffs([(3, 0), (0, 3)]),
                       [ZERO2])
        p = model.projection
        np.testing.assert_allclose(p @ p.T, 0.25 * np.eye(2), atol=1e-12)
        c_s = 4.0 * np.eye(2)
        np.testing.assert_allclose(p.T @ c_s @ p, np.eye(2), atol=1e-12)

    def test_algebraic_identities_random(self):
        for seed in (11, 12, 13):
            k = 16
            stream = SeededStream(seed)
            matching, nonmatching, mean_source = random_pair_sets(
                stream, k, 12 * k, 12 * k)
            model = fit_lw(matching, nonmatching, mean_source)
            d_s = np.asarray([a - b for a, b in matching])
            d_d = np.asarray([a - b for a, b in nonmatching])
            c_s = d_s.T @ d_s
            c_d = d_d.T @ d_d
            p = model.projection
            scale_s = np.linalg.norm(c_s)
            assert np.max(np.abs(p.T @ c_s @ p - np.eye(k))) < 1e-8 * scale_s
            rotated = p.T @ c_d @ p
            off = rotated - np.diag(np.diag(rotated))
            assert np.max(np.abs(off)) < 1e-8 * max(1.0, np.linalg.norm(c_d))
            diag = np.diag(rotated)
            assert np.all(np.diff(diag) <= 1e-8 * max(1.0, diag[0]))
            np.testing.assert_allclose(diag, model.spectrum,
                                       atol=1e-8 * max(1.0, diag[0]))

    def test_rank_deficient_warns_and_projects_onto_support(self):
        k = 8
        stream = SeededStream(14)
        matching, nonmatching, mean_source = random_pair_sets(
            stream, k, 3, 10 * k)
        with pytest.warns(RuntimeWarning, match="rank"):
            model = fit_lw(matching, nonmatching, mean_source)
        d_s = np.asarray([a - b for a, b in matching])
        c_s = d_s.T @ d_s
        a = model.projection.T @ c_s @ model.projection
        # projection of C_S is idempotent: identity on the rank support
        np.testing.assert_allclose(a @ a, a, atol=1e-8)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            fit_lw([], pairs_from_diffs([(0, 3)]), [ZERO2])
        with pytest.raises(ValueError):
            fit_lw(pairs_from_diffs([(2, 0)]), [], [ZERO2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            fit_lw(pairs_from_diffs([(2, 0)]),
                   pairs_from_diffs([(0, 3, 1)]), [ZERO2])
        with pytest.raises(DimensionError):
            fit_lw(pairs_from_diffs([(2, 0)]),
                   pairs_from_diffs([(0, 3)]), [np.zeros(5)])


class TestFitPcaw:
    def test_diagonal_scatter(self):
        r2 = np.sqrt(2.0)
        vectors = [(r2, 0.0), (-r2, 0.0),
                   (0.0, 1 / r2), (0.0, -1 / r2)]
        model = fit_pcaw(vectors)
        assert model.kind == KIND_PCAW
        np.testing.assert_allclose(model.mean, 0.0, atol=1e-15)
        assert_columns_match_up_to_sign(
            model.projection, np.diag([0.5, 1.0]))
        np.testing.assert_allclose(model.spectrum, [4.0, 1.0])

    def test_antipodal_pair(self):
        v = np.array([3.0, 0.0, 4.0])
        model = fit_pcaw([v, -v])
        np.testing.assert_allclose(model.mean, 0.0, atol=1e-15)
        col = model.projection[:, 0]
        cosine = col @ v / (np.linalg.norm(col) * np.linalg.norm(v))
        assert abs(cosine) == pytest.approx(1.0)
        np.testing.assert_allclose(model.projection[:, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(model.spectrum[0], 2 * 25.0)

    def test_identical_vectors_rank_zero(self):
        v = np.ones(4)
        with pytest.warns(RuntimeWarning, match="rank 0"):
            model = fit_pcaw([v, v, v])
        np.testing.assert_array_equal(model.projection, 0.0)

    def test_projected_scatter_is_identity(self):
        stream = SeededStream(15)
        arr = stream.normal(size=(100, 8)) @ np.diag(
            [5, 4, 3, 2, 1, 0.5, 0.1, 0.01]) + stream.normal(size=8)
        model = fit_pcaw(arr)
        projected = (arr - model.mean) @ model.projection
        np.testing.assert_allclose(projected.T @ projected, np.eye(8),
                                   atol=1e-8)

    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            fit_pcaw([np.ones(3)])


class TestApplyProjection:
    def identity_model(self, k=3):
        return ProjectionModel(KIND_PCAW, np.zeros(k), np.eye(k),
                               np.ones(k))

    def test_identity_returns_input(self):
        v = np.array([0.6, 0.0, 0.8])
        np.testing.assert_allclose(
            apply_projection(self.identity_model(), v, 3), v)

    def test_hand_projection(self):
        model = fit_lw(pairs_from_diffs([(2, 0), (0, 1)]),
                       pairs_from_diffs([(0, 3)]),
                       [ZERO2])
        out = apply_projection(model, np.array([1.0, 0.0]), 2)
        np.testing.assert_allclose(np.abs(out), [0.0, 1.0], atol=1e-12)

    def test_one_dimensional_output(self):
        model = self.identity_model()
        out = apply_projection(model, np.array([0.0, -0.4, 0.3]), 1)
        assert out.shape == (1,)
        assert out[0] == 0.0  # first coordinate is zero, annihilated
        out = apply_projection(model, np.array([-0.5, 0.0, 0.0]), 1)
        np.testing.assert_array_equal(out, [-1.0])

    def test_output_is_unit_norm(self):
        stream = SeededStream(16)
        arr = stream.normal(size=(40, 6))
        model = fit_pcaw(arr)
        for d in (1, 3, 6):
            for row in arr[:5]:
                out = apply_projection(model, row, d)
                assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_annihilated_input_gives_zero(self):
        v = np.array([1.0, 2.0])
        model = fit_pcaw([v, -v])
        orth = np.array([-2.0, 1.0])
        np.testing.assert_array_equal(
            apply_projection(model, orth, 2), np.zeros(2))

    def test_reduction_nesting(self):
        stream = SeededStream(17)
        arr = stream.normal(size=(30, 5))
        model = fit_pcaw(arr)
        v = arr[0]
        centered = v - model.mean
        for d in range(1, 5):
            small = model.projection[:, :d].T @ centered
            big = model.projection[:, :d + 1].T @ centered
            np.testing.assert_array_equal(big[:d], small)

    def test_dimension_out_of_range(self):
        model = self.identity_model()
        for d in (0, 4):
            with pytest.raises(DimensionError):
                apply_projection(model, np.zeros(3), d)
        with pytest.raises(DimensionError):
            apply_projection(model, np.zeros(4), 2)


class TestProjectionModelValidation:
    def test_increasing_spectrum_rejected(self):
        with pytest.raises(ValueError):
            ProjectionModel(KIND_LW, np.zeros(2), np.eye(2),
                            np.array([1.0, 2.0]))

    def test_nonfinite_rejected(self):
        p = np.eye(2)
        p[0, 0] = np.nan
        with pytest.raises(ValueError):
            ProjectionModel(KIND_LW, np.zeros(2), p, np.zeros(2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProjectionModel("zca", np.zeros(2), np.eye(2), np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ProjectionModel(KIND_LW, np.zeros(2), np.eye(3), np.zeros(2))


class TestProjectionFile:
    def fitted_models(self):
        stream = SeededStream(18)
        matching, nonmatching, mean_source = random_pair_sets(
            stream, 6, 80, 80)
        lw = fit_lw(matching, nonmatching, mean_source)
        pcaw = fit_pcaw(stream.normal(size=(50, 6)))
        return lw, pcaw

    def test_roundtrip_exact(self, tmp_path):
        for model in self.fitted_models():
            path = tmp_path / f"{model.kind}.mfpw"
            save_projection(path, model)
            back = load_projection(path)
            assert back.kind == model.kind
            np.testing.assert_array_equal(back.mean, model.mean)
            np.testing.assert_array_equal(back.projection, model.projection)
            np.testing.assert_array_equal(back.spectrum, model.spectrum)

    def test_rewrite_is_byte_identical(self, tmp_path):
        model = self.fitted_models()[0]
        p1, p2 = tmp_path / "a.mfpw", tmp_path / "b.mfpw"
        save_projection(p1, model)
        save_projection(p2, load_projection(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matrix_stored_column_major(self, tmp_path):
        proj = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = ProjectionModel(KIND_PCAW, np.zeros(2), proj,
                                np.array([2.0, 1.0]))
        path = tmp_path / "m.mfpw"
        save_projection(path, model)
        blob = path.read_bytes()
        offset = 4 + 4 + 1 + 4 + 2 * 8  # magic, version, kind, dim, mean
        values = struct.unpack("<4d", blob[offset:offset + 32])
        assert values == (1.0, 3.0, 2.0, 4.0)  # columns contiguous

    def test_malformed_files(self, tmp_path):
        model = self.fitted_models()[0]
        good = tmp_path / "good.mfpw"
        save_projection(good, model)
        blob = good.read_bytes()

        bad = tmp_path / "bad.mfpw"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError):
            load_projection(bad)

        bad.write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            load_projection(bad)

        bad.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError):
            load_projection(bad)

        kind_byte = 4 + 4
        bad.write_bytes(blob[:kind_byte] + b"\x07" + blob[kind_byte + 1:])
        with pytest.raises(FormatError, match="kind"):
            load_projection(bad)

    def test_nonfinite_payload_rejected(self, tmp_path):
        model = self.fitted_models()[0]
        good = tmp_path / "good.mfpw"
        save_projection(good, model)
        blob = bytearray(good.read_bytes())
        offset = 4 + 4 + 1 + 4
        blob[offset:offset + 8] = struct.pack("<d", np.nan)
        bad = tmp_path / "nan.mfpw"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_projection(bad)
