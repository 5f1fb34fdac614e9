"""Tests for seeded streams and the symmetric eigen-kernels."""

import hashlib

import numpy as np
import pytest
from testkit import central_difference

from macforge.numeric import (
    DimensionError,
    NotPSDError,
    SeededStream,
    SymmetryError,
    inv_sqrt_psd,
    sym_eig,
)

# Golden record for the canonical draw sequence of (seed=20160825, id=7),
# frozen from the first run of the implementation. Guards against any
# platform or dependency change silently altering the streams.
GOLDEN_FIRST8 = [
    0.26228718927469574,
    0.5873841162913385,
    0.01765973627469053,
    0.4702587342241853,
    0.39826292698510646,
    0.03303994245718189,
    0.22936981304164739,
    0.24160965827508818,
]
GOLDEN_SHA256 = "1ff8a2ed3c0ef5c4f96b8debd793a471b9ce9c5a87011c968c83195a0577232b"


class TestSeededStream:
    def test_golden_sequence(self):
        draws = SeededStream(20160825, 7).random(10_000)
        np.testing.assert_array_equal(draws[:8], GOLDEN_FIRST8)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_SHA256

    def test_same_key_same_sequence(self):
        a = SeededStream(99, 3).random(1000)
        b = SeededStream(99, 3).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_id_differs(self):
        a = SeededStream(99, 3).random(100)
        b = SeededStream(99, 4).random(100)
        assert not np.array_equal(a, b)

    def test_derive_is_stable_and_independent(self):
        root = SeededStream(7)
        d1 = root.derive("mining", 0)
        d2 = SeededStream(7).derive("mining", 0)
        assert (d1.seed, d1.stream_id) == (d2.seed, d2.stream_id)
        other = root.derive("mining", 1)
        assert (other.seed, other.stream_id) != (d1.seed, d1.stream_id)

    def test_derive_not_affected_by_draws(self):
        a = SeededStream(7)
        a.random(50)
        assert a.derive("x").seed == SeededStream(7).derive("x").seed

    def test_permutation(self):
        perm = SeededStream(11, 1).permutation(6)
        assert sorted(perm) == list(range(6))


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(3))
        np.testing.assert_array_equal(vals, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(vecs, np.eye(3))

    def test_diagonal(self):
        vals, vecs = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(vals, [3.0, 1.0])
        np.testing.assert_array_equal(vecs, np.eye(2))

    def test_diagonal_needs_reorder(self):
        vals, vecs = sym_eig(np.diag([1.0, 5.0, 3.0]))
        np.testing.assert_array_equal(vals, [5.0, 3.0, 1.0])
        np.testing.assert_array_equal(vecs[:, 0], [0, 1, 0])
        np.testing.assert_array_equal(vecs[:, 1], [0, 0, 1])

    def test_random_eigen_equation(self):
        # Residual check directly against the defining equation A v = lambda v.
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.normal(size=(8, 8))
            a = (m + m.T) / 2
            vals, vecs = sym_eig(a)
            norm_a = np.linalg.norm(a)
            for i in range(8):
                resid = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
                assert resid <= 1e-8 * norm_a
            assert np.all(np.diff(vals) <= 0)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(12, 12))
        a = m + m.T
        _, vecs = sym_eig(a)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) < 1e-10

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(9, 9))
        a = m + m.T
        vals1, vecs1 = sym_eig(a)
        vals2, vecs2 = sym_eig(a.copy())
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 6))
        _, vecs = sym_eig(m + m.T)
        for j in range(6):
            i = int(np.argmax(np.abs(vecs[:, j])))
            assert vecs[i, j] > 0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestInvSqrtPsd:
    def test_diagonal(self):
        b, _ = inv_sqrt_psd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(b, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_identity(self):
        b, rank = inv_sqrt_psd(np.eye(4))
        np.testing.assert_allclose(b, np.eye(4), atol=1e-12)
        assert rank == 4

    def test_random_psd_multiply_back(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(16, 16))
        a = m @ m.T + 0.5 * np.eye(16)
        b, _ = inv_sqrt_psd(a)
        np.testing.assert_allclose(b @ a @ b, np.eye(16), atol=1e-8)

    def test_result_symmetric(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(8, 8))
        a = m @ m.T
        b, _ = inv_sqrt_psd(a)
        assert np.max(np.abs(b - b.T)) < 1e-10

    def test_rank_deficient_pseudo_inverse(self):
        # Rank-1 PSD matrix: the null space must map to zero, the range to
        # its inverse square root.
        v = np.array([3.0, 4.0])
        a = np.outer(v, v)  # eigenvalue 25 on v/|v|
        b, rank = inv_sqrt_psd(a)
        assert rank == 1
        u = v / 5.0
        np.testing.assert_allclose(b @ u, u / 5.0, atol=1e-10)
        w = np.array([-4.0, 3.0]) / 5.0
        np.testing.assert_allclose(b @ w, 0.0, atol=1e-12)

    def test_not_psd_error(self):
        with pytest.raises(NotPSDError):
            inv_sqrt_psd(np.diag([1.0, -0.5]))


class TestCentralDifference:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        a = m + m.T
        x = rng.normal(size=5)
        fd = central_difference(lambda v: 0.5 * v @ a @ v, x)
        np.testing.assert_allclose(fd, a @ x, atol=1e-9)
