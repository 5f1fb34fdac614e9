"""Deterministic numeric kernels: seeded random streams and symmetric eigen-math.

Everything here is pure. The random streams are platform-stable: they are
counter-based (Philox), so a (seed, stream_id) pair names the same sequence
on any machine. The eigensolver is LAPACK's, so its last bits are fixed by
the numpy/LAPACK build rather than by the input alone.
"""

from __future__ import annotations

import hashlib

import numpy as np


class DimensionError(ValueError):
    """Matrix has the wrong shape for the requested operation."""


class SymmetryError(ValueError):
    """Matrix is not symmetric within tolerance."""


class NotPSDError(ValueError):
    """Matrix has a negative eigenvalue beyond the PSD tolerance."""


# ---------------------------------------------------------------------------
# Seeded random streams
# ---------------------------------------------------------------------------


class SeededStream:
    """Counter-based random stream identified by (seed, stream_id).

    Streams are value-like: construct one per logical consumer and derive
    sub-streams with :meth:`derive` instead of sharing a stream across
    threads. Identical (seed, stream_id) pairs produce identical draws on
    every platform.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(
            np.random.Philox(key=[self.seed, self.stream_id])
        )

    def derive(self, *labels) -> "SeededStream":
        """Split off an independent sub-stream named by `labels`.

        Labels may be strings or integers; the derivation is a stable hash,
        so e.g. ``stream.derive("epoch", 3)`` names the same sub-stream in
        every run.
        """
        h = hashlib.sha256()
        h.update(f"{self.seed}:{self.stream_id}".encode())
        for label in labels:
            h.update(b"/")
            h.update(str(label).encode())
        digest = h.digest()
        seed = int.from_bytes(digest[:8], "little")
        stream_id = int.from_bytes(digest[8:16], "little")
        return SeededStream(seed, stream_id)

    # Thin delegations; `random` defines the stream's canonical draw order.

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, x):
        return self._gen.permutation(x)

    def __repr__(self):
        return f"SeededStream(seed={self.seed}, stream_id={self.stream_id})"


# ---------------------------------------------------------------------------
# Symmetric eigendecomposition
# ---------------------------------------------------------------------------


def _check_symmetric(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > tol * scale:
        raise SymmetryError("matrix is not symmetric within 1e-9 relative")
    return a


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK via np.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    (stable: ties keep LAPACK's order) and eigenvectors as orthonormal
    columns. The sign of each column is fixed so its largest-magnitude
    entry is positive, so the output depends only on the input and the
    numpy/LAPACK build.
    """
    a = _check_symmetric(a)
    if a.shape[0] == 0:
        return np.empty(0), np.empty((0, 0))
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # argmax picks the lowest index on ties
    rows = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[rows, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return vals, vecs


RCOND = 1e-10  # eigenvalues at or below RCOND * lambda_max count as zero


def psd_spectrum(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors, lambda^{-1/2}) of a symmetric PSD matrix.

    The eigenpairs are sym_eig's; lambda^{-1/2} is zero at or below the
    RCOND cut-off. An eigenvalue below -RCOND * lambda_max is NotPSDError.
    """
    vals, vecs = sym_eig(a)
    cutoff = RCOND * vals.max(initial=0.0)
    if vals.min(initial=0.0) < -cutoff:
        raise NotPSDError(
            f"eigenvalue {vals[-1]:.3e} below -RCOND*lambda_max ({-cutoff:.3e})"
        )
    inv = np.zeros_like(vals)
    keep = vals > cutoff
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    return vals, vecs, inv


def inv_sqrt_psd(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(B, rank): the inverse square root of a symmetric PSD matrix.

    On a rank-deficient input B is the pseudo-inverse square root on the
    numerical range: psd_spectrum's cut-off decides the rank.
    """
    _, vecs, inv = psd_spectrum(a)
    b = (vecs * inv) @ vecs.T
    return (b + b.T) / 2.0, int(np.count_nonzero(inv))
