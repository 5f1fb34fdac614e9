"""Descriptor post-processing projections.

Two ways to fit a linear projection on aggregated descriptors:

* ``fit_lw``: discriminative whitening from matching and non-matching
  descriptor pairs. The matching-pair scatter supplies the whitening
  part, the non-matching scatter (in whitened space) the rotation.
* ``fit_pcaw``: plain PCA whitening of a descriptor set.

Both yield a ``ProjectionModel``; ``apply_projection`` is the one way
to apply it: l2n(P[:, :d]^T (v - mean)), so dimensionality reduction is
column truncation before renormalizing.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import ioutil
from .descriptor import l2n
from .ioutil import FormatError
from .numeric import DimensionError, inv_sqrt_psd, psd_spectrum, sym_eig

PROJECTION_MAGIC = b"MFPW"
PROJECTION_VERSION = 1

KIND_LW = "Lw"
KIND_PCAW = "PCAw"
# every projection kind, in the order of its MFPW kind code
KINDS = (KIND_LW, KIND_PCAW)


@dataclass(frozen=True)
class ProjectionModel:
    """Affine whitening projection over K-dimensional descriptors.

    Columns of ``projection`` are ordered by descending ``spectrum``
    value, so truncating to the first d columns keeps the d strongest
    directions. A model is data only: apply it with
    ``apply_projection(model, v, d)``, per region for R-MAC through
    ``functools.partial``. Models are immutable and safe to share across
    threads.
    """

    kind: str
    mean: np.ndarray
    projection: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown projection kind {self.kind!r}")
        mean = np.asarray(self.mean, dtype=np.float64)
        proj = np.asarray(self.projection, dtype=np.float64)
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        if mean.ndim != 1 or mean.shape[0] == 0:
            raise DimensionError("mean must be a non-empty vector")
        k = mean.shape[0]
        if proj.shape != (k, k):
            raise DimensionError(
                f"projection must be {k}x{k}, got {proj.shape}")
        if spectrum.shape != (k,):
            raise DimensionError("spectrum length must match dimension")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(proj))
                and np.all(np.isfinite(spectrum))):
            raise ValueError("projection model must be finite")
        if np.any(np.diff(spectrum) > 0):
            raise ValueError("spectrum must be non-increasing")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self):
        return self.mean.shape[0]


def _pair_diffs(pairs, what):
    if len(pairs) == 0:
        raise ValueError(f"need at least one {what} pair")
    diffs = []
    dim = None
    for a, b in pairs:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape:
            raise DimensionError(f"{what} pair members must be "
                                 "equal-length vectors")
        if dim is None:
            dim = a.shape[0]
        elif a.shape[0] != dim:
            raise DimensionError(f"{what} pairs mix dimensions "
                                 f"{dim} and {a.shape[0]}")
        diffs.append(a - b)
    return np.asarray(diffs)


def _scatter(rows):
    # unnormalized sum of outer products; single fixed-order reduction
    return rows.T @ rows


def _mean_vector(vectors, dim):
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != dim:
        raise DimensionError(
            f"mean source must be a non-empty set of {dim}-vectors")
    return arr.mean(axis=0)


def fit_lw(matching_pairs, nonmatching_pairs, mean_source):
    """Fit discriminative whitening from labeled descriptor pairs.

    The matching-pair scatter C_S is whitened by its inverse square
    root; eigenvectors of the non-matching scatter expressed in that
    whitened space, ordered by descending eigenvalue, complete the
    projection P = C_S^{-1/2} @ rotation. Scatters are unnormalized
    sums; the overall scale cancels under the final l2 normalization.
    """
    d_s = _pair_diffs(matching_pairs, "matching")
    d_d = _pair_diffs(nonmatching_pairs, "non-matching")
    dim = d_s.shape[1]
    if d_d.shape[1] != dim:
        raise DimensionError("matching and non-matching pairs disagree "
                             f"on dimension: {dim} vs {d_d.shape[1]}")
    mu = _mean_vector(mean_source, dim)
    whiten, rank = inv_sqrt_psd(_scatter(d_s))
    if rank < dim:
        warnings.warn(
            f"matching-pair scatter has rank {rank} < {dim}; "
            "using pseudo-inverse square root", RuntimeWarning)
    evals, evecs = sym_eig(whiten @ _scatter(d_d) @ whiten)
    return ProjectionModel(KIND_LW, mu, whiten @ evecs, evals)


def fit_pcaw(vectors):
    """Fit PCA whitening on a descriptor set.

    P = V @ diag(lambda^{-1/2}) with eigenpairs of the unnormalized
    centered scatter in descending order (numeric.psd_spectrum);
    near-zero eigenvalues get zero columns instead of blowing up.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DimensionError("vectors must be a set of equal-length "
                             "1-D descriptors")
    if arr.shape[0] < 2:
        raise ValueError("need at least two vectors")
    mu = arr.mean(axis=0)
    evals, evecs, inv_sqrt = psd_spectrum(_scatter(arr - mu))
    if not np.any(inv_sqrt):
        warnings.warn("descriptor scatter has rank 0; projection is zero",
                      RuntimeWarning)
    return ProjectionModel(KIND_PCAW, mu, evecs * inv_sqrt[None, :], evals)


def apply_projection(model, v, d):
    """Project, truncate to d dimensions, and renormalize.

    Returns the zero vector if the projection annihilates v - mean.
    """
    if not 1 <= d <= model.dim:
        raise DimensionError(f"output dimension {d} out of range "
                             f"1..{model.dim}")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.dim,):
        raise DimensionError(f"descriptor has shape {v.shape}, "
                             f"expected ({model.dim},)")
    return l2n(model.projection[:, :d].T @ (v - model.mean))


def save_projection(path, model):
    """Write a projection model; P is stored column-major."""
    arrays = [ioutil.finite(a, "projection model")
              for a in (model.mean, model.projection.T, model.spectrum)]
    with open(path, "wb") as f:
        ioutil.write_header(f, PROJECTION_MAGIC, PROJECTION_VERSION)
        ioutil.write_u8(f, KINDS.index(model.kind))
        ioutil.write_u32(f, model.dim)
        for a in arrays:
            ioutil.write_array(f, a, "<f8")


def load_projection(path):
    with open(path, "rb") as f:
        ioutil.check_header(f, PROJECTION_MAGIC, PROJECTION_VERSION,
                            "projection file")
        code = ioutil.read_u8(f, "projection kind")
        if code >= len(KINDS):
            raise FormatError(f"unknown projection kind code {code}")
        dim = ioutil.read_u32(f, "projection dimension")
        if dim == 0:
            raise FormatError("projection dimension must be positive")
        mean = ioutil.read_array(f, "<f8", dim, "projection mean")
        proj = ioutil.read_array(f, "<f8", dim * dim, "projection matrix")
        spectrum = ioutil.read_array(f, "<f8", dim, "projection spectrum")
        ioutil.expect_eof(f, "projection file")
    try:
        return ProjectionModel(KINDS[code], mean,
                               proj.reshape(dim, dim).T.copy(), spectrum)
    except ValueError as exc:
        raise FormatError(f"invalid projection file: {exc}") from None
