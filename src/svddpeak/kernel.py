"""Kernel evaluation and kernel-matrix construction.

Two kernel families are supported: the Gaussian kernel
``exp(-||a - b||^2 / (2 s^2))`` with bandwidth ``s``, and the plain inner
product (linear kernel). Squared distances are always accumulated as sums
of squared coordinate differences, never through the dot-product
expansion, to avoid cancellation on nearby points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DimensionError, InputError

GAUSSIAN = "gaussian"
LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus the Gaussian bandwidth (ignored for linear)."""

    kind: str = GAUSSIAN
    s: float | None = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, LINEAR):
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == GAUSSIAN:
            if self.s is None or not np.isfinite(self.s) or self.s <= 0:
                raise InputError(f"gaussian bandwidth must be a positive real, got {self.s!r}")


def as_data_matrix(values, min_rows=1, name="X") -> np.ndarray:
    """Validate and return a 2-D float array of shape (n, m), n, m >= 1."""
    X = np.asarray(values, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise InputError(f"{name} must be a 2-D array, got ndim={X.ndim}")
    n, m = X.shape
    if n < min_rows or m < 1:
        raise InputError(f"{name} must have at least {min_rows} row(s) and 1 column, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InputError(f"{name} contains NaN or Inf entries")
    return X


def _as_vector(v, name):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise InputError(f"{name} must be a 1-D vector, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains NaN or Inf entries")
    return a


def kernel_value(a, b, spec: KernelSpec) -> float:
    """Evaluate the kernel for a single pair of feature vectors."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"vectors have different dimensions {a.shape[0]} and {b.shape[0]}")
    if spec.kind == LINEAR:
        return float(a @ b)
    sq = float(np.sum((a - b) ** 2))
    return float(np.exp(-sq / (2.0 * spec.s * spec.s)))


def squared_distance_matrix(X) -> np.ndarray:
    """All pairwise squared Euclidean distances, zero diagonal."""
    X = as_data_matrix(X)
    if X.shape[0] == 1:
        return np.zeros((1, 1))
    return squareform(pdist(X, "sqeuclidean"))


def kernel_matrix_from_sq(sq_dists: np.ndarray, s: float) -> np.ndarray:
    """Gaussian kernel matrix from a precomputed squared-distance matrix.

    Reuses one distance computation across a bandwidth sweep. The diagonal
    is exactly 1 because the diagonal of ``sq_dists`` is exactly 0. The
    result is the one array allocated; ``sq_dists`` is left unchanged.
    """
    K = np.divide(sq_dists, -2.0 * s * s)
    return np.exp(K, out=K)


def kernel_matrix(X, spec: KernelSpec) -> np.ndarray:
    """Full n-by-n kernel matrix of the rows of X (dense, symmetric)."""
    X = as_data_matrix(X)
    if spec.kind == LINEAR:
        K = X @ X.T
        return (K + K.T) / 2.0
    return kernel_matrix_from_sq(squared_distance_matrix(X), spec.s)


def cross_kernel(Z, X, spec: KernelSpec) -> np.ndarray:
    """Rectangular kernel matrix K[i, j] = k(Z[i], X[j])."""
    Z = as_data_matrix(Z, name="Z")
    X = as_data_matrix(X)
    if Z.shape[1] != X.shape[1]:
        raise DimensionError(
            f"scoring rows have {Z.shape[1]} feature(s), training rows have {X.shape[1]}"
        )
    if spec.kind == LINEAR:
        return Z @ X.T
    K = cdist(Z, X, "sqeuclidean")
    np.divide(K, -2.0 * spec.s * spec.s, out=K)
    return np.exp(K, out=K)
