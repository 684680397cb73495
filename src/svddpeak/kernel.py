"""Kernel evaluation and kernel-matrix construction.

The one kernel is the Gaussian ``exp(-||a - b||^2 / (2 s^2))`` with
bandwidth ``s``. Every squared distance of the package comes from
``squared_distances``, as a sum of squared coordinate differences, never
the dot-product expansion, which cancels on nearby points. The sums run
in one compiled pass (``_native.sqdist``, ``svdd_sqdist`` in ``_native.c``)
when the library loads, else in the numpy loop
``_numpy_squared_distances``; both round alike, so they give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import DegenerateInputError, DimensionError, InputError

GAUSSIAN = "gaussian"

# rows per block in nearest_distances: 1024 points against the 2001-point
# banana arc is two 16 MB blocks
_NEAREST_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class KernelSpec:
    """The Gaussian kernel at bandwidth ``s``; ``kind`` admits only
    ``GAUSSIAN``."""

    kind: str = GAUSSIAN
    s: float = 1.0

    def __post_init__(self):
        if self.kind != GAUSSIAN:
            raise InputError(f"unknown kernel kind {self.kind!r}: only {GAUSSIAN!r} is supported")
        if self.s is None or not np.isfinite(self.s) or self.s <= 0:
            raise InputError(f"gaussian bandwidth must be a positive real, got {self.s!r}")
        # kernel entries divide by -2 s^2: it must neither underflow to 0
        # (0/0 on the diagonal) nor overflow
        if not 0.0 < 2.0 * self.s * self.s < np.inf:
            raise InputError(f"gaussian bandwidth {self.s!r} is out of range: 2 s^2 "
                             "must be a positive finite number")


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


def squared_distances(A, B) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B, summed
    one coordinate at a time in coordinate order, as a per-pair loop would.
    For B = A the result is exactly symmetric with a zero diagonal. A
    distance past the float range is inf, silently: its Gaussian kernel
    value, 0, is the right one. A and B are 2-D of one width; a view that
    is not C-contiguous float64 rows, such as a column slice, is copied."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    return (_native.sqdist() or _numpy_squared_distances)(A, B)


def _numpy_squared_distances(A, B) -> np.ndarray:
    """The twin of the compiled ``svdd_sqdist``, with its roundings: the
    first difference squared, then each later one squared and added, one
    coordinate (one numpy pass over the block) at a time."""
    with np.errstate(over="ignore"):
        out = np.subtract(A[:, 0, None], B[None, :, 0])
        out *= out
        diff = np.empty_like(out)
        for k in range(1, A.shape[1]):
            np.subtract(A[:, k, None], B[None, :, k], out=diff)
            diff *= diff
            out += diff
    return out


def nearest_distances(points, targets) -> np.ndarray:
    """Euclidean distance from each row of ``points`` to its nearest row of
    ``targets``, ``_NEAREST_BLOCK_ROWS`` points at a time, so memory is one
    block times the target count."""
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _NEAREST_BLOCK_ROWS):
        block = points[start:start + _NEAREST_BLOCK_ROWS]
        out[start:start + block.shape[0]] = squared_distances(block, targets).min(axis=1)
    return np.sqrt(out, out=out)


def neighbor_extremes(X) -> tuple:
    """(nearest, farthest): the squared distance from each row of X to its
    nearest other row (inf for a lone row) and to its farthest row, in
    blocks of rows as ``nearest_distances`` takes them, with no n x n
    matrix; each block holds the bits of those rows of the whole one."""
    nearest, farthest = np.empty(X.shape[0]), np.empty(X.shape[0])
    for start in range(0, X.shape[0], _NEAREST_BLOCK_ROWS):
        block = squared_distances(X[start:start + _NEAREST_BLOCK_ROWS], X)
        rows = start + np.arange(block.shape[0])
        # the zero diagonal is no larger than any other squared distance
        farthest[rows] = block.max(axis=1)
        block[rows - start, rows] = np.inf
        nearest[rows] = block.min(axis=1)
        del block  # before the next block's two arrays are allocated
    return nearest, farthest


def upper_triangle_distances(X) -> np.ndarray:
    """The squared distances of the row pairs i < j of X in the order of
    ``np.triu_indices(n, 1)``, from blocks of rows as ``neighbor_extremes``
    takes them, with no n x n matrix: the bits of the whole one."""
    n = X.shape[0]
    size = n * (n - 1) // 2
    out = allocate(lambda: np.empty(size), n, size, "the distance triangle")
    at = 0
    for start in range(0, n, _NEAREST_BLOCK_ROWS):
        # row r against the rows after the block's first: its part of the
        # triangle starts at column r - start
        block = squared_distances(X[start:start + _NEAREST_BLOCK_ROWS], X[start + 1:])
        for k, row in enumerate(block):
            out[at:at + row.size - k] = row[k:]
            at += row.size - k
        del block
    return out


def allocate(make, n, entries, what) -> np.ndarray:
    """``make()``, which allocates ``what``: ``entries`` doubles, a number
    that grows with the square of the row count ``n``. When the host
    refuses the memory, InputError names n and the GiB, in place of
    numpy's MemoryError."""
    try:
        return make()
    except MemoryError:
        raise InputError(f"{what} of {n} rows needs {entries * 8 / 2**30:.1f} GiB, "
                         "more memory than the host could allocate") from None


def require_spread(X) -> None:
    """DegenerateInputError when every squared distance between rows of the
    data matrix X is 0: no bandwidth is better than another for data
    without a distance. That is when every column's range squares to 0:
    the difference of two entries of a column is at most its range, and
    the range is one such difference. The check of every bandwidth
    selector, made before any kernel entry is computed."""
    with np.errstate(over="ignore"):
        spread = X.max(axis=0) - X.min(axis=0)
        if (spread * spread).any():
            return
    raise DegenerateInputError("every squared distance between observations underflows to 0"
                               if spread.any() else "all observations coincide")


def _gaussian(sq, s, out=None) -> np.ndarray:
    """exp(sq / (-2 s^2)) elementwise, the one place the Gaussian kernel is
    computed: into ``out`` (``sq`` itself may be given), else a new array.
    A quotient past the float range (a tiny ``s``) is -inf, whose entry 0
    is right, so its overflow warning is not raised."""
    with np.errstate(over="ignore"):
        K = np.divide(sq, -2.0 * s * s, out=out)
    return np.exp(K, out=K)


def squared_distance_matrix(X) -> np.ndarray:
    """All pairwise squared Euclidean distances, zero diagonal."""
    X = as_data_matrix(X)
    return squared_distances(X, X)


def kernel_matrix_from_sq(sq_dists: np.ndarray, s: float) -> np.ndarray:
    """Gaussian kernel matrix from a precomputed squared-distance matrix.

    Reuses one distance computation across a bandwidth sweep. The diagonal
    is exactly 1 because the diagonal of ``sq_dists`` is exactly 0. The
    result is the one array allocated; ``sq_dists`` is left unchanged.
    """
    return _gaussian(sq_dists, s)


def kernel_matrix(X, spec: KernelSpec) -> np.ndarray:
    """Full n-by-n kernel matrix of the rows of X (dense, symmetric). Its
    entries are exp of a non-positive number or -inf (``KernelSpec`` keeps
    2 s^2 positive and finite), so they lie in [0, 1]."""
    return kernel_matrix_from_sq(squared_distance_matrix(X), spec.s)


def cross_kernel(Z, X, spec: KernelSpec) -> np.ndarray:
    """Rectangular kernel matrix K[i, j] = k(Z[i], X[j])."""
    Z = as_data_matrix(Z, name="Z")
    X = as_data_matrix(X)
    if Z.shape[1] != X.shape[1]:
        raise DimensionError(
            f"scoring rows have {Z.shape[1]} feature(s), training rows have {X.shape[1]}"
        )
    K = squared_distances(Z, X)
    return _gaussian(K, spec.s, out=K)
