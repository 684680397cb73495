"""Unsupervised Gaussian bandwidth selectors used as comparison baselines.

Three published single-class heuristics:

* CV: maximize the coefficient of variation Var/(Mean + eps) of the
  off-diagonal kernel entries over a bandwidth grid.
* MD: closed form from the maximum pairwise distance,
  s = d_max / sqrt(-ln delta) with delta = 1 / (n (1 - f) + 1).
* DFN: maximize (2/n) sum_i max_{j != i} k(x_i, x_j)
  - (2/n) sum_i min_{j != i} k(x_i, x_j) over a grid.

Grid methods break ties toward the smallest bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernel import (_gaussian, allocate, as_data_matrix, neighbor_extremes, require_spread,
                     upper_triangle_distances)
from .tuning import BandwidthGrid

CV_EPSILON = 1e-6  # the eps of the CV criterion Var/(Mean + eps)


@dataclass
class BaselineResult:
    s: float
    curve: np.ndarray | None = None  # (k, 2) array of (s, criterion) rows


def _argmax_smallest(scores) -> int:
    # smallest s wins ties; scores within float noise of the maximum are
    # tied (a flat criterion is rarely exactly flat in floats)
    best = float(scores.max())
    tol = 1e-12 * max(1.0, abs(best))
    return int(np.argmax(scores >= best - tol))


def select_cv(X, grid: BandwidthGrid) -> BaselineResult:
    """Bandwidth maximizing the kernel-matrix coefficient of variation.

    Statistics are taken over the n(n-1)/2 distinct off-diagonal entries
    with population variance. Their squared distances are taken from
    blocks of rows, with no n x n matrix.
    """
    X = as_data_matrix(X)
    if X.shape[0] < 3:
        raise InputError("CV selection needs at least 3 observations")
    require_spread(X)
    sq = upper_triangle_distances(X)
    k = allocate(lambda: np.empty_like(sq), X.shape[0], sq.size, "the kernel triangle")
    s_values = grid.values()
    scores = np.empty(s_values.size)
    for i, s in enumerate(s_values):
        _gaussian(sq, s, out=k)
        scores[i] = np.var(k) / (np.mean(k) + CV_EPSILON)
    best = _argmax_smallest(scores)
    return BaselineResult(s=float(s_values[best]), curve=np.column_stack([s_values, scores]))


def select_md(X, f: float = 0.001) -> BaselineResult:
    """Closed-form bandwidth from the maximum pairwise distance, the
    largest of the rows' farthest neighbors."""
    X = as_data_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise InputError("MD selection needs at least 2 observations")
    if not (0.0 < f < 1.0):
        raise InputError(f"outlier fraction f must lie in (0, 1), got {f!r}")
    require_spread(X)
    d_max = float(np.sqrt(neighbor_extremes(X)[1].max()))
    delta = 1.0 / (n * (1.0 - f) + 1.0)
    return BaselineResult(s=d_max / float(np.sqrt(-np.log(delta))))


def select_dfn(X, grid: BandwidthGrid) -> BaselineResult:
    """Bandwidth maximizing the farthest-minus-nearest neighbor criterion.

    The max and min over neighbors both exclude the point itself;
    including the diagonal would pin the min term at k(x, x) = 1. The
    kernel is monotone in the squared distance, so each row's largest
    and smallest entry are the kernel of its nearest and farthest
    neighbor's squared distance, taken once for every ``s`` and without
    an n x n matrix.
    """
    X = as_data_matrix(X)
    n = X.shape[0]
    if n < 3:
        raise InputError("DFN selection needs at least 3 observations")
    require_spread(X)
    nearest, farthest = neighbor_extremes(X)
    s_values = grid.values()
    scores = np.empty(s_values.size)
    for i, s in enumerate(s_values):
        row_max = _gaussian(nearest, s)
        row_min = _gaussian(farthest, s)
        scores[i] = (2.0 / n) * float(row_max.sum() - row_min.sum())
    best = _argmax_smallest(scores)
    return BaselineResult(s=float(s_values[best]), curve=np.column_stack([s_values, scores]))
