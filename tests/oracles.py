"""Independent reference computations used by the test suite.

The QP oracle maximizes the dual objective

    V(alpha) = sum_i alpha_i K_ii - alpha' K alpha,
    sum alpha = 1,  0 <= alpha_i <= C

by exhaustive search over the simplex lattice {k * step}. For n = 4 the
last lattice dimension is maximized in closed form: V is concave along
e_3 - e_4 (its curvature is -(K_33 + K_44 - 2 K_34) <= 0 for any PSD K),
so the lattice maximum over that coordinate sits at the clamped
floor/ceil of the continuous vertex or at a window endpoint. The result
is identical to scanning the coordinate and keeps the search tractable.

``reference_smo`` is a frozen copy of the straightforward SMO loop
(column reads, masks rebuilt with ``np.where`` on every iteration). The
production solver must reproduce it bit for bit. The SMO contract does
not depend on the kernel, so ``linear_gram`` gives it inner-product
matrices too, and ``whole_rows`` hands a whole matrix to the solver.
``reference_threshold`` is a frozen copy of the threshold rule as it read
each position off the multipliers by itself.
"""

import numpy as np

from svddpeak import solver
from svddpeak.errors import ConvergenceError, NumericalError
from svddpeak.kernel import kernel_matrix_from_sq, squared_distance_matrix


def _lattice_counts(step, C):
    m = int(round(1.0 / step))
    cmax = min(int(np.floor(C / step + 1e-9)), m)
    return m, cmax


def simplex_grid_max(K, C, step):
    """(best_value, best_alpha) over the simplex lattice; n in {2, 3, 4}."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if n == 2:
        return _grid_max_2(K, C, step)
    if n == 3:
        return _grid_max_3(K, C, step)
    if n == 4:
        return _grid_max_4(K, C, step)
    raise ValueError(f"oracle supports n in {{2, 3, 4}}, got {n}")


def _grid_max_2(K, C, step):
    m, cmax = _lattice_counts(step, C)
    i = np.arange(max(0, m - cmax), cmax + 1)
    a1 = i * step
    a2 = 1.0 - a1
    d = np.diag(K)
    q = K[0, 0] * a1**2 + K[1, 1] * a2**2 + 2.0 * K[0, 1] * a1 * a2
    v = d[0] * a1 + d[1] * a2 - q
    best = int(np.argmax(v))
    return float(v[best]), np.array([a1[best], a2[best]])


def _grid_max_3(K, C, step):
    m, cmax = _lattice_counts(step, C)
    idx = np.arange(cmax + 1)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    L = m - I - J
    feasible = (L >= 0) & (L <= cmax)
    a1 = I * step
    a2 = J * step
    a3 = L * step
    d = np.diag(K)
    q = (
        K[0, 0] * a1**2
        + K[1, 1] * a2**2
        + K[2, 2] * a3**2
        + 2.0 * (K[0, 1] * a1 * a2 + K[0, 2] * a1 * a3 + K[1, 2] * a2 * a3)
    )
    v = d[0] * a1 + d[1] * a2 + d[2] * a3 - q
    v[~feasible] = -np.inf
    flat = int(np.argmax(v))
    bi, bj = np.unravel_index(flat, v.shape)
    alpha = np.array([a1[bi, bj], a2[bi, bj], a3[bi, bj]])
    return float(v[bi, bj]), alpha


def _grid_max_4(K, C, step):
    m, cmax = _lattice_counts(step, C)
    h = step
    idx = np.arange(cmax + 1)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    rem = m - I - J
    k_lo = np.maximum(0, rem - cmax)
    k_hi = np.minimum(cmax, rem)
    feasible = (rem >= 0) & (k_lo <= k_hi)
    a1 = I * h
    a2 = J * h
    t = np.maximum(rem, 0) * h
    d = np.diag(K)
    A = K[2, 2] + K[3, 3] - 2.0 * K[2, 3]
    b = (d[2] - d[3]) - (
        2.0 * a1 * (K[0, 2] - K[0, 3])
        + 2.0 * a2 * (K[1, 2] - K[1, 3])
        + 2.0 * t * (K[2, 3] - K[3, 3])
    )
    const = (a1 * d[0] + a2 * d[1] + t * d[3]) - (
        K[0, 0] * a1**2
        + K[1, 1] * a2**2
        + 2.0 * K[0, 1] * a1 * a2
        + 2.0 * t * (a1 * K[0, 3] + a2 * K[1, 3])
        + K[3, 3] * t**2
    )
    if A > 1e-15:
        k_star = b / (2.0 * A * h)
    else:
        k_star = np.zeros_like(b)
    candidates = [
        np.clip(np.floor(k_star), k_lo, k_hi),
        np.clip(np.ceil(k_star), k_lo, k_hi),
        k_lo.astype(float),
        k_hi.astype(float),
    ]
    values = []
    for kc in candidates:
        u = kc * h
        values.append(const + b * u - A * u**2)
    stacked = np.stack(values)
    stacked[:, ~feasible] = -np.inf
    flat = int(np.argmax(stacked))
    c, bi, bj = np.unravel_index(flat, stacked.shape)
    k_best = candidates[c][bi, bj]
    alpha = np.array(
        [
            a1[bi, bj],
            a2[bi, bj],
            k_best * h,
            (rem[bi, bj] - k_best) * h,
        ]
    )
    return float(stacked[c, bi, bj]), alpha


def gaussian_kernel_matrix(X, s):
    """Direct double-loop Gaussian kernel matrix (reference path)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = np.exp(-np.sum((X[i] - X[j]) ** 2) / (2.0 * s * s))
    return K


def linear_gram(X):
    """The symmetrised inner-product matrix (X X' + (X X')') / 2 of the
    rows of X: exactly symmetric, as the solver needs its matrix to be."""
    X = np.asarray(X, dtype=float)
    K = X @ X.T
    return (K + K.T) / 2.0


def whole_rows(K):
    """The whole matrix ``K`` as the solver's ``_KernelRows``, every row
    filled, its source reading the rows of ``K``."""
    rows = solver._KernelRows(K, lambda index: K[index])
    rows.fill(np.arange(K.shape[0]))
    return rows


def dfn_curve(X, s_values):
    """The DFN criterion at each s of ``s_values``, from the whole kernel
    matrix of each s with the diagonal masked out of each row's max and
    min."""
    n = X.shape[0]
    sq = squared_distance_matrix(X)
    off_diag = ~np.eye(n, dtype=bool)
    scores = np.empty(len(s_values))
    for i, s in enumerate(s_values):
        k = kernel_matrix_from_sq(sq, s)
        row_max = np.max(np.where(off_diag, k, -np.inf), axis=1)
        row_min = np.min(np.where(off_diag, k, np.inf), axis=1)
        scores[i] = (2.0 / n) * float(row_max.sum() - row_min.sum())
    return scores


def cv_curve(X, s_values, epsilon=1e-6):
    """The CV criterion at each s of ``s_values``, from the upper triangle
    of the whole squared-distance matrix."""
    sq = squared_distance_matrix(X)[np.triu_indices(X.shape[0], 1)]
    scores = np.empty(len(s_values))
    for i, s in enumerate(s_values):
        k = kernel_matrix_from_sq(sq, s)
        scores[i] = np.var(k) / (np.mean(k) + epsilon)
    return scores


def md_bandwidth(X, f):
    """The MD bandwidth d_max / sqrt(-ln delta), delta = 1 / (n (1 - f) + 1),
    with d_max from the whole squared-distance matrix."""
    d_max = float(np.sqrt(squared_distance_matrix(X).max()))
    delta = 1.0 / (X.shape[0] * (1.0 - f) + 1.0)
    return d_max / float(np.sqrt(-np.log(delta)))


def _reference_pair(grad, alpha, C):
    """(i, j, violation): i = argmin of grad where alpha < C, j = argmax of
    grad where alpha > 0, and the violation grad[j] - grad[i] of the pair,
    -inf when no multiplier can rise (every alpha at C)."""
    up = np.where(alpha < C, grad, np.inf)
    low = np.where(alpha > 0.0, grad, -np.inf)
    i = int(np.argmin(up))
    j = int(np.argmax(low))
    return i, j, low[j] - up[i]


def reference_smo(K, C, kkt_tol, max_iterations, alpha0, curvature_floor=1e-12, stats=None):
    """Maximal-violating-pair SMO, written plainly; same contract as
    ``solver._solve_smo``: (alpha, kkt_residual, iterations) or
    ConvergenceError carrying the last iterate. A ``stats`` dict, when
    given, receives the number of steps taken at the curvature floor."""
    diag = np.ascontiguousarray(np.diag(K))
    alpha = np.asarray(alpha0, dtype=float).copy()
    grad = 2.0 * (K @ alpha) - diag
    iterations = 0
    floor_steps = 0
    while iterations < max_iterations:
        i, j, violation = _reference_pair(grad, alpha, C)
        if violation <= kkt_tol:
            grad = 2.0 * (K @ alpha) - diag
            i, j, violation = _reference_pair(grad, alpha, C)
            if violation <= kkt_tol:
                if stats is not None:
                    stats["floor_steps"] = floor_steps
                return alpha, float(max(violation, 0.0)), iterations
            continue
        curvature = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if curvature > curvature_floor:
            step = violation / (2.0 * curvature)
        else:
            step = np.inf
            floor_steps += 1
        room_i = C - alpha[i]
        room_j = alpha[j]
        clipped = min(step, room_i, room_j)
        new_i = alpha[i] + clipped
        new_j = alpha[j] - clipped
        if clipped >= room_i:
            new_i = C
        if clipped >= room_j:
            new_j = 0.0
        alpha[i] = new_i
        alpha[j] = new_j
        grad += (2.0 * clipped) * (K[:, i] - K[:, j])
        iterations += 1
    grad = 2.0 * (K @ alpha) - diag
    residual = float(_reference_pair(grad, alpha, C)[2])
    raise ConvergenceError(
        f"SMO did not reach kkt_tol={kkt_tol:g} within {max_iterations} iterations "
        f"(residual {residual:.3e})",
        alphas=alpha,
        kkt_residual=residual,
        iterations=iterations,
    )


def reference_threshold(dist_sq, alphas, C, kkt_tol) -> float:
    """R^2 as the solver took it with its position masks written out: the
    mean distance of the boundary indices tol < alpha < C - tol, which must
    agree within 10 tol, else the midpoint of the bracket between the
    largest distance at alpha <= tol and the smallest at alpha >= C - tol
    (its upper end when no alpha is at 0). Where C <= 2 tol one alpha can
    fall in both bracket sets; the solver gives it to alpha = C alone."""
    boundary = np.flatnonzero((alphas > kkt_tol) & (alphas < C - kkt_tol))
    if boundary.size:
        per_sv = dist_sq[boundary]
        spread = float(per_sv.max() - per_sv.min())
        if spread > 10.0 * kkt_tol:
            raise NumericalError(
                f"boundary support vectors disagree on the threshold by {spread:.3e}"
            )
        return float(max(per_sv.mean(), 0.0))
    inside = alphas <= kkt_tol
    outside = alphas >= C - kkt_tol
    hi = float(dist_sq[outside].min()) if np.any(outside) else 0.0
    if not np.any(inside):
        return max(hi, 0.0)
    lo = float(dist_sq[inside].max())
    return max(0.5 * (lo + hi), 0.0)
