"""SVDD dual solver: training, threshold, scoring, and duality positions.

The training problem is the data-description dual of Tax & Duin (2004):

    maximize    sum_i alpha_i K(x_i, x_i) - sum_ij alpha_i alpha_j K(x_i, x_j)
    subject to  sum_i alpha_i = 1,   0 <= alpha_i <= C,   C = 1 / (n f)

solved by sequential minimal optimization: repeatedly pick the pair of
coordinates with the largest KKT violation, solve the one-dimensional
subproblem along ``e_i - e_j`` in closed form, and clip to the box. The
equality constraint is preserved exactly by every pairwise step.

The threshold R^2 is the squared kernel distance from the center to any
support vector strictly inside the box; we average it over all of them,
which is a no-op at exact optimality and damps tie-breaking noise at
finite tolerance. A scoring point z is an outlier when dist^2(z) > R^2
(strict), with

    dist^2(z) = K(z, z) - 2 sum_i alpha_i K(x_i, z)
                + sum_ij alpha_i alpha_j K(x_i, x_j).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _native
from . import kernel as _kernel
from .errors import (
    ConvergenceError,
    DimensionError,
    InputError,
    NumericalError,
    SvddError,
    SweepError,
)
from .kernel import GAUSSIAN, KernelSpec, as_data_matrix

MODEL_FORMAT_VERSION = 1

INLIER = "inlier"
OUTLIER = "outlier"
INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"

# curvature below this is treated as flat (identical points) in SMO steps
_CURVATURE_FLOOR = 1e-12

# rows scored per cross-kernel block; bounds scoring memory to a block times
# the support-vector count instead of every scoring row at once
SCORE_BLOCK_ROWS = 4096

# kernel rows computed per block when a row buffer fills rows: 64 rows of a
# 600-point set are 0.3 MB
FILL_BLOCK_ROWS = 64

# solves per warm run of train_path: a run starts cold and warm-starts each
# later solve from the one before. Fixed, so that cutting a grid into runs
# for worker processes does not change a bit; 40 cuts the default 160-point
# grid into 4 balanced runs
WARM_RUN = 40


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs. ``f`` is the expected outlier fraction; C = 1/(n f)."""

    f: float
    kkt_tol: float = 1e-6
    max_iterations: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.f <= 1.0):
            raise InputError(f"outlier fraction f must lie in (0, 1], got {self.f!r}")
        if not (0.0 < self.kkt_tol < np.inf):
            raise InputError(f"kkt_tol must be positive and finite, got {self.kkt_tol!r}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be at least 1")

    def box_bound(self, n: int) -> float:
        return 1.0 / (n * self.f)


@dataclass
class SvddModel:
    """Fitted dual solution plus everything needed to score new points."""

    alphas: np.ndarray
    sv_indices: np.ndarray
    boundary_sv_indices: np.ndarray
    r_squared: float
    spec: KernelSpec
    config: SolverConfig
    support_vectors: np.ndarray
    dual_objective: float
    X: np.ndarray
    # box bound 1/(n f) of the training set; a loaded model keeps only its
    # support vectors, so this cannot be recomputed from X
    C: float
    kkt_residual: float = 0.0
    iterations: int = 0
    # cached sum_ij alpha_i alpha_j K(x_i, x_j), the constant term of dist^2
    alpha_quad: float = field(default=0.0, repr=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def sv_alphas(self) -> np.ndarray:
        return self.alphas[self.sv_indices]

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kernel_kind": GAUSSIAN,
            "s": self.spec.s,
            "f": self.config.f,
            "C": self.C,
            "r_squared": self.r_squared,
            "dual_objective": self.dual_objective,
            "support_vectors": self.support_vectors.tolist(),
            "alphas": self.alphas[self.sv_indices].tolist(),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def model_from_dict(payload: dict) -> SvddModel:
    """Rebuild a scoring-capable model from its serialized form.

    Only support vectors are serialized, so the rebuilt model's training
    view is the support-vector set itself (alphas are zero elsewhere and
    contribute nothing to scoring). The box bound is read back as saved.
    A missing or mistyped field, a number that is not finite or out of its
    range (C > 0, r_squared >= 0, alphas >= 0), or a kernel other than the
    Gaussian, raises InputError.
    """
    if not isinstance(payload, dict):
        raise InputError("a model must be a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format_version {version!r}")
    try:
        kind = payload["kernel_kind"]
        if kind != GAUSSIAN:
            raise InputError(f"model has kernel_kind {kind!r}: only gaussian models can be "
                             "loaded (the linear kernel is no longer supported)")
        spec = KernelSpec(GAUSSIAN, payload["s"])
        sv = np.asarray(payload["support_vectors"], dtype=float)
        alphas = np.asarray(payload["alphas"], dtype=float)
        config = SolverConfig(f=payload["f"])
        C = float(payload["C"])
        r_squared = float(payload["r_squared"])
        dual_objective = float(payload["dual_objective"])
    except KeyError as exc:
        raise InputError(f"model is missing the {exc.args[0]!r} field") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed model field: {exc}") from None
    if sv.ndim != 2 or alphas.shape != (sv.shape[0],):
        raise InputError("support_vectors and alphas are inconsistent")
    sv = as_data_matrix(sv, name="support_vectors")
    # NaN fails every comparison, so each rule also rejects it
    for name, valid, rule in (
        ("C", 0.0 < C < np.inf, "positive and finite"),
        ("r_squared", 0.0 <= r_squared < np.inf, "non-negative and finite"),
        ("dual_objective", abs(dual_objective) < np.inf, "finite"),
        ("alphas", bool(np.all((alphas >= 0.0) & (alphas < np.inf))), "non-negative and finite"),
    ):
        if not valid:
            raise InputError(f"model field {name!r} must be {rule}")
    K = _kernel.allocate(lambda: _kernel.squared_distances(sv, sv), sv.shape[0],
                         sv.shape[0] ** 2, "the support-vector kernel matrix")
    _kernel._gaussian(K, spec.s, out=K)
    return SvddModel(
        alphas=alphas,
        sv_indices=np.arange(sv.shape[0]),
        boundary_sv_indices=_boundary_indices(alphas, C, config.kkt_tol),
        r_squared=r_squared,
        spec=spec,
        config=config,
        support_vectors=sv,
        dual_objective=dual_objective,
        X=sv,
        C=C,
        alpha_quad=float(alphas @ K @ alphas),
    )


def load_model(path) -> SvddModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise InputError(f"{path}: not a JSON model file: {exc}") from None
    return model_from_dict(payload)


def _boundary_indices(alphas, C, tol) -> np.ndarray:
    return np.flatnonzero((alphas > tol) & (alphas < C - tol))


class _KernelRows:
    """The kernel matrix of one solve, as an n x n buffer ``K`` whose rows
    are computed when a solve first reads them.

    Row k of ``K`` is row k of the kernel matrix once ``filled[k]`` is set.
    ``fill`` computes rows from ``source`` (row indices -> those rows of the
    kernel matrix), ``FILL_BLOCK_ROWS`` at a time, and mirrors each row into
    its column: the kernel matrix is exactly symmetric, so a filled row's
    column is right too. Entries in neither a filled row nor a filled column
    may hold anything finite, such as the rows of another bandwidth, but
    the diagonal must be the kernel's throughout.

    The support of alpha is always filled: ``_fit`` fills the start's
    support, and a step of the pair (i, j) raises alpha only at i, whose
    row the loop asks for first. j has alpha > 0 (``low_pen`` keeps the
    others out of its argmax), so its row is filled already, and a
    missing row is always i's. Hence an unfilled entry cannot change a bit
    of a solve: in ``K @ alpha`` an unfilled entry K[r, k] is multiplied
    by alpha[k] = 0, which gives a zero whatever the finite entry; and an
    SMO step reads only the rows of its pair.
    """

    def __init__(self, K, source):
        # the compiled SMO loop reads K through a raw pointer
        if not (K.dtype == np.float64 and K.flags.c_contiguous and K.ndim == 2
                and K.shape[0] == K.shape[1]):
            raise ValueError("a kernel row buffer must be a square C-contiguous float64 array")
        self.K = K
        self.source = source
        self.filled = np.zeros(K.shape[0], dtype=np.uint8)

    def fill(self, rows) -> None:
        """Fill the rows of the index array ``rows`` that are not filled yet."""
        rows = rows[self.filled[rows] == 0]
        for start in range(0, rows.size, FILL_BLOCK_ROWS):
            block_rows = rows[start:start + FILL_BLOCK_ROWS]
            block = self.source(block_rows)
            self.K[block_rows] = block
            self.K[:, block_rows] = block.T
            # released before the next block is computed, not after
            del block
        self.filled[rows] = 1


def _gaussian_rows(X, s, rows) -> np.ndarray:
    """Rows ``rows`` of the Gaussian kernel matrix of X at bandwidth s, bit
    for bit the rows of ``kernel.kernel_matrix``: both come from
    ``squared_distances`` and ``_gaussian``, one entry at a time."""
    block = _kernel.squared_distances(X[rows], X)
    return _kernel._gaussian(block, s, out=block)


def _solve_smo(rows, C, kkt_tol, max_iterations, alpha0):
    """Maximal-violating-pair SMO on min a'Ka - diag(K)'a over the scaled box,
    with ``K = rows.K``.

    Returns (alpha, kkt_residual, iterations, K @ alpha). Gradient is
    maintained incrementally and re-derived from scratch before convergence
    is accepted, so drift cannot produce a falsely converged result.

    ``rows`` is a ``_KernelRows`` with the support of ``alpha0`` filled.
    The solve gives the same bits whichever other rows are filled. Its
    rows must be finite: a gradient derived here (at the start and at each
    re-check) that is not raises NumericalError, so neither loop needs a
    rule for NaN.

    The pairwise steps run in an inner loop with two implementations of one
    contract: the compiled ``_native.c`` (built on first use, see
    ``_native``) and ``_run_python``, which runs when the library cannot be
    built. Both give the same bits. The loop steps from the pair in a
    two-slot int64 array and writes back the next; it returns early when
    that pair's row i is not filled (see ``_KernelRows``), and resumes,
    pair and gradient and all, once the row is filled.
    """
    K = rows.K
    alpha = np.asarray(alpha0, dtype=float).copy()
    up_pen = np.where(alpha < C, 0.0, np.inf)
    low_pen = np.where(alpha > 0.0, 0.0, -np.inf)
    run = _native.smo_loop() or _run_python
    iterations = 0
    while True:
        K_alpha, grad = _gradient(K, alpha)
        pair = np.array(_pair(grad, up_pen, low_pen), dtype=np.int64)
        violation = _violation(grad, up_pen, low_pen, *pair)
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"SMO did not reach kkt_tol={kkt_tol:g} within {max_iterations} "
                f"iterations (residual {violation:.3e})",
                alphas=alpha,
                kkt_residual=violation,
                iterations=iterations,
            )
        if violation <= kkt_tol:
            return alpha, max(violation, 0.0), iterations, K_alpha
        missing = True
        while missing:  # the loop's first step, or its resume, reads row i
            rows.fill(pair[:1])
            iterations, missing = run(K, alpha, grad, up_pen, low_pen, rows.filled, pair, C,
                                      kkt_tol, _CURVATURE_FLOOR, max_iterations, iterations)


def _gradient(K, alpha):
    """(K @ alpha, 2 K @ alpha - diag(K)); NumericalError if that is not
    finite."""
    K_alpha = K @ alpha
    grad = 2.0 * K_alpha - np.diag(K)
    if not np.isfinite(grad).all():
        raise NumericalError("the SMO gradient is not finite: a kernel row holds NaN or inf")
    return K_alpha, grad


def _pair(grad, up_pen, low_pen):
    """The maximal-violating pair ``(i, j)``: i = argmin(grad + up_pen) and
    j = argmax(grad + low_pen), each the first index on ties."""
    return int((grad + up_pen).argmin()), int((grad + low_pen).argmax())


def _violation(grad, up_pen, low_pen, i, j) -> float:
    """The violation of the pair (i, j); -inf when no multiplier can rise."""
    return (grad.item(j) + low_pen.item(j)) - (grad.item(i) + up_pen.item(i))


def _run_python(K, alpha, grad, up_pen, low_pen, filled, pair, C, kkt_tol, curvature_floor,
                max_iterations, iterations):
    """Take SMO steps in place from the pair (i, j) in ``pair``, writing
    each next pair back, until its violation is at most ``kkt_tol``,
    ``iterations`` reaches ``max_iterations`` or row i is not filled;
    returns ``(iterations, whether row i was missing)``. The numpy twin of
    ``svdd_smo_run`` in ``_native.c``, with every rounding of it.

    ``up_pen`` is +inf where alpha = C and ``low_pen`` -inf where alpha = 0,
    else 0; a step moves alpha, and so the penalties, only at i and j. The
    kernel matrix is exactly symmetric, so a step reads the rows ``K[i]``
    and ``K[j]`` for their columns.
    """
    i, j = pair.tolist()
    while iterations < max_iterations:
        violation = _violation(grad, up_pen, low_pen, i, j)
        if violation <= kkt_tol:
            break
        if not filled[i]:
            return iterations, True
        curvature = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = violation / (2.0 * curvature) if curvature > curvature_floor else np.inf
        a_i, a_j = alpha[i], alpha[j]
        room_i = C - a_i
        clipped = min(step, room_i, a_j)
        new_i = C if clipped >= room_i else a_i + clipped
        new_j = 0.0 if clipped >= a_j else a_j - clipped
        alpha[i] = new_i
        alpha[j] = new_j
        up_pen[i] = 0.0 if new_i < C else np.inf
        up_pen[j] = 0.0 if new_j < C else np.inf
        low_pen[i] = 0.0 if new_i > 0.0 else -np.inf
        low_pen[j] = 0.0 if new_j > 0.0 else -np.inf
        grad += (K[i] - K[j]) * (2.0 * clipped)
        i, j = pair[:] = _pair(grad, up_pen, low_pen)
        iterations += 1
    return iterations, False


def _threshold(dist_sq, alphas, boundary, C, kkt_tol) -> float:
    """R^2 from ``dist_sq``, the squared center distance of every training row.

    With boundary support vectors (the indices ``boundary``), their mean
    distance; they must agree to within 10 ``kkt_tol`` (the Gaussian
    diagonal is 1, so distances lie in [0, 2]), else NumericalError.
    Without any, every alpha sits at a box bound and the KKT conditions only
    bracket R^2: it is at least the largest distance among alpha = 0 rows
    and at most the smallest among alpha = C rows. Take the midpoint of that
    interval (or its upper end when no alpha is 0).
    """
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


def train(X, spec: KernelSpec, config: SolverConfig, initial_alphas=None) -> SvddModel:
    """Fit an SVDD model. Deterministic for fixed inputs.

    ``initial_alphas`` warm-starts SMO (it is projected back to the
    feasible set first); the default is the uniform feasible point.
    """
    X = as_data_matrix(X)
    rows = _KernelRows(_row_buffer(X.shape[0]), partial(_gaussian_rows, X, spec.s))
    return _fit(X, rows, spec, config, initial_alphas)


def _row_buffer(n) -> np.ndarray:
    """The n x n identity that a solve fills with kernel rows."""
    return _kernel.allocate(lambda: np.eye(n), n, n * n, "the kernel row buffer")


def train_path(X, s_values, config: SolverConfig):
    """Fit one Gaussian model per bandwidth, in the order of ``s_values``.

    A generator: yields ``(s, model)``. The first solve that raises an
    SvddError ends the path with a SweepError naming its ``s``, since a
    curve with a hole has no central differences. Every solve fills the
    kernel rows it reads into one n x n buffer, allocated once for the
    whole path. The solves at positions 0, ``WARM_RUN``, 2 ``WARM_RUN``,
    ... start cold, from the uniform point; every other one starts from the
    alphas of the model before it. So a path cut at multiples of
    ``WARM_RUN`` gives the same models piece by piece as whole. Each model
    equals ``train(X, KernelSpec(GAUSSIAN, s), config, initial_alphas=<same
    start>)`` bit for bit.
    """
    X = as_data_matrix(X)
    # unit diagonal: every solve reads the whole diagonal, and the Gaussian
    # kernel's is 1; the rest of each row is written before it is read
    buffer = _row_buffer(X.shape[0])
    alpha0 = None
    for index, s in enumerate(s_values):
        s = float(s)
        if index % WARM_RUN == 0:
            alpha0 = None
        try:
            spec = KernelSpec(kind=GAUSSIAN, s=s)
            rows = _KernelRows(buffer, partial(_gaussian_rows, X, s))
            model = _fit(X, rows, spec, config, alpha0)
        except SvddError as exc:
            raise SweepError(f"sweep solve failed at s={s:g}: {exc}", s=s) from exc
        alpha0 = model.alphas
        yield s, model


def _fit(X, rows, spec, config, initial_alphas) -> SvddModel:
    """Solve the dual on the kernel rows ``rows`` (a ``_KernelRows``) of
    the rows of ``X``.

    The body shared by ``train`` and ``train_path``. No part of the model
    refers to ``rows.K``, which the next solve of a path overwrites.
    """
    n = X.shape[0]
    C = config.box_bound(n)

    # with f = 1, C = 1/n: the uniform point is the only feasible one,
    # whatever the start
    if config.f == 1.0 or initial_alphas is None:
        alpha0 = np.full(n, 1.0 / n)
    else:
        alpha0 = np.clip(np.asarray(initial_alphas, dtype=float), 0.0, C)
        total = alpha0.sum()
        if not np.isfinite(total) or total <= 0:
            alpha0 = np.full(n, 1.0 / n)
        else:
            alpha0 = np.clip(alpha0 / total, 0.0, C)
    rows.fill(np.flatnonzero(alpha0 > 0.0))
    K = rows.K
    solved, residual, iterations, K_alphas = _solve_smo(rows, C, config.kkt_tol,
                                                        config.max_iterations, alpha0)
    alphas = solved / solved.sum()
    np.clip(alphas, 0.0, C, out=alphas)
    # the solver's K @ alpha serves when normalising left every bit as it
    # was; bits, not values, so that -0.0 is never taken for +0.0
    if alphas.tobytes() != solved.tobytes():
        K_alphas = K @ alphas

    alpha_quad = float(alphas @ K_alphas)
    diag = np.diag(K)
    dual_objective = float(diag @ alphas - alpha_quad)
    sv_indices = np.flatnonzero(alphas > 0.0)
    boundary = _boundary_indices(alphas, C, config.kkt_tol)
    dist_sq = diag - 2.0 * K_alphas + alpha_quad
    r_squared = _threshold(dist_sq, alphas, boundary, C, config.kkt_tol)
    return SvddModel(
        alphas=alphas,
        sv_indices=sv_indices,
        boundary_sv_indices=boundary,
        r_squared=r_squared,
        spec=spec,
        config=config,
        support_vectors=X[sv_indices].copy(),
        dual_objective=dual_objective,
        X=X,
        C=C,
        kkt_residual=residual,
        iterations=iterations,
        alpha_quad=alpha_quad,
    )


def score_distances(model: SvddModel, Z) -> np.ndarray:
    """dist^2 for each row of Z against the fitted description.

    The cross kernel is built ``SCORE_BLOCK_ROWS`` rows at a time. Z may
    have zero rows.
    """
    Z = as_data_matrix(Z, min_rows=0, name="Z")
    if Z.shape[1] != model.dim:
        raise DimensionError(
            f"scoring rows have {Z.shape[1]} feature(s), model expects {model.dim}"
        )
    sv_alphas = model.sv_alphas()
    weighted = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], SCORE_BLOCK_ROWS):
        block = Z[start:start + SCORE_BLOCK_ROWS]
        cross = _kernel.cross_kernel(block, model.support_vectors, model.spec)
        weighted[start:start + block.shape[0]] = cross @ sv_alphas
    # K(z, z) = 1
    return 1.0 - 2.0 * weighted + model.alpha_quad


def score_lattice(model: SvddModel, xs, ys) -> np.ndarray:
    """dist^2 at every lattice point (xs[a], ys[b]) of a 2-D model.

    Ordered x-fastest like ``LabeledGrid.points``: entry b * len(xs) + a
    is the point (xs[a], ys[b]). The kernel separates over the axes, so
    no (points x support vectors) array is built: it factors as
    exp(-dx^2 / 2s^2) exp(-dy^2 / 2s^2), one table per axis, ``Ex``
    (len(xs) x n_sv) and ``Ey`` (len(ys) x n_sv), and one product
    ``(Ey * alpha) @ Ex.T``.
    """
    if model.dim != 2:
        raise DimensionError(
            f"lattice scoring needs a 2-D model, this one has {model.dim} features"
        )
    xs = _kernel._as_vector(xs, "xs")
    ys = _kernel._as_vector(ys, "ys")
    sv = model.support_vectors
    # cross_kernel's arithmetic without its input checks (20 us a call)
    sq = _kernel.squared_distances(ys[:, None], sv[:, 1:])
    ey = _kernel._gaussian(sq, model.spec.s, out=sq)
    ey *= model.sv_alphas()
    sq = _kernel.squared_distances(xs[:, None], sv[:, :1])
    ex = _kernel._gaussian(sq, model.spec.s, out=sq)
    dist_sq = ey @ ex.T
    # 1 - 2 w + quad, rounded in the order score_distances uses
    dist_sq *= -2.0
    dist_sq += 1.0
    dist_sq += model.alpha_quad
    return dist_sq.ravel()


def classify(model: SvddModel, Z) -> np.ndarray:
    """Label each row of Z 'outlier' iff dist^2 > R^2 (strict), else 'inlier'."""
    dist_sq = score_distances(model, Z)
    return np.where(dist_sq > model.r_squared, OUTLIER, INLIER)


@dataclass
class PositionReport:
    """Per-observation duality positions of the training data."""

    positions: np.ndarray  # str array over {inside, boundary, outside}
    distances: np.ndarray
    r_squared: float
    tolerance: float

    def counts(self) -> dict:
        return {
            kind: int(np.sum(self.positions == kind))
            for kind in (INSIDE, BOUNDARY, OUTSIDE)
        }


def position_report(model: SvddModel) -> PositionReport:
    """Classify every training point from its alpha and cross-check distances.

    inside: alpha ~ 0, boundary: 0 < alpha < C, outside: alpha ~ C. The
    distance consistency (inside => dist^2 <= R^2 + tol, boundary =>
    |dist^2 - R^2| <= tol, outside => dist^2 >= R^2 - tol, with tol = 10
    ``kkt_tol``) is verified and a violation raises NumericalError, since
    it can only come from an unconverged solve.
    """
    tol = 10.0 * model.config.kkt_tol
    C = model.C
    a = model.alphas
    positions = np.full(model.n, BOUNDARY, dtype=object)
    positions[a <= model.config.kkt_tol] = INSIDE
    positions[a >= C - model.config.kkt_tol] = OUTSIDE
    dist_sq = score_distances(model, model.X)
    r2 = model.r_squared
    bad_inside = (positions == INSIDE) & (dist_sq > r2 + tol)
    bad_boundary = (positions == BOUNDARY) & (np.abs(dist_sq - r2) > tol)
    bad_outside = (positions == OUTSIDE) & (dist_sq < r2 - tol)
    bad = bad_inside | bad_boundary | bad_outside
    if np.any(bad):
        worst = int(np.argmax(np.abs(dist_sq - r2) * bad))
        raise NumericalError(
            f"duality position of observation {worst} is inconsistent with its "
            f"distance (alpha={a[worst]:.3e}, dist^2={dist_sq[worst]:.6e}, R^2={r2:.6e})"
        )
    return PositionReport(
        positions=np.asarray(positions, dtype=str),
        distances=dist_sq,
        r_squared=r2,
        tolerance=tol,
    )
