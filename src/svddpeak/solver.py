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

import numpy as np

from . import _native
from . import kernel as _kernel
from .errors import (
    ConvergenceError,
    DimensionError,
    InputError,
    NumericalError,
    SvddError,
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
        if self.kkt_tol <= 0:
            raise InputError("kkt_tol must be positive")
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
        s = self.spec.s if self.spec.kind == GAUSSIAN else None
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kernel_kind": self.spec.kind,
            "s": s,
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
    A missing or mistyped field raises InputError.
    """
    if not isinstance(payload, dict):
        raise InputError("a model must be a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format_version {version!r}")
    try:
        kind = payload["kernel_kind"]
        spec = KernelSpec(kind=kind, s=payload["s"] if kind == GAUSSIAN else None)
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
    K = _kernel.kernel_matrix(sv, spec)
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


def _solve_smo(K, C, kkt_tol, max_iterations, alpha0):
    """Maximal-violating-pair SMO on min a'Ka - diag(K)'a over the scaled box.

    Returns (alpha, kkt_residual, iterations). Gradient is maintained
    incrementally and re-derived from scratch before convergence is
    accepted, so drift cannot produce a falsely converged result.

    The pairwise steps run in an inner loop with two implementations of
    one contract: the compiled ``_native.c`` (built on first use, see
    ``_native``) and ``_run_python``. Both give the same bits; the Python
    loop runs when the library cannot be built or ``K`` is not a square
    C-contiguous float64 matrix.
    """
    diag = np.ascontiguousarray(np.diag(K))
    alpha = np.asarray(alpha0, dtype=float).copy()
    grad = 2.0 * (K @ alpha) - diag
    up_pen = np.where(alpha < C, 0.0, np.inf)
    low_pen = np.where(alpha > 0.0, 0.0, -np.inf)
    # the C loop reads raw pointers: a square, C-contiguous float64 K only
    compiled = (K.dtype == np.float64 and K.flags.c_contiguous
                and K.shape == (alpha.size, alpha.size) and _native.smo_loop())
    run = compiled or _run_python
    iterations = 0
    while True:
        iterations = run(K, diag, alpha, grad, up_pen, low_pen, C, kkt_tol,
                         _CURVATURE_FLOOR, max_iterations, iterations)
        grad = 2.0 * (K @ alpha) - diag
        violation = _violation(grad, up_pen, low_pen)
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"SMO did not reach kkt_tol={kkt_tol:g} within {max_iterations} "
                f"iterations (residual {violation:.3e})",
                alphas=alpha,
                kkt_residual=violation,
                iterations=iterations,
            )
        if violation <= kkt_tol:
            return alpha, max(violation, 0.0), iterations


def _violation(grad, up_pen, low_pen) -> float:
    """grad[j] - grad[i] for i = argmin(grad + up_pen), j = argmax(grad + low_pen)."""
    i = int((grad + up_pen).argmin())
    j = int((grad + low_pen).argmax())
    return grad.item(j) - grad.item(i)


def _run_python(K, diag, alpha, grad, up_pen, low_pen, C, kkt_tol, curvature_floor,
                max_iterations, iterations):
    """Take SMO steps in place until the maximal violation is at most
    ``kkt_tol`` or ``iterations`` reaches ``max_iterations``; returns
    ``iterations``. The numpy twin of ``svdd_smo_run`` in ``_native.c``.

    Per iteration numpy overhead is kept small without changing a single
    rounding of the plain formulation (columns ``K[:, i]``, masks rebuilt
    by ``np.where`` every step):

    * ``K`` is exactly symmetric (``kernel_matrix`` and
      ``kernel_matrix_from_sq`` guarantee it), so a step reads the
      contiguous rows ``K[i]``, ``K[j]``;
    * the bound masks are offset vectors, ``up_pen`` (+inf where alpha = C)
      and ``low_pen`` (-inf where alpha = 0), updated only at the two
      coordinates a step moves: i = argmin(grad + up_pen) and
      j = argmax(grad + low_pen);
    * the gradient update ``grad += (2 clipped) (K[i] - K[j])`` runs in
      preallocated buffers, in the same order of operations;
    * scalars are read as Python floats, which round exactly as numpy's.
    """
    n = K.shape[0]
    k_diag = diag.tolist()
    masked = np.empty(n)
    diff = np.empty(n)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    inf = np.inf
    while iterations < max_iterations:
        add(grad, up_pen, masked)
        i = int(masked.argmin())
        add(grad, low_pen, masked)
        j = int(masked.argmax())
        violation = grad.item(j) - grad.item(i)
        if violation <= kkt_tol:
            break
        K_i = K[i]
        curvature = k_diag[i] + k_diag[j] - 2.0 * K_i.item(j)
        if curvature > curvature_floor:
            step = violation / (2.0 * curvature)
        else:
            step = inf
        a_i = alpha.item(i)
        a_j = alpha.item(j)
        room_i = C - a_i
        clipped = min(step, room_i, a_j)
        new_i = C if clipped >= room_i else a_i + clipped
        new_j = 0.0 if clipped >= a_j else a_j - clipped
        alpha[i] = new_i
        alpha[j] = new_j
        up_pen[i] = 0.0 if new_i < C else inf
        up_pen[j] = 0.0 if new_j < C else inf
        low_pen[i] = 0.0 if new_i > 0.0 else -inf
        low_pen[j] = 0.0 if new_j > 0.0 else -inf
        subtract(K_i, K[j], diff)
        multiply(diff, 2.0 * clipped, diff)
        add(grad, diff, grad)
        iterations += 1
    return iterations


def _threshold_from_parts(K, alphas, boundary, alpha_quad, kkt_tol):
    """Average squared center distance over the boundary support vectors,
    of which there is at least one."""
    diag = np.diag(K)
    per_sv = diag[boundary] - 2.0 * (K[boundary, :] @ alphas) + alpha_quad
    spread = float(per_sv.max() - per_sv.min())
    if spread > 10.0 * kkt_tol * max(1.0, float(np.abs(diag).max())):
        raise NumericalError(
            f"boundary support vectors disagree on the threshold by {spread:.3e}"
        )
    return float(max(per_sv.mean(), 0.0))


def _threshold_midpoint_fallback(K, alphas, C, alpha_quad, kkt_tol):
    """Threshold when the optimum has every alpha at a box bound.

    The KKT conditions then only bracket R^2: it is at least the largest
    distance among alpha = 0 points and at most the smallest among
    alpha = C points. Take the midpoint of that interval (or its upper
    end when nothing is strictly inside).
    """
    dist_sq = np.diag(K) - 2.0 * (K @ alphas) + alpha_quad
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
    return _fit(X, _kernel.kernel_matrix(X, spec), spec, config, initial_alphas)


def train_path(X, s_values, config: SolverConfig):
    """Fit one Gaussian model per bandwidth, in the order of ``s_values``.

    A generator: yields ``(s, model)``, or ``(s, err)`` when that solve
    raised the SvddError ``err``. The squared distances are computed once
    for the whole path. The solves at positions 0, ``WARM_RUN``,
    2 ``WARM_RUN``, ... start cold, from the uniform point; every other
    one starts from the alphas of the last successful model since the
    last cold start (cold while there is none). So a path cut at multiples
    of ``WARM_RUN`` gives the same models piece by piece as whole. Each
    model equals
    ``train(X, KernelSpec(GAUSSIAN, s), config, initial_alphas=<same start>)``
    bit for bit.
    """
    X = as_data_matrix(X)
    sq_dists = _kernel.squared_distance_matrix(X)
    alpha0 = None
    for index, s in enumerate(s_values):
        s = float(s)
        if index % WARM_RUN == 0:
            alpha0 = None
        try:
            spec = KernelSpec(kind=GAUSSIAN, s=s)
            model = _fit(X, _kernel.kernel_matrix_from_sq(sq_dists, s), spec, config, alpha0)
        except SvddError as exc:
            yield s, exc
            continue
        alpha0 = model.alphas
        yield s, model


def _fit(X, K, spec, config, initial_alphas) -> SvddModel:
    """Solve the dual on ``K``, the kernel matrix of the rows of ``X``.

    The body shared by ``train`` and ``train_path``.
    """
    n = X.shape[0]
    C = config.box_bound(n)

    if config.f == 1.0:
        # C = 1/n: the uniform point is the only feasible one, whatever the start
        alphas, residual, iterations = np.full(n, 1.0 / n), 0.0, 0
    else:
        if initial_alphas is None:
            alpha0 = np.full(n, 1.0 / n)
        else:
            alpha0 = np.clip(np.asarray(initial_alphas, dtype=float), 0.0, C)
            total = alpha0.sum()
            if not np.isfinite(total) or total <= 0:
                alpha0 = np.full(n, 1.0 / n)
            else:
                alpha0 = np.clip(alpha0 / total, 0.0, C)
        alphas, residual, iterations = _solve_smo(
            K, C, config.kkt_tol, config.max_iterations, alpha0
        )
    alphas = alphas / alphas.sum()
    np.clip(alphas, 0.0, C, out=alphas)

    alpha_quad = float(alphas @ (K @ alphas))
    dual_objective = float(np.diag(K) @ alphas - alpha_quad)
    sv_indices = np.flatnonzero(alphas > 0.0)
    boundary = _boundary_indices(alphas, C, config.kkt_tol)
    if boundary.size:
        r_squared = _threshold_from_parts(K, alphas, boundary, alpha_quad, config.kkt_tol)
    else:
        r_squared = _threshold_midpoint_fallback(K, alphas, C, alpha_quad, config.kkt_tol)
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
    if model.spec.kind == GAUSSIAN:
        self_term = np.ones(Z.shape[0])
    else:
        self_term = np.einsum("ij,ij->i", Z, Z)
    return self_term - 2.0 * weighted + model.alpha_quad


def score_lattice(model: SvddModel, xs, ys) -> np.ndarray:
    """dist^2 at every lattice point (xs[a], ys[b]) of a 2-D model.

    Ordered x-fastest like ``LabeledGrid.points``: entry b * len(xs) + a
    is the point (xs[a], ys[b]). Both kernels separate over the axes, so
    no (points x support vectors) array is built. The Gaussian kernel
    factors as exp(-dx^2 / 2s^2) exp(-dy^2 / 2s^2): one table per axis,
    ``Ex`` (len(xs) x n_sv) and ``Ey`` (len(ys) x n_sv), and one product
    ``(Ey * alpha) @ Ex.T``. The linear kernel is an outer sum of per-axis
    terms around the center c = sum_j alpha_j x_j.
    """
    if model.dim != 2:
        raise DimensionError(
            f"lattice scoring needs a 2-D model, this one has {model.dim} features"
        )
    xs = _kernel._as_vector(xs, "xs")
    ys = _kernel._as_vector(ys, "ys")
    sv = model.support_vectors
    sv_alphas = model.sv_alphas()
    if model.spec.kind == GAUSSIAN:
        # cross_kernel's arithmetic without its input checks (20 us a call)
        ey = _kernel._gaussian(_kernel.squared_distances(ys[:, None], sv[:, 1:]), model.spec.s)
        ey *= sv_alphas
        ex = _kernel._gaussian(_kernel.squared_distances(xs[:, None], sv[:, :1]), model.spec.s)
        dist_sq = ey @ ex.T
        # 1 - 2 w + quad, rounded in the order score_distances uses
        dist_sq *= -2.0
        dist_sq += 1.0
    else:
        cx, cy = sv_alphas @ sv
        dist_sq = np.add.outer(ys * ys, xs * xs) - 2.0 * np.add.outer(ys * cy, xs * cx)
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


def position_report(model: SvddModel, tolerance: float | None = None) -> PositionReport:
    """Classify every training point from its alpha and cross-check distances.

    inside: alpha ~ 0, boundary: 0 < alpha < C, outside: alpha ~ C. The
    distance consistency (inside => dist^2 <= R^2 + tol, boundary =>
    |dist^2 - R^2| <= tol, outside => dist^2 >= R^2 - tol) is verified and
    a violation raises NumericalError, since it can only come from an
    unconverged solve.
    """
    tol = 10.0 * model.config.kkt_tol if tolerance is None else tolerance
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
