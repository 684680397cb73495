"""F1-based evaluation: grid scoring, labeled bandwidth sweeps, and the
random-polygon simulation study.

The positive class is "inside"/"inlier" throughout. Precision, recall,
and F1 use the zero-denominator-means-zero convention so degenerate
sweeps stay aggregable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import solver as _solver
from .datagen import (
    LabeledGrid,
    PolygonConfig,
    generate_polygon,
    make_labeled_grid,
    sample_interior,
)
from .errors import DimensionError, InputError, SvddError, SweepError
from .kernel import as_data_matrix
from .solver import SolverConfig, SvddModel
from .tuning import (
    DEFAULT_MIN_RUN,
    BandwidthGrid,
    ObjectiveCurve,
    _resolve_config,
    _sweep_curve,
    find_peak,
    require_peak_grid,
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise InputError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    """Precision, recall, and their harmonic mean; 0 on empty denominators."""
    p_den = counts.tp + counts.fp
    r_den = counts.tp + counts.fn
    precision = counts.tp / p_den if p_den else 0.0
    recall = counts.tp / r_den if r_den else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1)


def _confusion(predicted_inlier, truth) -> ConfusionCounts:
    tp = int(np.count_nonzero(predicted_inlier & truth))
    predicted = int(np.count_nonzero(predicted_inlier))
    inside = int(np.count_nonzero(truth))
    return ConfusionCounts(tp=tp, fp=predicted - tp, fn=inside - tp,
                           tn=truth.size - predicted - inside + tp)


def score_grid(model: SvddModel, grid: LabeledGrid):
    """Classify every lattice cell; count against the ground-truth labels."""
    distances, truth = _scoring_set(grid, model.dim)
    predicted_inlier = distances(model) <= model.r_squared
    return predicted_inlier, _confusion(predicted_inlier, truth)


def _scoring_set(labeled, dim: int):
    """(dist^2 function of a model, truth labels) of a labeled set.

    A LabeledGrid is scored through its axes (``solver.score_lattice``), a
    (points, labels) pair row by row (``solver.score_distances``). Raises
    DimensionError unless the set's points have ``dim`` features.
    """
    if isinstance(labeled, LabeledGrid):
        points_dim = 2
        truth = labeled.labels

        def distances(model):
            return _solver.score_lattice(model, labeled.xs, labeled.ys)
    else:
        points, labels = labeled
        points = as_data_matrix(points, name="scoring set")
        points_dim = points.shape[1]
        truth = np.asarray(labels, dtype=bool)
        if truth.shape != (points.shape[0],):
            raise InputError(
                f"the scoring set has {points.shape[0]} rows but labels of shape {truth.shape}"
            )

        def distances(model):
            return _solver.score_distances(model, points)
    if points_dim != dim:
        raise DimensionError(
            f"scoring points have {points_dim} feature(s), training rows have {dim}"
        )
    return distances, truth


@dataclass
class F1SweepResult:
    s_values: np.ndarray
    metrics: list
    s_best: float
    f_best: float
    v_star: np.ndarray  # optimal dual objective of each solve, aligned with s_values
    failures: list = field(default_factory=list)  # (s, message) pairs

    def f1_curve(self) -> np.ndarray:
        return np.array([m.f1 for m in self.metrics])

    def f1_at(self, s: float) -> float:
        idx = int(np.argmin(np.abs(self.s_values - s)))
        if abs(float(self.s_values[idx]) - s) > 1e-9:
            raise InputError(f"s={s!r} is not on the sweep grid")
        return self.metrics[idx].f1

    def objective_curve(self, f: float, n: int) -> ObjectiveCurve:
        """V*(s) of the sweep's own solves, checked like a tuning sweep.

        A failed solve leaves a hole in the uniform grid, so any failure
        raises SweepError instead.
        """
        if self.failures:
            s, message = self.failures[0]
            raise SweepError(
                f"{len(self.failures)} labeled-sweep solve(s) failed, first at s={s:g}: {message}",
                s=s,
            )
        return _sweep_curve(self.s_values, self.v_star, f, n)

    def peak_ratio(self, f: float, n: int, min_run: int = DEFAULT_MIN_RUN):
        """(peak, s_recommended, f_peak, ratio): the plateau of this sweep's own
        V*(s) (else SweepError or NoPeakFoundError), its midpoint snapped to the
        grid, its F1, and that over the best F1 (at most 1; 0 when the best is 0)."""
        peak = find_peak(self.objective_curve(f, n), min_run=min_run)
        snapped = float(self.s_values[int(np.argmin(np.abs(self.s_values - peak.recommended)))])
        f_peak = self.f1_at(snapped)
        return peak, snapped, f_peak, f_peak / self.f_best if self.f_best > 0 else 0.0


def f1_sweep(
    train_X,
    labeled,
    s_grid: BandwidthGrid,
    f: float,
    config: SolverConfig | None = None,
) -> F1SweepResult:
    """Train per grid bandwidth, score the labeled set, return the F1 curve.

    ``labeled`` is a LabeledGrid or a (points, labels) pair; a scoring
    set of another dimension than ``train_X`` raises DimensionError
    before any solve. The models come from one ``solver.train_path``,
    the sweep ``tuning.sweep_objective`` makes, and each also records its
    V*(s), so one sweep serves both the F1 curve and the objective curve.
    Bandwidths whose solve or scoring fails are excluded from the curve
    and recorded in ``failures``; if all fail, SweepError is raised. The
    argmax ties toward the smallest bandwidth.
    """
    X = as_data_matrix(train_X)
    config = _resolve_config(f, config)
    distances, truth = _scoring_set(labeled, X.shape[1])
    kept_s = []
    v_star = []
    metrics = []
    failures = []
    for s, model in _solver.train_path(X, s_grid.values(), config):
        try:
            if isinstance(model, SvddError):
                raise model
            dist_sq = distances(model)
        except SvddError as exc:
            failures.append((s, str(exc)))
            continue
        kept_s.append(s)
        v_star.append(model.dual_objective)
        metrics.append(compute_metrics(_confusion(dist_sq <= model.r_squared, truth)))
    if not kept_s:
        raise SweepError("every bandwidth in the labeled sweep failed")
    s_arr = np.array(kept_s)
    f1s = np.array([m.f1 for m in metrics])
    best = int(np.argmax(f1s))  # first max = smallest s on ties
    return F1SweepResult(
        s_values=s_arr,
        metrics=metrics,
        s_best=float(s_arr[best]),
        f_best=float(f1s[best]),
        v_star=np.array(v_star),
        failures=failures,
    )


@dataclass
class StudyRow:
    vertex_count: int
    polygon_index: int
    seed: int
    s_peak_low: float
    s_peak_high: float
    s_recommended: float
    f_peak: float
    s_best: float
    f_best: float
    ratio: float


@dataclass
class StudyFailure:
    vertex_count: int
    polygon_index: int
    seed: int
    error: str


@dataclass
class StudySummary:
    vertex_count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


@dataclass
class SimulationReport:
    rows: list
    failures: list
    summaries: list
    grid: BandwidthGrid
    f: float
    sample_size: int

    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.rows])


def _polygon_seed(master_seed, vertex_count, index) -> int:
    # legible, collision-free derivation; recorded per row for replay
    return master_seed * 100_000 + vertex_count * 100 + index


def _polygon_task(key, *, sample_size, grid, f, r_min, r_max, resolution, min_run,
                  solver_config):
    """One polygon's full pipeline; ``key`` is (vertex_count, index, seed).
    Module-level so worker pools can pickle it."""
    vc, idx, seed = key
    polygon = generate_polygon(PolygonConfig(k=vc, r_min=r_min, r_max=r_max, seed=seed))
    X = sample_interior(polygon, sample_size, seed + 50_000)
    labeled = make_labeled_grid(polygon, resolution)
    try:
        # one solve per bandwidth gives both V*(s) and the lattice F1
        sweep = f1_sweep(X, labeled, grid, f, config=solver_config)
        peak, snapped, f_peak, ratio = sweep.peak_ratio(f, X.shape[0], min_run=min_run)
    except SvddError as exc:
        return StudyFailure(vertex_count=vc, polygon_index=idx, seed=seed, error=str(exc))
    return StudyRow(
        vertex_count=vc,
        polygon_index=idx,
        seed=seed,
        s_peak_low=peak.s_low,
        s_peak_high=peak.s_high,
        s_recommended=snapped,
        f_peak=f_peak,
        s_best=sweep.s_best,
        f_best=sweep.f_best,
        ratio=ratio,
    )


def polygon_study(
    vertex_counts,
    polygons_per_count: int,
    sample_size: int = 600,
    grid: BandwidthGrid | None = None,
    master_seed: int = 20240501,
    f: float = 0.001,
    r_min: float = 3.0,
    r_max: float = 5.0,
    resolution=(200, 200),
    min_run: int = DEFAULT_MIN_RUN,
    solver_config: SolverConfig | None = None,
    jobs: int = 1,
) -> SimulationReport:
    """F1-ratio study on random polygons.

    For each polygon: sample its interior, pick a bandwidth from the
    objective-curve plateau, evaluate its F1 on the labeled bounding-box
    lattice, and divide by the best F1 over the full labeled sweep. The
    plateau midpoint is snapped to the sweep grid, so every ratio is at
    most 1 by construction. Each bandwidth is solved once: the same
    sweep gives V*(s) for the plateau and F1 for the ratio.
    Polygons where a solve fails or no plateau exists are recorded as
    failure rows, never dropped silently.

    Polygons are independent work units; with jobs > 1 they run in a
    process pool, and the report does not depend on the worker count.
    A vertex count given twice, or a grid too short for ``find_peak``,
    raises InputError before any solve.
    """
    vertex_counts = list(vertex_counts)
    repeated = sorted({vc for vc in vertex_counts if vertex_counts.count(vc) > 1})
    if repeated:
        raise InputError(f"vertex counts must be distinct, {repeated} repeat")
    grid = grid or BandwidthGrid.low_dimensional()
    require_peak_grid(grid.values())
    task = partial(_polygon_task, sample_size=sample_size, grid=grid, f=f, r_min=r_min,
                   r_max=r_max, resolution=resolution, min_run=min_run,
                   solver_config=solver_config)
    keys = [(vc, idx, _polygon_seed(master_seed, vc, idx))
            for vc in vertex_counts for idx in range(polygons_per_count)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(task, keys))
    else:
        outcomes = list(map(task, keys))
    rows = [o for o in outcomes if isinstance(o, StudyRow)]
    failures = [o for o in outcomes if isinstance(o, StudyFailure)]
    summaries = []
    for vc in vertex_counts:
        vals = np.array([r.ratio for r in rows if r.vertex_count == vc])
        if vals.size == 0:
            continue
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        summaries.append(
            StudySummary(
                vertex_count=vc,
                minimum=float(vals.min()),
                q1=float(q1),
                median=float(med),
                q3=float(q3),
                maximum=float(vals.max()),
                mean=float(vals.mean()),
            )
        )
    return SimulationReport(
        rows=rows,
        failures=failures,
        summaries=summaries,
        grid=grid,
        f=f,
        sample_size=sample_size,
    )
