"""F1-based evaluation: grid scoring, labeled bandwidth sweeps, and the
random-polygon simulation study.

The positive class is "inside"/"inlier" throughout. Precision, recall,
and F1 use the zero-denominator-means-zero convention so degenerate
sweeps stay aggregable.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .errors import DimensionError, InputError, SvddError
from .kernel import as_data_matrix
from .solver import SolverConfig, SvddModel
from .tuning import (
    DEFAULT_MIN_RUN,
    BandwidthGrid,
    Sweep,
    _path_sweep,
    _resolve_config,
    find_peak,
    pool_map,
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
class F1SweepResult(Sweep):
    """A labeled sweep: ``metrics`` holds the Metrics of each kept solve,
    ``f_best`` the best F1 and ``s_best`` the smallest bandwidth scoring it."""

    s_best: float
    f_best: float

    def f1_curve(self) -> np.ndarray:
        return np.array([m.f1 for m in self.metrics])

    def peak_ratio(self, min_run: int = DEFAULT_MIN_RUN):
        """(peak, s_recommended, f_peak, ratio): the plateau of this sweep's own
        V*(s) (else SweepError or NoPeakFoundError), its pick (``find_peak``'s
        middle grid point), the pick's F1, and that over the best F1 (at most
        1; 0 when the best is 0)."""
        peak = find_peak(self.objective_curve(), min_run=min_run)
        f_peak = self.metrics[peak.pick_index].f1
        return peak, peak.pick, f_peak, f_peak / self.f_best if self.f_best > 0 else 0.0


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
    before any solve. The sweep is the loop ``tuning.sweep_objective``
    runs, ``tuning._path_sweep``, scoring each model as it goes, so one
    sweep serves both the F1 curve and the objective curve
    (``objective_curve``). The first failed solve raises its SweepError.
    The argmax ties toward the smallest bandwidth.
    """
    X = as_data_matrix(train_X)
    config = _resolve_config(f, config)
    distances, truth = _scoring_set(labeled, X.shape[1])

    def score(model):
        return compute_metrics(_confusion(distances(model) <= model.r_squared, truth))

    sweep = _path_sweep(X, config, score, s_grid.values())
    f1s = np.array([m.f1 for m in sweep.metrics])
    best = int(np.argmax(f1s))  # first max = smallest s on ties
    return F1SweepResult(**vars(sweep), s_best=float(sweep.s_values[best]),
                         f_best=float(f1s[best]))


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

    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.rows])


def _polygon_seed(master_seed, vertex_count, index) -> int:
    # legible, recorded per row for replay. polygon_study's bounds (3 to 499
    # vertices, indices 0 to 99) keep polygon seeds in M * 10^5 + [300,
    # 49,999] and their sample seeds (+50,000) in M * 10^5 + [50,300,
    # 99,999], so no two collide, across master seeds M too
    return master_seed * 100_000 + vertex_count * 100 + index


def _polygon_task(key, *, sample_size, grid, f, resolution, min_run, solver_config):
    """One polygon's full pipeline; ``key`` is (vertex_count, index, seed).
    Module-level so worker pools can pickle it."""
    vc, idx, seed = key
    polygon = generate_polygon(PolygonConfig(k=vc, seed=seed))
    X = sample_interior(polygon, sample_size, seed + 50_000)
    labeled = make_labeled_grid(polygon, resolution)
    try:
        # one solve per bandwidth gives both V*(s) and the lattice F1
        sweep = f1_sweep(X, labeled, grid, f, config=solver_config)
        peak, pick, f_peak, ratio = sweep.peak_ratio(min_run=min_run)
    except SvddError as exc:
        return StudyFailure(vertex_count=vc, polygon_index=idx, seed=seed, error=str(exc))
    return StudyRow(
        vertex_count=vc,
        polygon_index=idx,
        seed=seed,
        s_peak_low=peak.s_low,
        s_peak_high=peak.s_high,
        s_recommended=pick,
        f_peak=f_peak,
        s_best=sweep.s_best,
        f_best=sweep.f_best,
        ratio=ratio,
    )


def _quartiles(values) -> list:
    """``np.percentile(values, [25, 50, 75])`` of a non-empty vector, bit
    for bit, without the ``numpy.ma`` import its first call costs: numpy's
    linear method, on the values partitioned where numpy partitions them,
    so that even the sign of a zero among tied zeros is numpy's."""
    n = values.size
    indexes = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    # past the last index numpy takes the last value, at weight index + 1
    lows = [int(index) if index < n - 1 else -1 for index in indexes]
    ordered = np.partition(values, sorted({0, n - 1, *(low % n for low in lows),
                                           *(low + 1 for low in lows)}))
    quartiles = []
    for index, low in zip(indexes, lows):
        t = index - low
        a, b = float(ordered[low]), float(ordered[low + 1])
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return quartiles


def polygon_study(
    vertex_counts,
    polygons_per_count: int,
    sample_size: int = 600,
    grid: BandwidthGrid | None = None,
    master_seed: int = 20240501,
    f: float = 0.001,
    resolution=(200, 200),
    min_run: int = DEFAULT_MIN_RUN,
    solver_config: SolverConfig | None = None,
    jobs: int = 1,
) -> SimulationReport:
    """F1-ratio study on random polygons.

    For each polygon: sample its interior, pick a bandwidth from the
    objective-curve plateau, evaluate its F1 on the labeled bounding-box
    lattice, and divide by the best F1 over the full labeled sweep. The
    bandwidth is the plateau's middle grid point (``find_peak``'s pick), so
    every ratio is at most 1 by construction. Each bandwidth is solved once: the same
    sweep gives V*(s) for the plateau and F1 for the ratio.
    Polygons where a solve fails or no plateau exists are recorded as
    failure rows, never dropped silently.

    Polygons are independent work units; with jobs > 1 they run in a
    process pool, and the report does not depend on the worker count.
    A vertex count below 3, above 499 or given twice, more than 100
    polygons per count (their seeds would collide), a sample of fewer
    than 2 rows, a grid too short for ``find_peak`` and a ``min_run``
    below 1 raise InputError before any polygon is drawn; a grid past
    the Gaussian range is refused when it is built.
    """
    vertex_counts = list(vertex_counts)
    repeated = sorted({vc for vc in vertex_counts if vertex_counts.count(vc) > 1})
    if repeated:
        raise InputError(f"vertex counts must be distinct, {repeated} repeat")
    if min(vertex_counts, default=3) < 3:
        raise InputError(f"polygons need at least 3 vertices, got {min(vertex_counts)}")
    if max(vertex_counts, default=3) > 499:
        raise InputError(f"polygons have at most 499 vertices, got {max(vertex_counts)}")
    if polygons_per_count > 100:
        raise InputError(f"at most 100 polygons per vertex count, got {polygons_per_count}")
    if sample_size < 2:
        raise InputError(f"a polygon's sample needs at least 2 rows, got {sample_size}")
    grid = grid or BandwidthGrid.low_dimensional()
    require_peak_grid(grid.values(), min_run)
    task = partial(_polygon_task, sample_size=sample_size, grid=grid, f=f,
                   resolution=resolution, min_run=min_run, solver_config=solver_config)
    keys = [(vc, idx, _polygon_seed(master_seed, vc, idx))
            for vc in vertex_counts for idx in range(polygons_per_count)]
    outcomes = pool_map(task, keys, jobs)
    rows = [o for o in outcomes if isinstance(o, StudyRow)]
    failures = [o for o in outcomes if isinstance(o, StudyFailure)]
    summaries = []
    for vc in vertex_counts:
        vals = np.array([r.ratio for r in rows if r.vertex_count == vc])
        if vals.size == 0:
            continue
        q1, med, q3 = _quartiles(vals)
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
    return SimulationReport(rows=rows, failures=failures, summaries=summaries)
