"""Bandwidth selection from the optimal dual objective curve.

Sweep the Gaussian bandwidth over a grid, record the optimal dual
objective V*(s) of each solve, estimate its first and second derivatives
by central differences, smooth the second derivative with a penalized
B-spline, and pick the first interval where the smoothed curve's
confidence band contains zero: the first critical region of the first
derivative. The recommended bandwidth is the interval's middle grid
point, the lower of the two middles on an even interval: V*(s) is known
only at grid points, and the paper's abstract does not say which point
of the interval it takes.

V*(s) is non-increasing in s for the Gaussian kernel (every kernel entry
grows with s while the weights stay on the simplex), and is bounded by
[0, 1 - 1/n]; both facts are asserted on every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import solver as _solver
from .errors import InputError, NoPeakFoundError, SweepError
from .kernel import KernelSpec, as_data_matrix, require_spread
from .smoothing import SplineConfig, SplineFit, ci_contains_zero, fit_pspline
from .solver import SolverConfig

# slack for the non-increasing check: adjacent solves may each sit within
# solver tolerance of their own optimum
MONOTONICITY_SLACK = 1e-7
DEFAULT_MIN_RUN = 3
# the fewest interior grid points (second differences) find_peak smooths
MIN_INTERIOR_POINTS = 10
# the most points a BandwidthGrid may have: one solve each, so 100,000 is
# far past any useful sweep, and the grid array stays under 1 MB
MAX_GRID_POINTS = 100_000

# Default smooth for the second-derivative curve: a fixed penalty, the
# SplineConfig default of 100, because generalized cross-validation badly
# undersmooths here. The d2 samples carry serially dependent active-set
# jitter, so the selector collapses to a near-interpolant whose band is
# too narrow to flag a plateau. This moderate penalty (scale-free, since
# fit and penalty are both quadratic in the response) with a denser basis
# was calibrated on the reconstructed benchmark shapes and random polygons.
D2_SPLINE_DEFAULT = SplineConfig(num_interior_knots=40)


@dataclass(frozen=True)
class BandwidthGrid:
    s_min: float
    s_max: float
    step: float

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.s_min, self.s_max, self.step)):
            raise InputError("grid endpoints and step must be positive and finite")
        if self.s_min >= self.s_max:
            raise InputError("need s_min < s_max")
        # inf when the quotient overflows, which fails the bound too
        points = self._point_count()
        if not points <= MAX_GRID_POINTS:
            raise InputError(f"the grid would have {points:g} points; "
                             f"at most {MAX_GRID_POINTS} are allowed")

    def _point_count(self) -> float:
        return np.floor((self.s_max - self.s_min) / self.step + 1e-9) + 1

    def values(self) -> np.ndarray:
        return self.s_min + self.step * np.arange(int(self._point_count()))

    @classmethod
    def low_dimensional(cls) -> "BandwidthGrid":
        return cls(0.05, 8.0, 0.05)

    @classmethod
    def high_dimensional(cls) -> "BandwidthGrid":
        return cls(1.0, 100.0, 1.0)


@dataclass
class ObjectiveCurve:
    """V*(s) samples plus central-difference derivative estimates.

    d1 and d2 live on the interior grid points s_values[1:-1].
    """

    s_values: np.ndarray
    v_star: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @property
    def interior_s(self) -> np.ndarray:
        return self.s_values[1:-1]


@dataclass
class Sweep:
    """The record of one bandwidth sweep over ``n`` training rows, every
    solve of which succeeded (a failed one ends the sweep before a record
    is built): ``s_values`` and ``v_star`` in grid order, and ``metrics``,
    what the sweep's ``score(model)`` returned for each (None without one).
    """

    s_values: np.ndarray
    v_star: np.ndarray
    metrics: list
    n: int

    def objective_curve(self) -> ObjectiveCurve:
        """The curve of this sweep, checked: SweepError unless V* is
        non-increasing and stays within [0, 1 - 1/n]."""
        curve = curve_from_samples(self.s_values, self.v_star)
        s_values, v_star = curve.s_values, curve.v_star
        increases = np.diff(v_star)
        worst = float(increases.max()) if increases.size else 0.0
        if worst > MONOTONICITY_SLACK:
            k = int(np.argmax(increases))
            raise SweepError(
                f"V*(s) increased by {worst:.3e} between s={s_values[k]:g} and "
                f"s={s_values[k + 1]:g}; the solver did not converge tightly enough",
                s=float(s_values[k + 1]),
            )
        upper = 1.0 - 1.0 / self.n
        outside = (v_star < -1e-9) | (v_star > upper + 1e-9)
        if outside.any():
            raise SweepError(
                f"V*(s) left its theoretical range [0, {upper:g}]",
                s=float(s_values[int(np.argmax(outside))]),
            )
        return curve


@dataclass
class PeakResult:
    """The first zero plateau of ``curve``'s smoothed second derivative,
    [``s_low``, ``s_high``]: ``pick``, the bandwidth every command takes,
    is its middle grid point ``curve.s_values[pick_index]``, and
    ``recommended`` its float midpoint, which no command reads."""

    s_low: float
    s_high: float
    recommended: float
    pick: float
    pick_index: int
    fit: SplineFit
    zero_mask: np.ndarray
    curve: ObjectiveCurve


def _resolve_config(f, config) -> SolverConfig:
    if config is None:
        return SolverConfig(f=f)
    if config.f != f:
        raise InputError(
            f"outlier fraction mismatch: f={f!r} but config.f={config.f!r}"
        )
    return config


def _path_sweep(X, config, score, s_values) -> Sweep:
    """The record of one ``solver.train_path`` over ``s_values``: the only
    loop over it, and a process-pool task. ``score(model)``, when given, is
    kept for each solve (None otherwise); no model is kept. The first
    failed solve raises its SweepError."""
    v_star, metrics = [], []
    for _, model in _solver.train_path(X, s_values, config):
        v_star.append(model.dual_objective)
        metrics.append(None if score is None else score(model))
    return Sweep(np.array(s_values, dtype=float), np.array(v_star), metrics, X.shape[0])


def pool_map(task, items, jobs: int) -> list:
    """``[task(item) for item in items]``, ``items`` a list. With jobs > 1
    and more than one item, the items are shared out to a pool of
    ``min(jobs, len(items))`` processes (a pool starts all its workers at
    the first task), so ``task`` must pickle."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return list(map(task, items))
    from concurrent import futures

    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


def sweep_objective(
    X,
    f: float,
    grid: BandwidthGrid,
    config: SolverConfig | None = None,
    warm_start: bool = True,
    jobs: int = 1,
) -> ObjectiveCurve:
    """Train across the bandwidth grid and record V*(s) with derivatives.

    The grid is cut into warm runs of ``solver.WARM_RUN`` values, one
    ``solver.train_path`` each; a whole path starts cold at those cuts
    too, so cutting changes no bit. With jobs > 1 the runs are shared out
    to a process pool. ``warm_start=False`` cuts the grid into runs of one
    value instead: every solve cold. The first failed solve raises its
    SweepError, across the process pool too, and no later bandwidth of
    its run is solved.
    """
    X = as_data_matrix(X)
    config = _resolve_config(f, config)
    s_values = grid.values()
    run = _solver.WARM_RUN if warm_start else 1
    runs = [s_values[start:start + run] for start in range(0, s_values.size, run)]
    parts = pool_map(partial(_path_sweep, X, config, None), runs, jobs)
    sweep = Sweep(np.concatenate([p.s_values for p in parts]),
                  np.concatenate([p.v_star for p in parts]),
                  [m for p in parts for m in p.metrics], X.shape[0])
    return sweep.objective_curve()


def curve_from_samples(s_values, v_star) -> ObjectiveCurve:
    """Build an ObjectiveCurve from presampled (s, V*) pairs.

    The grid must be uniform; d1 and d2 are central differences.
    """
    s_values = np.asarray(s_values, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    if s_values.ndim != 1 or s_values.shape != v_star.shape or s_values.size < 3:
        raise InputError("need matching 1-D s and V* arrays with at least 3 points")
    steps = np.diff(s_values)
    h = float(steps[0])
    if h <= 0 or not np.allclose(steps, h, rtol=0, atol=1e-9 * max(1.0, h)):
        raise InputError("s grid must be uniform and ascending")
    d1 = (v_star[2:] - v_star[:-2]) / (2.0 * h)
    d2 = (v_star[2:] - 2.0 * v_star[1:-1] + v_star[:-2]) / (h * h)
    return ObjectiveCurve(s_values=s_values, v_star=v_star, d1=d1, d2=d2)


def require_peak_grid(s_values, min_run: int = DEFAULT_MIN_RUN) -> None:
    """InputError unless the grid ``s_values`` has enough interior points
    for ``find_peak``, ``min_run`` is at least 1 and every grid value is a
    bandwidth ``KernelSpec`` takes; the peak path checks this before its
    first solve."""
    interior = max(len(s_values) - 2, 0)
    if interior < MIN_INTERIOR_POINTS:
        raise InputError(f"grid too coarse: the peak criterion needs at least "
                         f"{MIN_INTERIOR_POINTS} interior grid points, got {interior}")
    if min_run < 1:
        raise InputError("min_run must be at least 1")
    # 2 s^2 grows with s, so the two ends bound every point
    KernelSpec(s=float(s_values[0]))
    KernelSpec(s=float(s_values[-1]))


def _zero_runs(mask):
    """(start, stop) of each maximal True run of ``mask`` in order, stop
    exclusive."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.asarray(mask, np.int8), [0]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def find_peak(
    curve: ObjectiveCurve,
    spline_config: SplineConfig | None = None,
    min_run: int = DEFAULT_MIN_RUN,
) -> PeakResult:
    """Locate the first zero plateau of the smoothed second derivative.

    Fits the penalized B-spline to (s, d2) on the interior grid, masks
    the points whose confidence band contains zero, and returns the first
    contiguous run of at least ``min_run`` masked points as an interval,
    with its middle grid point, taken by index, as the pick. The result,
    or the NoPeakFoundError, carries ``curve``.
    """
    require_peak_grid(curve.s_values, min_run)
    interior = curve.interior_s
    fit = fit_pspline(interior, curve.d2, spline_config or D2_SPLINE_DEFAULT)
    mask = ci_contains_zero(fit)
    runs = _zero_runs(mask)
    run = next(((start, stop) for start, stop in runs if stop - start >= min_run), None)
    if run is None:
        # the closest near-plateau: the longest run, the first of equal ones
        longest = max(runs, key=lambda r: r[1] - r[0], default=None)
        if longest is None:
            found = "no grid point has one"
        else:
            start, stop = longest
            found = (f"the longest has {stop - start}, at s in "
                     f"[{interior[start]:g}, {interior[stop - 1]:g}]")
        raise NoPeakFoundError(
            f"no run of {min_run}+ grid points with a zero-straddling band; {found}",
            zero_mask=mask,
            fit=fit,
            curve=curve,
        )
    start, stop = run
    s_low = float(interior[start])
    s_high = float(interior[stop - 1])
    # interior[k] is s_values[k + 1]
    pick_index = (start + stop - 1) // 2 + 1
    return PeakResult(
        s_low=s_low,
        s_high=s_high,
        recommended=0.5 * (s_low + s_high),
        pick=float(curve.s_values[pick_index]),
        pick_index=pick_index,
        fit=fit,
        zero_mask=mask,
        curve=curve,
    )


def select_bandwidth_peak(
    X,
    f: float,
    grid: BandwidthGrid | None = None,
    config: SolverConfig | None = None,
    min_run: int = DEFAULT_MIN_RUN,
    jobs: int = 1,
) -> PeakResult:
    """Sweep the grid, then find the first zero plateau. A grid too short
    for ``find_peak`` or with an end out of the Gaussian range, or a
    ``min_run`` below 1, raises InputError, and
    rows that all coincide raise DegenerateInputError, before any
    solve."""
    grid = grid or BandwidthGrid.low_dimensional()
    require_peak_grid(grid.values(), min_run)
    X = as_data_matrix(X)
    require_spread(X)
    curve = sweep_objective(X, f, grid, config=config, jobs=jobs)
    return find_peak(curve, min_run=min_run)
