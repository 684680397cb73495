"""Bandwidth selection from the optimal dual objective curve.

Sweep the Gaussian bandwidth over a grid, record the optimal dual
objective V*(s) of each solve, estimate its first and second derivatives
by central differences, smooth the second derivative with a penalized
B-spline, and pick the first interval where the smoothed curve's
confidence band contains zero: the first critical region of the first
derivative. The recommended bandwidth is the interval midpoint.

V*(s) is non-increasing in s for the Gaussian kernel (every kernel entry
grows with s while the weights stay on the simplex), and is bounded by
[0, 1 - 1/n]; both facts are asserted on every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import solver as _solver
from .errors import InputError, NoPeakFoundError, SvddError, SweepError
from .kernel import as_data_matrix
from .smoothing import SplineConfig, SplineFit, ci_contains_zero, fit_pspline
from .solver import SolverConfig

# slack for the non-increasing check: adjacent solves may each sit within
# solver tolerance of their own optimum
MONOTONICITY_SLACK = 1e-7
DEFAULT_MIN_RUN = 3
# the fewest interior grid points (second differences) find_peak smooths
MIN_INTERIOR_POINTS = 10

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
        if self.s_min <= 0 or self.s_max <= 0 or self.step <= 0:
            raise InputError("grid endpoints and step must be positive")
        if self.s_min >= self.s_max:
            raise InputError("need s_min < s_max")

    def values(self) -> np.ndarray:
        count = int(np.floor((self.s_max - self.s_min) / self.step + 1e-9)) + 1
        return self.s_min + self.step * np.arange(count)

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
    f: float

    @property
    def interior_s(self) -> np.ndarray:
        return self.s_values[1:-1]


@dataclass
class PeakResult:
    s_low: float
    s_high: float
    recommended: float
    fit: SplineFit
    zero_mask: np.ndarray

    @property
    def interval(self) -> tuple:
        return (self.s_low, self.s_high)


def _resolve_config(f, config) -> SolverConfig:
    if config is None:
        return SolverConfig(f=f)
    if config.f != f:
        raise InputError(
            f"outlier fraction mismatch: f={f!r} but config.f={config.f!r}"
        )
    return config


def _v_star(s, result) -> float:
    """V* of one ``train_path`` result; a failed solve is a SweepError at s."""
    if isinstance(result, SvddError):
        raise SweepError(f"sweep solve failed at s={s:g}: {result}", s=s) from result
    return result.dual_objective


def _path_v_star(X, config, s_values) -> list:
    """V* along one ``train_path`` over ``s_values``; a process-pool task."""
    return [_v_star(s, result) for s, result in _solver.train_path(X, s_values, config)]


def sweep_objective(
    X,
    f: float,
    grid: BandwidthGrid,
    config: SolverConfig | None = None,
    warm_start: bool = True,
    jobs: int = 1,
) -> ObjectiveCurve:
    """Train across the bandwidth grid and record V*(s) with derivatives.

    The solves run along one ``solver.train_path``, in warm runs of
    ``solver.WARM_RUN`` solves. With jobs > 1 the grid is cut at the
    runs' starts and the runs are shared out to a process pool, so the
    curve has the same bits for any worker count. ``warm_start=False``
    cuts the grid into runs of one value instead: every solve cold.
    """
    X = as_data_matrix(X)
    config = _resolve_config(f, config)
    s_values = grid.values()
    if warm_start and jobs == 1:
        # train_path makes the runs itself, on one distance matrix
        runs = [s_values]
    else:
        run = _solver.WARM_RUN if warm_start else 1
        runs = [s_values[start:start + run] for start in range(0, s_values.size, run)]
    task = partial(_path_v_star, X, config)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            v_star = [v for chunk in pool.map(task, runs) for v in chunk]
    else:
        v_star = [v for chunk in map(task, runs) for v in chunk]
    return _sweep_curve(s_values, v_star, f, X.shape[0])


def curve_from_samples(s_values, v_star, f: float) -> ObjectiveCurve:
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
    return ObjectiveCurve(s_values=s_values, v_star=v_star, d1=d1, d2=d2, f=f)


def _sweep_curve(s_values, v_star, f: float, n: int) -> ObjectiveCurve:
    """The curve of a sweep over n training rows, checked: SweepError unless
    V* is non-increasing and stays within [0, 1 - 1/n]."""
    curve = curve_from_samples(s_values, v_star, f)
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
    upper = 1.0 - 1.0 / n
    if float(v_star.min()) < -1e-9 or float(v_star.max()) > upper + 1e-9:
        raise SweepError(
            f"V*(s) left its theoretical range [0, {upper:g}]",
            s=float(s_values[int(np.argmax(v_star))]),
        )
    return curve


def require_peak_grid(s_values) -> None:
    """InputError unless the grid ``s_values`` has enough interior points
    for ``find_peak``; the peak path checks this before its first solve."""
    interior = max(len(s_values) - 2, 0)
    if interior < MIN_INTERIOR_POINTS:
        raise InputError(f"grid too coarse: the peak criterion needs at least "
                         f"{MIN_INTERIOR_POINTS} interior grid points, got {interior}")


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
    contiguous run of at least ``min_run`` masked points as an interval.
    """
    require_peak_grid(curve.s_values)
    interior = curve.interior_s
    if min_run < 1:
        raise InputError("min_run must be at least 1")
    fit = fit_pspline(interior, curve.d2, spline_config or D2_SPLINE_DEFAULT)
    mask = ci_contains_zero(fit)
    runs = _zero_runs(mask)
    run = next(((start, stop) for start, stop in runs if stop - start >= min_run), None)
    if run is None:
        # the closest near-plateau: the longest run, the first of equal ones
        longest = max(runs, key=lambda r: r[1] - r[0], default=None)
        if longest is None:
            length, s_range, found = 0, None, "no grid point has one"
        else:
            length = longest[1] - longest[0]
            s_range = (float(interior[longest[0]]), float(interior[longest[1] - 1]))
            found = f"the longest has {length}, at s in [{s_range[0]:g}, {s_range[1]:g}]"
        raise NoPeakFoundError(
            f"no run of {min_run}+ grid points with a zero-straddling band; {found}",
            zero_mask=mask,
            fit=fit,
            longest_run=s_range,
            longest_run_length=length,
            min_run=min_run,
        )
    start, stop = run
    s_low = float(interior[start])
    s_high = float(interior[stop - 1])
    return PeakResult(
        s_low=s_low,
        s_high=s_high,
        recommended=0.5 * (s_low + s_high),
        fit=fit,
        zero_mask=mask,
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
    for ``find_peak`` raises InputError before any solve."""
    grid = grid or BandwidthGrid.low_dimensional()
    require_peak_grid(grid.values())
    curve = sweep_objective(X, f, grid, config=config, jobs=jobs)
    return find_peak(curve, min_run=min_run)
