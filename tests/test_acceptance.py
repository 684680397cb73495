"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Slow full-pipeline criteria (benchmark shapes, polygon study) live here
rather than in the per-module suites.
"""

import math
import os
import time

import numpy as np
import pytest

from svddpeak.baselines import select_md
from svddpeak.datagen import generate_shape, shape_truth_grid
from svddpeak.errors import NoPeakFoundError
from svddpeak.evaluation import f1_sweep, polygon_study
from svddpeak.kernel import GAUSSIAN, KernelSpec, kernel_matrix
from svddpeak.smoothing import SplineConfig, fit_pspline
from svddpeak.solver import SolverConfig, position_report, train
from svddpeak.tuning import BandwidthGrid, find_peak, sweep_objective

from oracles import simplex_grid_max
from test_tuning import NARRATIVE_SPLINE, alternating, banana_narrative_d2, constructed_curve

LOW_GRID = BandwidthGrid.low_dimensional()
SHUTTLE_ENV = "SVDD_PEAK_SHUTTLE"


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_two_point_analytic_oracle():
    start = time.time()
    model = train(
        np.array([[0.0, 0.0], [2.0, 0.0]]), KernelSpec(GAUSSIAN, 2.0), SolverConfig(f=0.1)
    )
    expected = 0.5 - 0.5 * math.exp(-0.5)
    elapsed = time.time() - start
    ok = (
        np.allclose(model.alphas, [0.5, 0.5], atol=1e-8)
        and abs(model.r_squared - expected) <= 1e-8
        and abs(model.dual_objective - expected) <= 1e-8
        and abs(expected - 0.1967346701) <= 1e-9
        and elapsed < 1.0
    )
    report(1, ok, f"(alpha, R^2, V* within 1e-8; {elapsed:.3f}s)")


def test_criterion_02_brute_force_qp_equivalence():
    start = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 5))
        X = rng.normal(size=(n, 2))
        s = float(rng.uniform(0.5, 3.0))
        f = float(rng.choice([0.2, 0.5]))
        spec = KernelSpec(GAUSSIAN, s)
        model = train(X, spec, SolverConfig(f=f))
        best, _ = simplex_grid_max(kernel_matrix(X, spec), C=1.0 / (n * f), step=1e-3)
        worst = max(worst, abs(model.dual_objective - best))
    elapsed = time.time() - start
    report(2, worst <= 1e-4 and elapsed < 60.0,
           f"(50 datasets, worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_sweep_monotonicity_and_bounds():
    start = time.time()
    rng = np.random.default_rng(31)
    worst_rise = -np.inf
    for trial in range(6):
        n = int(rng.integers(10, 40))
        X = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        f = float(rng.choice([0.01, 0.05, 0.2]))
        curve = sweep_objective(X, f, BandwidthGrid(0.2, 4.0, 0.1))
        rises = np.diff(curve.v_star)
        worst_rise = max(worst_rise, float(rises.max()))
        assert np.all(rises <= 1e-7)
        assert curve.v_star.min() >= -1e-9
        assert curve.v_star.max() <= 1.0 - 1.0 / n + 1e-9
    elapsed = time.time() - start
    report(3, elapsed < 60.0, f"(6 sweeps, worst rise {worst_rise:.2e}, {elapsed:.1f}s)")


def test_criterion_04_duality_positions_agree_with_distances():
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, int(rng.integers(2, 4))))
        model = train(
            X,
            KernelSpec(GAUSSIAN, float(rng.uniform(0.4, 2.5))),
            SolverConfig(f=float(rng.uniform(0.05, 0.5))),
        )
        rep = position_report(model)  # raises if any position disagrees
        tol, r2 = rep.tolerance, rep.r_squared
        for pos, d in zip(rep.positions, rep.distances):
            if pos == "inside":
                assert d <= r2 + tol
            elif pos == "boundary":
                assert abs(d - r2) <= tol
            else:
                assert d >= r2 - tol
            checked += 1
    report(4, True, f"({checked} observations across 20 datasets, 100% agreement)")


@pytest.mark.parametrize("kind,seed", [("banana", 11), ("star", 22), ("three_cluster", 33)])
def test_criterion_05_benchmark_shapes(kind, seed):
    start = time.time()
    X = generate_shape(kind, seed=seed)
    # one solve per bandwidth: the labeled sweep's V* equals the tuning
    # sweep's (tests/test_evaluation.py::test_v_star_matches_warm_tuning_sweep)
    sweep = f1_sweep(X, shape_truth_grid(kind, X), LOW_GRID, 0.001)
    peak, _, _, ratio = sweep.peak_ratio()
    assert LOW_GRID.s_min < peak.s_low <= peak.s_high < LOW_GRID.s_max
    md = select_md(X).s
    elapsed = time.time() - start
    ok = ratio >= 0.9 and md > peak.s_high and elapsed < 200.0
    report(
        5,
        ok,
        f"({kind}: peak [{peak.s_low:.2f}, {peak.s_high:.2f}], F1 ratio {ratio:.3f}, "
        f"MD {md:.2f} > s_high, {elapsed:.0f}s)",
    )


def test_criterion_06_polygon_study_desk_scale():
    start = time.time()
    study = polygon_study(
        vertex_counts=[5, 10, 15],
        polygons_per_count=5,
        sample_size=600,
        grid=LOW_GRID,
        master_seed=20240501,
        jobs=2,
    )
    elapsed = time.time() - start
    assert not study.failures, [f.error for f in study.failures]
    ratios = study.ratios()
    ok = (
        ratios.size == 15
        and float(ratios.min()) >= 0.85
        and float(ratios.mean()) >= 0.9
        and elapsed < 900.0
    )
    report(
        6,
        ok,
        f"(15 polygons: min ratio {ratios.min():.3f}, mean {ratios.mean():.3f}, {elapsed:.0f}s)",
    )


def test_criterion_07_shuttle_protocol():
    path = os.environ.get(SHUTTLE_ENV) or (
        "data/shuttle.trn" if os.path.exists("data/shuttle.trn") else None
    )
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 7: SKIP (UCI shuttle file not present; "
              f"set {SHUTTLE_ENV} to enable)")
        pytest.skip(f"shuttle data not available; set {SHUTTLE_ENV}")
    from svddpeak.cli import ingest_shuttle, sample_shuttle_class1

    start = time.time()
    X, labels = ingest_shuttle(path)
    sample = sample_shuttle_class1(X, labels, 2000, seed=20240501)
    grid = BandwidthGrid.high_dimensional()
    sweep = f1_sweep(sample, (X, labels == 1), grid, 0.001)
    peak, _, _, ratio = sweep.peak_ratio()
    elapsed = time.time() - start
    overlap = peak.s_low <= 25.0 and peak.s_high >= 10.0
    ok = overlap and ratio >= 0.9 and elapsed < 1800.0
    report(
        7,
        ok,
        f"(peak [{peak.s_low:.0f}, {peak.s_high:.0f}] vs [10, 25], ratio {ratio:.3f}, "
        f"{elapsed:.0f}s)",
    )


def test_criterion_08_md_closed_form():
    result = select_md(np.array([[0.0, 0.0], [2.0, 0.0]]), f=0.001)
    # independent high-precision evaluation of the closed form:
    # d_max = 2, delta = 1/(2 * 0.999 + 1), s = d_max / sqrt(-ln delta)
    expected = 2.0 / math.sqrt(math.log(2.998))
    ok = abs(result.s - expected) <= 1e-6
    report(8, ok, f"(s = {result.s:.7f} vs closed form {expected:.7f})")


def test_criterion_09_pspline_properties():
    start = time.time()
    x = np.linspace(0.0, 3.0, 40)
    const = fit_pspline(x, np.full(40, 1.25), SplineConfig(lam=5.0))
    assert np.abs(const.fitted - 1.25).max() <= 1e-8
    line = 0.75 * x - 2.0
    linear = fit_pspline(x, line, SplineConfig(lam=50.0, penalty_order=2))
    assert np.abs(linear.fitted - line).max() <= 1e-8
    rng = np.random.default_rng(9)
    y = np.sin(2.0 * x) + rng.normal(0.0, 0.15, 40)
    heavy = fit_pspline(x, y, SplineConfig(lam=1e8))
    A = np.column_stack([np.ones(40), x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert np.abs(heavy.fitted - A @ coef).max() <= 1e-4
    lams = [10.0**k for k in range(-6, 7)]
    edfs = [fit_pspline(x, y, SplineConfig(lam=lam)).effective_df for lam in lams]
    assert np.all(np.diff(edfs) <= 1e-9)
    elapsed = time.time() - start
    report(9, elapsed < 10.0, f"(constant/linear exact, OLS limit, edf monotone, {elapsed:.1f}s)")


def test_criterion_10_peak_detector_constructed_curves():
    narrative = find_peak(constructed_curve(banana_narrative_d2()), NARRATIVE_SPLINE)
    exact_window = (
        abs(narrative.s_low - 0.5) < 1e-12
        and abs(narrative.s_high - 0.85) < 1e-12
        and abs(narrative.recommended - 0.675) < 1e-12
    )
    interior = LOW_GRID.values()[1:-1]
    full = find_peak(constructed_curve(alternating(interior.size, 0.08)), NARRATIVE_SPLINE)
    full_grid = (
        abs(full.s_low - interior[0]) < 1e-12
        and abs(full.s_high - interior[-1]) < 1e-12
        and abs(full.recommended - 0.5 * (interior[0] + interior[-1])) < 1e-12
    )
    try:
        find_peak(
            constructed_curve(-1.0 + alternating(interior.size, 0.01)), NARRATIVE_SPLINE
        )
        never_zero_raises = False
    except NoPeakFoundError:
        never_zero_raises = True
    ok = exact_window and full_grid and never_zero_raises
    report(10, ok, "(narrative [0.5, 0.85]; whole-grid; NoPeakFoundError)")
