import re

import numpy as np
import pytest

import svddpeak.solver as solver
import svddpeak.tuning as tuning
from svddpeak.datagen import generate_shape
from svddpeak.errors import InputError, NoPeakFoundError, SweepError
from svddpeak.kernel import kernel_matrix_from_sq, squared_distance_matrix
from svddpeak.smoothing import SplineConfig
from svddpeak.solver import SolverConfig, train_path
from svddpeak.tuning import (
    BandwidthGrid,
    ObjectiveCurve,
    curve_from_samples,
    find_peak,
    select_bandwidth_peak,
    sweep_objective,
)

LOW_GRID = BandwidthGrid.low_dimensional()


def constructed_curve(d2, grid=LOW_GRID):
    s = grid.values()
    interior = s[1:-1]
    assert d2.shape == interior.shape
    return ObjectiveCurve(
        s_values=s,
        v_star=np.zeros_like(s),
        d1=np.zeros_like(interior),
        d2=d2,
    )


def alternating(n, amplitude):
    return amplitude * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def banana_narrative_d2(grid=LOW_GRID):
    """Ramps down to the zero plateau [0.5, 0.85] and up again, plus jitter.

    Tuned so the fitted band straddles zero exactly on the plateau's grid
    points: the plateau edges sit half a step outside the first/last
    plateau points and the ramps are steep enough to clear the band.
    """
    interior = grid.values()[1:-1]
    base = np.where(
        interior < 0.475,
        -20.0 * (0.475 - interior),
        np.where(interior > 0.875, 20.0 * (interior - 0.875), 0.0),
    )
    return base + alternating(interior.size, 0.08)


NARRATIVE_SPLINE = SplineConfig(num_interior_knots=100, lam=0.01)


class TestBandwidthGrid:
    def test_paper_style_grid_values(self):
        values = LOW_GRID.values()
        assert values.size == 160
        assert values[0] == pytest.approx(0.05, abs=1e-12)
        assert values[-1] == pytest.approx(8.0, abs=1e-12)
        assert np.allclose(np.diff(values), 0.05)

    def test_high_dimensional_grid(self):
        values = BandwidthGrid.high_dimensional().values()
        assert values[0] == 1.0 and values[-1] == 100.0 and values.size == 100

    def test_validation(self):
        with pytest.raises(InputError):
            BandwidthGrid(0.0, 1.0, 0.1)
        with pytest.raises(InputError):
            BandwidthGrid(2.0, 1.0, 0.1)
        # a short grid is a grid; only the peak criterion needs a long one
        assert BandwidthGrid(1.0, 1.5, 0.1).values().size == 6

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0, 0.1), (0.1, np.nan, 0.1),
                                        (0.1, 1.0, np.nan), (0.1, np.inf, 0.1),
                                        (0.1, 1.0, np.inf)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(InputError, match="positive and finite"):
            BandwidthGrid(*bounds)

    def test_point_count_is_bounded_before_any_array(self):
        assert BandwidthGrid(1.0, 100_000.0, 1.0).values().size == tuning.MAX_GRID_POINTS
        with pytest.raises(InputError, match="100001 points"):
            BandwidthGrid(1.0, 100_001.0, 1.0)
        # the step count overflows to inf
        with pytest.raises(InputError, match="inf points"):
            BandwidthGrid(1e-300, 1e300, 1e-300)

    @pytest.mark.parametrize("grid, interior", [
        (BandwidthGrid(1.0, 1.5, 0.1), 4),
        (BandwidthGrid(1.0, 2.0, 0.1), 9),
        (BandwidthGrid(1.0, 2.1, 0.1), 10),
        (BandwidthGrid(0.05, 8.0, 5.0), 0),
    ])
    def test_peak_grid_needs_ten_interior_points(self, grid, interior):
        assert grid.values().size - 2 == interior
        if interior >= tuning.MIN_INTERIOR_POINTS:
            tuning.require_peak_grid(grid.values())
        else:
            with pytest.raises(InputError, match=f"10 interior grid points, got {interior}$"):
                tuning.require_peak_grid(grid.values())


class TestSweepObjective:
    def test_two_point_analytic_curve(self, two_point_data):
        grid = BandwidthGrid(0.5, 2.5, 0.25)
        curve = sweep_objective(two_point_data, 0.1, grid)
        expected = 0.5 - 0.5 * np.exp(-2.0 / grid.values() ** 2)
        np.testing.assert_allclose(curve.v_star, expected, atol=1e-9)
        at_1 = curve.v_star[np.isclose(curve.s_values, 1.0)][0]
        at_2 = curve.v_star[np.isclose(curve.s_values, 2.0)][0]
        assert at_1 == pytest.approx(0.4323323584, abs=1e-9)
        assert at_2 == pytest.approx(0.1967346701, abs=1e-9)

    def test_monotone_and_bounded(self, rng):
        X = rng.normal(size=(25, 2))
        curve = sweep_objective(X, 0.05, BandwidthGrid(0.3, 4.0, 0.1))
        assert np.all(np.diff(curve.v_star) <= 1e-7)
        assert curve.v_star.min() >= -1e-9
        assert curve.v_star.max() <= 1.0 - 1.0 / 25 + 1e-9

    def test_differences_match_definition(self, two_point_data):
        grid = BandwidthGrid(0.5, 2.5, 0.25)
        curve = sweep_objective(two_point_data, 0.1, grid)
        v, h = curve.v_star, 0.25
        np.testing.assert_allclose(curve.d1, (v[2:] - v[:-2]) / (2 * h), atol=1e-15)
        np.testing.assert_allclose(curve.d2, (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2, atol=1e-15)
        assert curve.interior_s.shape == curve.d1.shape == curve.d2.shape

    def test_quadratic_samples_give_exact_constant_d2(self):
        s = np.arange(1.0, 3.01, 0.1)
        v = 0.7 - 0.2 * s + 0.05 * s**2
        curve = curve_from_samples(s, v)
        np.testing.assert_allclose(curve.d2, 0.1, atol=1e-8)

    @pytest.mark.parametrize("s, v", [([1.0, 1.1, 1.2], [0.3, 0.2]), ([1.0, 1.1], [0.3, 0.2]),
                                      ([[1.0, 1.1, 1.2]], [[0.3, 0.2, 0.1]])])
    def test_curve_needs_matching_vectors_of_three_points(self, s, v):
        with pytest.raises(InputError, match="at least 3 points"):
            curve_from_samples(s, v)

    @pytest.mark.parametrize("s", [[1.0, 1.1, 1.3, 1.4], [1.4, 1.3, 1.2, 1.1], [1.0] * 4])
    def test_curve_needs_a_uniform_ascending_grid(self, s):
        with pytest.raises(InputError, match="uniform and ascending"):
            curve_from_samples(s, [0.4, 0.3, 0.2, 0.1])

    def test_rising_v_star_is_a_sweep_error(self):
        s = np.arange(1.0, 2.01, 0.25)
        v = np.array([0.5, 0.4, 0.4 + 2 * tuning.MONOTONICITY_SLACK, 0.3, 0.2])
        message = "increased by 2.000e-07 between s=1.25 and s=1.5"
        with pytest.raises(SweepError, match=message) as err:
            tuning.Sweep(s, v, [None] * 5, 10).objective_curve()
        assert err.value.s == 1.5
        # a rise within the slack is solver tolerance
        v[2] = 0.4 + 0.5 * tuning.MONOTONICITY_SLACK
        assert tuning.Sweep(s, v, [None] * 5, 10).objective_curve().v_star[2] == v[2]

    @pytest.mark.parametrize("v, s_outside", [([0.9 + 1e-6, 0.8, 0.7, 0.6], 1.0),
                                              ([0.3, 0.2, 0.1, -1e-6], 2.5)],
                             ids=["v0", "v1"])
    def test_v_star_outside_its_range_is_a_sweep_error(self, v, s_outside):
        # ten rows: V* lies in [0, 0.9]; the error names the first s whose
        # V* is outside, not the s of the largest V*
        s = np.array([1.0, 1.5, 2.0, 2.5])
        with pytest.raises(SweepError, match=r"left its theoretical range \[0, 0.9\]") as err:
            tuning.Sweep(s, np.array(v), [None] * 4, 10).objective_curve()
        assert err.value.s == s_outside

    def test_sweep_error_identifies_bandwidth(self, rng):
        X = rng.normal(size=(40, 2))
        config = SolverConfig(f=0.05, kkt_tol=1e-14, max_iterations=2)
        with pytest.raises(SweepError) as err:
            sweep_objective(X, 0.05, BandwidthGrid(0.5, 2.0, 0.1), config=config)
        assert err.value.s == pytest.approx(0.5)

    def test_config_f_mismatch_rejected(self, two_point_data):
        with pytest.raises(InputError):
            sweep_objective(two_point_data, 0.1, LOW_GRID, config=SolverConfig(f=0.2))

    def test_parallel_matches_cold_sequential(self, rng):
        X = rng.normal(size=(30, 2))
        grid = BandwidthGrid(0.5, 3.0, 0.25)
        seq = sweep_objective(X, 0.05, grid, warm_start=False)
        par = sweep_objective(X, 0.05, grid, warm_start=False, jobs=2)
        np.testing.assert_array_equal(seq.v_star, par.v_star)
        # runs of one value: every solve cold
        cold = [train_path(X, [s], SolverConfig(f=0.05)) for s in grid.values()]
        np.testing.assert_array_equal(seq.v_star, [next(p)[1].dual_objective for p in cold])

    def test_warm_runs_give_the_same_bits_for_any_jobs(self, banana):
        # the default grid is four warm runs; pooled, each run is one task
        whole = [m.dual_objective for _, m in train_path(banana, LOW_GRID.values(),
                                                          SolverConfig(f=0.001))]
        for jobs in (1, 2, 3):
            curve = sweep_objective(banana, 0.001, LOW_GRID, jobs=jobs)
            np.testing.assert_array_equal(curve.v_star, whole)

    def test_pool_starts_no_more_workers_than_runs(self, two_point_data, monkeypatch):
        from concurrent import futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, task, items):
                return map(task, items)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
        # the default grid is four warm runs
        pooled = sweep_objective(two_point_data, 0.1, LOW_GRID, jobs=16)
        assert asked == [4]
        np.testing.assert_array_equal(pooled.v_star,
                                      sweep_objective(two_point_data, 0.1, LOW_GRID).v_star)
        # one item maps in-process
        assert tuning.pool_map(str, [7], jobs=16) == ["7"] and asked == [4]

    def test_parallel_sweep_error_names_bandwidth(self, rng):
        X = rng.normal(size=(40, 2))
        config = SolverConfig(f=0.05, kkt_tol=1e-14, max_iterations=2)
        with pytest.raises(SweepError, match="s=0.5"):
            sweep_objective(X, 0.05, BandwidthGrid(0.5, 2.0, 0.1), config=config, jobs=2)

    def test_capped_sweep_fails_alike_for_any_jobs(self, banana):
        # a cap of 400 fails solves in both warm runs of this grid, and not
        # all; the first failure ends the sweep, in a worker for jobs=2, and
        # its SweepError crosses the process pool whole
        grid, config = BandwidthGrid(0.05, 4.0, 0.05), SolverConfig(f=0.001, max_iterations=400)
        errors = []
        for jobs in (1, 2):
            with pytest.raises(SweepError) as err:
                sweep_objective(banana, 0.001, grid, config=config, jobs=jobs)
            errors.append((type(err.value), str(err.value), err.value.s))
        assert errors[0] == errors[1]
        assert errors[0][1].startswith("sweep solve failed at s=0.05: SMO did not reach")
        assert errors[0][2] == 0.05

    def test_first_failed_solve_ends_the_sweep(self, banana, monkeypatch):
        # the cold first solve of the first run fails; jobs=1 solves nothing
        # after it, in its run or in a later one
        solved = []
        real_smo = solver._solve_smo

        def counting_smo(*args, **kwargs):
            solved.append(1)
            return real_smo(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_smo", counting_smo)
        config = SolverConfig(f=0.001, max_iterations=400)
        with pytest.raises(SweepError, match="s=0.05"):
            sweep_objective(banana, 0.001, BandwidthGrid(0.05, 4.0, 0.05), config=config)
        assert len(solved) == 1


class TestFindPeak:
    def test_banana_narrative_band(self):
        curve = constructed_curve(banana_narrative_d2())
        result = find_peak(curve, NARRATIVE_SPLINE)
        assert result.s_low == pytest.approx(0.5, abs=1e-12)
        assert result.s_high == pytest.approx(0.85, abs=1e-12)
        assert result.recommended == pytest.approx(0.675, abs=1e-12)
        # the band straddles zero exactly on the plateau's grid points
        interior = curve.interior_s
        target = (interior >= 0.4999) & (interior <= 0.8501)
        np.testing.assert_array_equal(result.zero_mask, target)
        assert result.curve is curve

    def test_all_zero_returns_entire_grid(self):
        interior = LOW_GRID.values()[1:-1]
        curve = constructed_curve(alternating(interior.size, 0.08))
        result = find_peak(curve, NARRATIVE_SPLINE)
        assert result.s_low == pytest.approx(interior[0])
        assert result.s_high == pytest.approx(interior[-1])
        assert result.recommended == pytest.approx((interior[0] + interior[-1]) / 2)
        assert result.zero_mask.all()
        assert result.fit.se.min() > 0.0

    def test_never_zero_raises(self):
        interior = LOW_GRID.values()[1:-1]
        curve = constructed_curve(-1.0 + alternating(interior.size, 0.01))
        with pytest.raises(NoPeakFoundError) as err:
            find_peak(curve, NARRATIVE_SPLINE)
        assert err.value.zero_mask is not None
        assert not err.value.zero_mask.any()
        assert err.value.curve is curve
        assert str(err.value) == ("no run of 3+ grid points with a zero-straddling band; "
                                  "no grid point has one")

    def test_no_peak_names_the_longest_near_plateau(self, monkeypatch):
        interior = LOW_GRID.values()[1:-1]
        mask = np.zeros(interior.size, dtype=bool)
        mask[[3, 4]] = True
        mask[10:14] = True  # the first of two longest runs, min_run - 1 points
        mask[40:44] = True
        mask[-1] = True
        monkeypatch.setattr(tuning, "ci_contains_zero", lambda fit: mask)
        curve = constructed_curve(alternating(interior.size, 0.05))
        with pytest.raises(NoPeakFoundError) as err:
            find_peak(curve, NARRATIVE_SPLINE, min_run=5)
        assert str(err.value) == ("no run of 5+ grid points with a zero-straddling band; "
                                  f"the longest has 4, at s in [{interior[10]:g}, "
                                  f"{interior[13]:g}]")
        # one point fewer asked for, the same run is the peak
        result = find_peak(curve, NARRATIVE_SPLINE, min_run=4)
        assert (result.s_low, result.s_high) == (interior[10], interior[13])

    def test_short_crossing_skipped_by_min_run(self):
        # a steep transversal crossing touches zero on fewer than min_run
        # points and must not count as a plateau
        interior = LOW_GRID.values()[1:-1]
        d2 = np.where(interior < 2.0, -4.0 * (2.0 - interior), 0.25 * (interior - 2.0))
        d2 = d2 + alternating(interior.size, 0.02)
        result = find_peak(constructed_curve(d2), NARRATIVE_SPLINE, min_run=3)
        assert result.s_low >= 1.9

    def test_first_run_not_last(self):
        # two plateaus: the lower-s one wins even if the later is longer
        interior = LOW_GRID.values()[1:-1]
        in_first = (interior >= 0.999) & (interior <= 1.301)
        in_second = interior >= 4.999
        base = np.full(interior.size, -2.0)
        base[interior > 1.3] = 2.0
        base[in_first] = 0.0
        base[in_second] = 0.0
        d2 = base + alternating(interior.size, 0.08)
        result = find_peak(constructed_curve(d2), NARRATIVE_SPLINE)
        # the early plateau wins despite the much longer one at s >= 5;
        # edges may ring by one grid step at the wall discontinuities
        assert result.s_low == pytest.approx(1.0, abs=0.051)
        assert result.s_high == pytest.approx(1.3, abs=0.051)
        assert result.s_high < 2.0

    def test_append_tail_does_not_move_first_run(self):
        short = BandwidthGrid(0.05, 5.0, 0.05)
        d2_short = banana_narrative_d2(short)
        res_short = find_peak(constructed_curve(d2_short, short), NARRATIVE_SPLINE)
        res_long = find_peak(constructed_curve(banana_narrative_d2(), LOW_GRID), NARRATIVE_SPLINE)
        assert (res_short.s_low, res_short.s_high) == pytest.approx(
            (res_long.s_low, res_long.s_high), abs=1e-12)

    def test_too_few_interior_points(self):
        grid = BandwidthGrid(1.0, 1.9, 0.1)
        s = grid.values()
        curve = ObjectiveCurve(
            s_values=s,
            v_star=np.zeros_like(s),
            d1=np.zeros(s.size - 2),
            d2=np.zeros(s.size - 2),
        )
        with pytest.raises(InputError):
            find_peak(curve)

    def test_recommended_strictly_inside_grid(self):
        interior = LOW_GRID.values()[1:-1]
        curve = constructed_curve(alternating(interior.size, 0.05))
        result = find_peak(curve, NARRATIVE_SPLINE)
        assert LOW_GRID.s_min < result.recommended < LOW_GRID.s_max
        assert result.s_low <= result.recommended <= result.s_high


@pytest.fixture(scope="module")
def banana():
    return generate_shape("banana", seed=11)


class TestSelectBandwidthPeak:

    def test_full_sweep_banana(self, banana):
        result = select_bandwidth_peak(banana, 0.001)
        assert LOW_GRID.s_min < result.s_low <= result.s_high < LOW_GRID.s_max
        # reconstructed banana: the plateau overlaps the band of visually
        # good boundaries (roughly s in [0.4, 1.1] at this data scale)
        assert result.s_low <= 1.1 and result.s_high >= 0.4
        assert result.recommended < 2.0

    def test_same_bits_for_any_jobs(self, banana):
        one = select_bandwidth_peak(banana, 0.001)
        two = select_bandwidth_peak(banana, 0.001, jobs=2)
        assert (one.s_low, one.s_high) == (two.s_low, two.s_high)
        np.testing.assert_array_equal(one.fit.fitted, two.fit.fitted)
        np.testing.assert_array_equal(one.zero_mask, two.zero_mask)

    def test_short_grid_raises_before_any_solve(self, banana, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved before the error")

        monkeypatch.setattr(solver, "train_path", never)
        with pytest.raises(InputError, match="grid too coarse"):
            select_bandwidth_peak(banana, 0.001, BandwidthGrid(0.5, 1.5, 0.1))

    def test_min_run_below_one_raises_before_any_solve(self, banana, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solved before the error")

        monkeypatch.setattr(solver, "train_path", never)
        with pytest.raises(InputError, match="min_run must be at least 1"):
            select_bandwidth_peak(banana, 0.001, min_run=0)

    def test_propagates_no_peak(self, rng, monkeypatch):
        X = rng.normal(size=(20, 2))

        def never_zero(curve, spline_config=None, min_run=3):
            raise NoPeakFoundError("forced", zero_mask=np.zeros(3, bool))

        monkeypatch.setattr(tuning, "find_peak", never_zero)
        with pytest.raises(NoPeakFoundError):
            select_bandwidth_peak(X, 0.05, BandwidthGrid(0.5, 2.0, 0.1))


def test_envelope_theorem_on_warm_sweep(banana):
    # the box and the simplex do not depend on s, so at each optimum
    # dV*/ds = -alpha'(dK/ds)alpha = -alpha'(K o D^2)alpha / s^3; the
    # central difference d1 agrees up to O(h^2), except at active-set
    # changes, where V* has a kink
    f = 0.001
    s_values = LOW_GRID.values()
    sq = squared_distance_matrix(banana)
    v_star, exact = [], []
    for s, model in train_path(banana, s_values, SolverConfig(f=f)):
        a = model.alphas
        v_star.append(model.dual_objective)
        exact.append(-(a @ ((kernel_matrix_from_sq(sq, s) * sq) @ a)) / s**3)
    gap = np.abs(curve_from_samples(s_values, v_star).d1 - np.array(exact[1:-1]))
    assert np.median(gap) < 1e-5


class TestPeakPick:
    def test_even_plateau_picks_the_lower_middle_grid_point(self):
        curve = constructed_curve(banana_narrative_d2())
        result = find_peak(curve, NARRATIVE_SPLINE)
        # [0.5, 0.85] has eight grid points; the middle two are 0.65 and 0.7
        assert result.pick == curve.s_values[result.pick_index]
        assert result.pick == pytest.approx(0.65, abs=1e-12)
        assert result.recommended == pytest.approx(0.675, abs=1e-12)

    @pytest.mark.parametrize("start, stop, middle", [
        (10, 15, 12), (10, 14, 11), (10, 11, 10), (0, 158, 78), (150, 158, 153),
    ], ids=["odd", "even", "one-point", "whole-grid", "grid-end"])
    def test_pick_is_the_middle_by_index(self, monkeypatch, start, stop, middle):
        interior = LOW_GRID.values()[1:-1]
        mask = np.zeros(interior.size, dtype=bool)
        mask[start:stop] = True
        monkeypatch.setattr(tuning, "ci_contains_zero", lambda fit: mask)
        curve = constructed_curve(alternating(interior.size, 0.05))
        result = find_peak(curve, NARRATIVE_SPLINE, min_run=1)
        assert result.pick_index == middle + 1
        assert result.pick == curve.s_values[result.pick_index] == interior[middle]
        assert result.recommended == 0.5 * (interior[start] + interior[stop - 1])


@pytest.mark.parametrize("grid, s", [
    (BandwidthGrid(1e-300, 1e-299, 1e-301), "1e-300"),
    (BandwidthGrid(1.0, 1e200, 1e198), "1e+200"),
], ids=["underflow", "overflow"])
def test_grid_end_out_of_the_gaussian_range_raises_before_any_solve(
        banana, monkeypatch, grid, s):
    def never(*args, **kwargs):
        raise AssertionError("solved before the error")

    monkeypatch.setattr(solver, "train_path", never)
    with pytest.raises(InputError, match=re.escape(f"gaussian bandwidth {s} is out of range")):
        select_bandwidth_peak(banana, 0.001, grid)
