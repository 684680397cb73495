import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svddpeak import evaluation, solver
from svddpeak.datagen import (
    LabeledGrid,
    Polygon,
    PolygonConfig,
    generate_polygon,
    generate_shape,
    make_labeled_grid,
    sample_interior,
)
from svddpeak.errors import DimensionError, InputError, SweepError
from svddpeak.evaluation import (
    ConfusionCounts,
    compute_metrics,
    f1_sweep,
    polygon_study,
    score_grid,
)
from svddpeak.kernel import GAUSSIAN, KernelSpec
from svddpeak.solver import SolverConfig, train
from svddpeak.tuning import BandwidthGrid, select_bandwidth_peak, sweep_objective

UNIT_SQUARE = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
counts_st = st.integers(0, 500)


class TestComputeMetrics:
    def test_perfect_classifier(self):
        m = compute_metrics(ConfusionCounts(tp=10, fp=0, fn=0, tn=5))
        assert m.precision == m.recall == m.f1 == 1.0

    def test_half_precision_full_recall(self):
        m = compute_metrics(ConfusionCounts(tp=1, fp=1, fn=0, tn=0))
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2.0 / 3.0)

    def test_zero_denominators_yield_zero(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=5, fn=5, tn=0))
        assert m.precision == m.recall == m.f1 == 0.0
        empty = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=3))
        assert empty.f1 == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)

    @given(tp=counts_st, fp=counts_st, fn=counts_st, tn=counts_st)
    def test_f1_is_harmonic_mean_and_bounded(self, tp, fp, fn, tn):
        m = compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        assert 0.0 <= m.f1 <= 1.0
        assert m.f1 <= 2.0 * min(m.precision, m.recall) + 1e-12
        if m.precision + m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expected)
        # symmetry of the harmonic mean in (P, R)
        swapped = compute_metrics(ConfusionCounts(tp=tp, fp=fn, fn=fp, tn=tn))
        assert swapped.f1 == pytest.approx(m.f1)


@pytest.fixture(scope="module")
def square_case():
    X = sample_interior(UNIT_SQUARE, 400, seed=5)
    grid = make_labeled_grid(UNIT_SQUARE, resolution=(60, 60))
    return X, grid


def test_confusion_counts_every_cell_once(rng):
    predicted, truth = rng.random((2, 1000)) < [[0.3], [0.6]]
    counts = evaluation._confusion(predicted, truth)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (
        np.sum(predicted & truth), np.sum(predicted & ~truth), np.sum(~predicted & truth),
        np.sum(~predicted & ~truth))
    assert all(type(n) is int for n in (counts.tp, counts.fp, counts.fn, counts.tn))


class TestScoreGrid:

    def test_counts_partition_grid(self, square_case):
        X, grid = square_case
        model = train(X, KernelSpec(GAUSSIAN, 0.3), SolverConfig(f=0.01))
        predictions, counts = score_grid(model, grid)
        assert counts.tp + counts.fp + counts.fn + counts.tn == grid.points.shape[0]
        assert counts.tp + counts.fn == int(np.sum(grid.labels))
        assert predictions.shape[0] == grid.points.shape[0]

    def test_dense_square_high_f1(self, square_case):
        X, grid = square_case
        model = train(X, KernelSpec(GAUSSIAN, 0.3), SolverConfig(f=0.01))
        _, counts = score_grid(model, grid)
        assert compute_metrics(counts).f1 >= 0.9

    def test_single_point_model_tiny_inlier_region(self, square_case):
        _, grid = square_case
        model = train([[0.5, 0.5]], KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.5))
        predictions, counts = score_grid(model, grid)
        # R^2 = 0: only a lattice point exactly at the training point could pass
        assert counts.tp + counts.fp <= 1

    def test_traversal_order_irrelevant(self, square_case):
        X, grid = square_case
        model = train(X, KernelSpec(GAUSSIAN, 0.3), SolverConfig(f=0.01))
        # reversing both axes reverses the x-fastest point order
        flipped = LabeledGrid(xs=grid.xs[::-1], ys=grid.ys[::-1], labels=grid.labels[::-1])
        np.testing.assert_array_equal(flipped.points, grid.points[::-1])
        _, a = score_grid(model, grid)
        _, b = score_grid(model, flipped)
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_dimension_mismatch(self):
        model = train(np.zeros((3, 3)), KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.2))
        grid = make_labeled_grid(UNIT_SQUARE, resolution=(5, 5))
        with pytest.raises(DimensionError):
            score_grid(model, grid)


class TestF1Sweep:
    def test_self_scoring_recall_and_argmax(self):
        X = generate_shape("three_cluster", n=90, seed=4)
        labels = np.ones(X.shape[0], dtype=bool)
        grid = BandwidthGrid(0.5, 3.0, 0.25)
        result = f1_sweep(X, (X, labels), grid, f=0.05)
        mid = result.metrics[len(result.metrics) // 2]
        assert mid.recall >= 0.9
        f1s = result.f1_curve()
        assert result.f_best == f1s.max()
        assert result.s_best == result.s_values[int(np.argmax(f1s))]

    def test_all_outside_labels_zero_f1(self):
        X = sample_interior(UNIT_SQUARE, 60, seed=9)
        grid = make_labeled_grid(UNIT_SQUARE, resolution=(10, 10))
        hostile = LabeledGrid(xs=grid.xs, ys=grid.ys, labels=np.zeros(grid.labels.size, dtype=bool))
        result = f1_sweep(X, hostile, BandwidthGrid(0.5, 2.0, 0.15), f=0.05)
        assert result.f_best == 0.0
        assert all(m.f1 == 0.0 for m in result.metrics)

    def test_peak_ratio_is_zero_when_every_f1_is(self):
        # no scoring point is inside, so every F1 is 0: the ratio is 0, not 0/0
        X = generate_shape("banana", n=80, seed=11)
        result = f1_sweep(X, (X, np.zeros(80, dtype=bool)), BandwidthGrid(0.05, 4.0, 0.05),
                          f=0.001)
        peak, s_recommended, f_peak, ratio = result.peak_ratio()
        assert result.f_best == 0.0
        assert (f_peak, ratio) == (0.0, 0.0)
        assert s_recommended in result.s_values.tolist()
        assert peak.s_low <= s_recommended <= peak.s_high

    def test_an_even_plateau_snaps_by_index_whatever_the_grid_last_bits(self):
        # a 6-point plateau: its midpoint falls between the two middle grid
        # points, so a snap to the nearest value would follow the last bits
        X = generate_shape("star", n=80, seed=2)
        result = f1_sweep(X, (X, np.ones(80, dtype=bool)), BandwidthGrid(0.05, 4.0, 0.05),
                          f=0.001)
        size = result.s_values.size
        patterns = [np.ones(size), -np.ones(size), (-1.0) ** np.arange(size),
                    *np.random.default_rng(0).choice([-1.0, 1.0], (8, size))]
        for signs in patterns:
            s_values = np.nextafter(result.s_values, signs * np.inf)
            shifted = dataclasses.replace(result, s_values=s_values)
            peak, snapped, f_peak, _ = shifted.peak_ratio()
            assert (peak.s_low, peak.s_high) == (s_values[29], s_values[34])
            assert snapped == s_values[31]  # the lower middle, as f1_sweep ties
            assert f_peak == result.metrics[31].f1

    def test_v_star_matches_warm_tuning_sweep(self):
        grid = BandwidthGrid.low_dimensional()
        for kind, seed in [("banana", 11), ("star", 22), ("three_cluster", 33)]:
            X = generate_shape(kind, seed=seed)
            result = f1_sweep(X, (X, np.ones(X.shape[0], dtype=bool)), grid, f=0.001)
            curve = sweep_objective(X, 0.001, grid)
            np.testing.assert_array_equal(result.s_values, curve.s_values)
            np.testing.assert_array_equal(result.v_star, curve.v_star)
            own = result.objective_curve()
            np.testing.assert_array_equal(own.d2, curve.d2)

    def test_first_failed_solve_ends_the_sweep(self, monkeypatch):
        # 500 iterations solve s = 0.7, ..., 1.4 of this grid, not 1.45: the
        # sweep raises there, after 15 scored solves, and solves nothing later
        solved, scored = [], []
        real_smo, real_score = solver._solve_smo, solver.score_distances

        def counting_smo(*args, **kwargs):
            solved.append(1)
            return real_smo(*args, **kwargs)

        def counting_score(*args, **kwargs):
            scored.append(1)
            return real_score(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_smo", counting_smo)
        monkeypatch.setattr(solver, "score_distances", counting_score)
        X = generate_shape("banana", seed=11)
        config = SolverConfig(f=0.001, max_iterations=500)
        with pytest.raises(SweepError, match="SMO did not reach") as err:
            f1_sweep(X, (X, np.ones(X.shape[0], dtype=bool)), BandwidthGrid(0.7, 2.0, 0.05),
                     f=0.001, config=config)
        assert str(err.value).startswith("sweep solve failed at s=1.45: ")
        assert err.value.s == pytest.approx(1.45)
        assert (len(solved), len(scored)) == (16, 15)

    @pytest.mark.parametrize("train_dim, scoring, error", [
        (2, (np.zeros((5, 3)), np.ones(5, dtype=bool)), DimensionError),
        (3, make_labeled_grid(UNIT_SQUARE, resolution=(5, 5)), DimensionError),
        (2, (np.zeros((5, 2)), np.ones(4, dtype=bool)), InputError),
    ])
    def test_bad_scoring_set_raises_before_any_solve(self, monkeypatch, train_dim, scoring,
                                                     error):
        solved = []
        real_smo = solver._solve_smo

        def counting_smo(*args, **kwargs):
            solved.append(1)
            return real_smo(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_smo", counting_smo)
        X = np.random.default_rng(3).normal(size=(200, train_dim))
        with pytest.raises(error):
            f1_sweep(X, scoring, BandwidthGrid.low_dimensional(), f=0.001)
        assert solved == []

    def test_every_solve_failing_is_a_sweep_error(self):
        X = generate_shape("banana", seed=11)
        config = SolverConfig(f=0.001, max_iterations=50)
        with pytest.raises(SweepError):
            f1_sweep(X, (X, np.ones(X.shape[0], dtype=bool)), BandwidthGrid.low_dimensional(),
                     f=0.001, config=config)


SMALL_STUDY = dict(
    vertex_counts=[5, 8],
    polygons_per_count=2,
    sample_size=120,
    grid=BandwidthGrid(0.3, 3.0, 0.1),
    master_seed=99,
    resolution=(60, 60),
)


@pytest.fixture(scope="module")
def small_report():
    return polygon_study(**SMALL_STUDY)


class TestPolygonStudy:
    def test_row_structure_and_ratios(self, small_report):
        report = small_report
        assert len(report.rows) + len(report.failures) == 4
        for row in report.rows:
            assert 0.0 <= row.ratio <= 1.0
            assert row.f_peak <= row.f_best
            assert row.s_peak_low <= row.s_recommended + 1e-9
            # recommended was snapped onto the sweep grid
            offsets = (row.s_recommended - 0.3) / 0.1
            assert abs(offsets - round(offsets)) < 1e-6

    def test_summaries_cover_vertex_counts(self, small_report):
        report = small_report
        seen = {s.vertex_count for s in report.summaries}
        assert seen == {r.vertex_count for r in report.rows}
        for summary in report.summaries:
            assert summary.minimum <= summary.q1 <= summary.median <= summary.q3 <= summary.maximum

    def test_reproducible_from_seeds(self, small_report):
        repeat = polygon_study(**SMALL_STUDY)
        assert [r.__dict__ for r in repeat.rows] == [r.__dict__ for r in small_report.rows]

    def test_one_solve_per_bandwidth(self, monkeypatch):
        paths, solved = [], []
        real_path, real_smo = solver.train_path, solver._solve_smo

        def recording_path(X, s_values, *args, **kwargs):
            for s, model in real_path(X, s_values, *args, **kwargs):
                paths.append(s)
                yield s, model

        def counting_smo(*args, **kwargs):
            solved.append(1)
            return real_smo(*args, **kwargs)

        monkeypatch.setattr(solver, "train_path", recording_path)
        monkeypatch.setattr(solver, "_solve_smo", counting_smo)
        study = dict(SMALL_STUDY, vertex_counts=[5], polygons_per_count=1)
        report = polygon_study(**study)
        assert len(report.rows) == 1
        # every SMO solve goes through train_path, once per bandwidth, in grid order
        assert paths == study["grid"].values().tolist()
        assert len(solved) == len(paths)

    @pytest.mark.parametrize("vertex_counts", [[5, 5], [5, 8, 5], (8, 8)])
    def test_repeated_vertex_count_raises_before_any_solve(self, monkeypatch, vertex_counts):
        # the same polygon was solved twice and its ratio counted twice
        def never(*args, **kwargs):
            raise AssertionError("solved before the error")

        monkeypatch.setattr(solver, "train_path", never)
        with pytest.raises(InputError, match="repeat"):
            polygon_study(**dict(SMALL_STUDY, vertex_counts=vertex_counts))

    @pytest.mark.parametrize("study", [dict(vertex_counts=[5, 2]), dict(min_run=0)])
    def test_bad_vertex_count_or_min_run_raises_before_any_solve(self, monkeypatch, study):
        def never(*args, **kwargs):
            raise AssertionError("solved before the error")

        monkeypatch.setattr(solver, "train_path", never)
        with pytest.raises(InputError, match="at least"):
            polygon_study(**dict(SMALL_STUDY, **study))

    @pytest.mark.parametrize("study, message", [
        (dict(polygons_per_count=101), "at most 100 polygons per vertex count, got 101"),
        (dict(vertex_counts=[5, 500]), "polygons have at most 499 vertices, got 500"),
    ])
    def test_counts_whose_seeds_collide_raise_before_any_solve(self, monkeypatch, study,
                                                               message):
        # per count 101 gives (5, 100) the seed of (6, 0); vertex count 505
        # gives (505, i) the sample seed of (5, i)
        def never(*args, **kwargs):
            raise AssertionError("solved before the error")

        monkeypatch.setattr(solver, "train_path", never)
        with pytest.raises(InputError) as err:
            polygon_study(**dict(SMALL_STUDY, **study))
        assert str(err.value) == message

    @pytest.mark.parametrize("sample_size", [1, 0])
    def test_a_sample_of_fewer_than_2_rows_raises_before_any_polygon(self, monkeypatch,
                                                                     sample_size):
        # one row has no distance: its plateau covered the whole grid, and
        # its ratio of 0 entered the summary
        def never(*args, **kwargs):
            raise AssertionError("drew a polygon before the error")

        monkeypatch.setattr(evaluation, "generate_polygon", never)
        with pytest.raises(InputError) as err:
            polygon_study(**dict(SMALL_STUDY, sample_size=sample_size))
        assert str(err.value) == f"a polygon's sample needs at least 2 rows, got {sample_size}"

    def test_seeds_of_the_accepted_range_are_distinct(self):
        for master in (0, 1, 20240501):
            seeds = [evaluation._polygon_seed(master, vc, idx) + extra
                     for vc in range(3, 500) for idx in range(100)
                     for extra in (0, 50_000)]
            assert len(set(seeds)) == len(seeds)
            assert min(seeds) >= master * 100_000 and max(seeds) < (master + 1) * 100_000

    def test_refused_row_buffer_is_a_failure_row(self, refuse):
        refuse(np, "eye")
        report = polygon_study(**dict(SMALL_STUDY, vertex_counts=[5], polygons_per_count=1))
        assert report.rows == []
        (failure,) = report.failures
        assert failure.error.startswith("the kernel row buffer of 120 rows needs")

    def test_failure_row_carries_tunes_message(self):
        # a capped solve that drops the polygon fails tune's sweep of its sample
        config = SolverConfig(f=0.001, max_iterations=200)
        study = dict(SMALL_STUDY, vertex_counts=[5], polygons_per_count=1)
        (failure,) = polygon_study(**study, solver_config=config).failures
        polygon = generate_polygon(PolygonConfig(k=5, r_min=3.0, r_max=5.0, seed=failure.seed))
        X = sample_interior(polygon, study["sample_size"], failure.seed + 50_000)
        with pytest.raises(SweepError) as err:
            sweep_objective(X, 0.001, study["grid"], config=config)
        assert failure.error == str(err.value)
        assert failure.error.startswith("sweep solve failed at s=")

    @pytest.mark.parametrize("max_iterations", [50, 200])
    def test_failed_solves_become_failure_rows(self, max_iterations):
        # 50 iterations fail every solve, 200 some; the first failure ends the sweep
        config = SolverConfig(f=0.001, max_iterations=max_iterations)
        report = polygon_study(**dict(SMALL_STUDY, polygons_per_count=1), solver_config=config)
        assert report.rows == []
        assert [(x.vertex_count, x.polygon_index) for x in report.failures] == [(5, 0), (8, 0)]
        assert all("failed" in x.error for x in report.failures)


def test_simulate_picks_the_bandwidth_tune_picks():
    # polygon (5, 0) of the default master seed at 200 samples: its plateau
    # [1.25, 1.4] has four grid points, whose float midpoint is no grid point
    seed = evaluation._polygon_seed(20240501, 5, 0)
    polygon = generate_polygon(PolygonConfig(k=5, seed=seed))
    X = sample_interior(polygon, 200, seed + 50_000)
    grid = BandwidthGrid.low_dimensional()
    sweep = f1_sweep(X, make_labeled_grid(polygon, (20, 20)), grid, f=0.001)
    peak, s_recommended, f_peak, _ = sweep.peak_ratio()
    tuned = select_bandwidth_peak(X, 0.001, grid)
    assert tuned.pick == s_recommended == peak.pick == sweep.s_values[peak.pick_index]
    assert tuned.recommended != tuned.pick
    assert f_peak == sweep.metrics[peak.pick_index].f1


def test_quartiles_are_numpys_percentiles_bit_for_bit():
    rng = np.random.default_rng(0)
    for trial in range(4000):
        n = int(rng.integers(1, 60))
        values = (rng.random(n), rng.choice(rng.random(3), n),
                  rng.choice([-0.0, 0.0, 0.5, -1.0], n), rng.choice([-0.0, 0.0], n))[trial % 4]
        expected = np.percentile(values, [25, 50, 75])
        assert np.array(evaluation._quartiles(values)).tobytes() == expected.tobytes(), values
