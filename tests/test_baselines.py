import math

import numpy as np
import pytest

from svddpeak import kernel, solver
from svddpeak.baselines import CV_EPSILON, select_cv, select_dfn, select_md
from svddpeak.datagen import PolygonConfig, generate_polygon, generate_shape, sample_interior
from svddpeak.errors import DegenerateInputError, InputError
from svddpeak.tuning import BandwidthGrid, select_bandwidth_peak

from oracles import cv_curve, dfn_curve, md_bandwidth

# simplex vertices: every pairwise squared distance is exactly 2.0 in floats
EQUIDISTANT = np.eye(3)


def dense_cv_oracle(X, s_values, epsilon=1e-6):
    """Direct re-implementation over explicit pairs."""
    n = X.shape[0]
    pairs = [
        np.sum((X[i] - X[j]) ** 2) for i in range(n) for j in range(i + 1, n)
    ]
    pairs = np.asarray(pairs)
    best_s, best_v = None, -np.inf
    for s in s_values:
        k = np.exp(-pairs / (2.0 * s * s))
        v = np.var(k) / (np.mean(k) + epsilon)
        if v > best_v:
            best_s, best_v = s, v
    return best_s


def dense_dfn_oracle(X, s_values):
    n = X.shape[0]
    best_s, best_v = None, -np.inf
    for s in s_values:
        total = 0.0
        for i in range(n):
            ks = [
                np.exp(-np.sum((X[i] - X[j]) ** 2) / (2.0 * s * s))
                for j in range(n)
                if j != i
            ]
            total += max(ks) - min(ks)
        v = 2.0 * total / n
        if v > best_v:
            best_s, best_v = s, v
    return best_s


class TestSelectMd:
    def test_two_point_closed_form(self, two_point_data):
        result = select_md(two_point_data, f=0.001)
        expected = 2.0 / math.sqrt(math.log(2.998))
        assert result.s == pytest.approx(expected, abs=1e-12)
        assert result.s == pytest.approx(1.9087085722, abs=1e-6)

    def test_scaling_homogeneity(self, rng):
        X = rng.normal(size=(15, 2))
        base = select_md(X, f=0.01).s
        scaled = select_md(3.5 * X, f=0.01).s
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_monotone_decreasing_in_n(self):
        # fixed d_max, growing n: delta shrinks so s shrinks
        values = []
        for n in (10, 100, 1000):
            X = np.zeros((n, 1))
            X[0, 0], X[1, 0] = 0.0, 5.0
            values.append(select_md(X, f=0.001).s)
        assert values[0] > values[1] > values[2] > 0.0

    def test_single_point_rejected(self):
        with pytest.raises(InputError):
            select_md(np.zeros((1, 2)))

    def test_invalid_f(self, two_point_data):
        with pytest.raises(InputError):
            select_md(two_point_data, f=1.0)

    @pytest.mark.parametrize("kind", ["banana", "star", "three_cluster"])
    def test_shape_bandwidth_equals_the_dense_formula(self, kind):
        X = generate_shape(kind, seed=0)
        assert select_md(X, f=0.001).s == md_bandwidth(X, 0.001)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bandwidth_equals_the_dense_formula(self, seed, monkeypatch):
        # small blocks, so the farthest rows are found across several
        monkeypatch.setattr(kernel, "_NEAREST_BLOCK_ROWS", 7)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(int(rng.integers(2, 80)), int(rng.integers(3, 12))))
        if seed % 2:
            X = np.round(X * 2.0)
        assert select_md(X, f=0.05).s == md_bandwidth(X, 0.05)


class TestSelectCv:
    def test_equidistant_ties_to_smallest_s(self):
        grid = BandwidthGrid(0.1, 2.0, 0.1)
        result = select_cv(EQUIDISTANT, grid)
        assert result.s == pytest.approx(0.1)
        assert np.allclose(result.curve[:, 1], 0.0)

    def test_matches_dense_grid_oracle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # distances 1, 1, sqrt(2)
        coarse = BandwidthGrid(0.1, 5.0, 0.01)
        result = select_cv(X, coarse)
        dense = dense_cv_oracle(X, np.arange(0.1, 5.0001, 0.0001))
        assert abs(result.s - dense) <= 0.01 + 1e-9

    def test_attains_recorded_maximum(self, rng):
        X = rng.normal(size=(12, 2))
        grid = BandwidthGrid(0.2, 4.0, 0.05)
        result = select_cv(X, grid)
        curve = result.curve
        idx = int(np.argmin(np.abs(curve[:, 0] - result.s)))
        assert curve[idx, 1] == curve[:, 1].max()

    def test_needs_three_points(self, two_point_data):
        with pytest.raises(InputError):
            select_cv(two_point_data, BandwidthGrid(0.1, 2.0, 0.1))

    def test_refused_triangle(self, rng, refuse):
        # np.empty of a length: the triangle, not the blocks of rows
        refuse(np, "empty", lambda shape, *rest: np.ndim(shape) == 0)
        with pytest.raises(InputError, match="^the distance triangle of 12 rows needs"):
            select_cv(rng.normal(size=(12, 2)), BandwidthGrid(0.2, 4.0, 0.05))

    def test_refused_kernel_copy(self, rng, refuse):
        refuse(np, "empty_like", lambda like, *rest: np.ndim(like) == 1)
        with pytest.raises(InputError, match="^the kernel triangle of 12 rows needs"):
            select_cv(rng.normal(size=(12, 2)), BandwidthGrid(0.2, 4.0, 0.05))

    def test_epsilon_default(self):
        assert CV_EPSILON == 1e-6

    @pytest.mark.parametrize("kind", ["banana", "star", "three_cluster", "polygon"])
    def test_curve_equals_the_dense_formula(self, kind, monkeypatch):
        # a block size that leaves a partial last block on every set
        monkeypatch.setattr(kernel, "_NEAREST_BLOCK_ROWS", 97)
        if kind == "polygon":
            X = sample_interior(generate_polygon(PolygonConfig(k=10, seed=3)), 600, seed=4)
        else:
            X = generate_shape(kind, seed=0)
        grid = BandwidthGrid.low_dimensional()
        curve = select_cv(X, grid).curve
        assert np.array_equal(curve[:, 0], grid.values())
        assert np.array_equal(curve[:, 1], cv_curve(X, grid.values()))


class TestSelectDfn:
    def test_equidistant_ties_to_smallest_s(self):
        grid = BandwidthGrid(0.1, 2.0, 0.1)
        result = select_dfn(EQUIDISTANT, grid)
        assert result.s == pytest.approx(0.1)
        assert np.allclose(result.curve[:, 1], 0.0)

    def test_vanishes_in_both_limits(self, rng):
        X = rng.normal(size=(8, 2))
        grid = BandwidthGrid(0.01, 50.0, 0.01)
        result = select_dfn(X, grid)
        curve = result.curve[:, 1]
        assert curve[0] < 1e-6
        assert curve[-1] < 0.05
        assert curve.max() > max(curve[0], curve[-1])  # interior maximizer

    def test_unit_square_matches_dense_oracle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        result = select_dfn(X, BandwidthGrid(0.05, 5.0, 0.01))
        # analytic argmax for the square: 1/sqrt(2 ln 2)
        assert abs(result.s - 1.0 / math.sqrt(2.0 * math.log(2.0))) <= 0.01 + 1e-9
        dense = dense_dfn_oracle(X, np.arange(0.05, 5.0001, 0.001))
        assert abs(result.s - dense) <= 0.01 + 1e-9

    def test_needs_three_points(self, two_point_data):
        with pytest.raises(InputError):
            select_dfn(two_point_data, BandwidthGrid(0.1, 2.0, 0.1))

    @pytest.mark.parametrize("kind", ["banana", "star", "three_cluster"])
    def test_shape_curve_equals_the_dense_formula(self, kind):
        X = generate_shape(kind, seed=0)
        grid = BandwidthGrid.low_dimensional()
        curve = select_dfn(X, grid).curve
        assert np.array_equal(curve[:, 0], grid.values())
        assert np.array_equal(curve[:, 1], dfn_curve(X, grid.values()))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_curve_equals_the_dense_formula(self, seed):
        rng = np.random.default_rng(seed)
        # integer rows tie many distances exactly
        X = rng.normal(size=(int(rng.integers(3, 80)), int(rng.integers(3, 12))))
        if seed % 2:
            X = np.round(X * 2.0)
        grid = BandwidthGrid(0.05, 6.0, 0.05)
        assert np.array_equal(select_dfn(X, grid).curve[:, 1], dfn_curve(X, grid.values()))


class TestSharedInvariances:
    def test_translation_rotation_row_permutation_invariant(self, rng):
        X = rng.normal(size=(10, 2))
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        Y = (X @ R.T) + np.array([5.0, -3.0])
        perm = rng.permutation(10)
        grid = BandwidthGrid(0.2, 4.0, 0.05)
        for select in (
            lambda Z: select_cv(Z, grid).s,
            lambda Z: select_md(Z).s,
            lambda Z: select_dfn(Z, grid).s,
        ):
            base = select(X)
            assert select(Y) == pytest.approx(base, rel=1e-9)
            assert select(X[perm]) == pytest.approx(base, rel=1e-9)


SELECTORS = {
    "md": lambda X: select_md(X, f=0.001),
    "cv": lambda X: select_cv(X, BandwidthGrid.low_dimensional()),
    "dfn": lambda X: select_dfn(X, BandwidthGrid.low_dimensional()),
    "peak": lambda X: select_bandwidth_peak(X, 0.001),
}


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before refusing the rows")


@pytest.mark.parametrize("method", sorted(SELECTORS))
def test_identical_points_degenerate(method, monkeypatch):
    # V*(s) is 0 at every s and every grid criterion is flat, so no
    # bandwidth is better than another
    monkeypatch.setattr(solver, "train_path", _no_solve)
    with pytest.raises(DegenerateInputError, match="^all observations coincide$"):
        SELECTORS[method](np.ones((4, 2)))


@pytest.mark.parametrize("method", sorted(SELECTORS))
def test_underflowing_distances_degenerate(method, monkeypatch):
    # distinct rows, but every squared distance (1e-340, 4e-340) underflows
    # to 0, so every kernel entry is 1, as for identical rows
    monkeypatch.setattr(solver, "train_path", _no_solve)
    with pytest.raises(DegenerateInputError,
                       match="^every squared distance between observations underflows to 0$"):
        SELECTORS[method](np.array([[0.0, 5.0], [1e-170, 5.0], [0.0, 5.0], [2e-170, 5.0]]))


def test_one_row_peak_degenerate(monkeypatch):
    monkeypatch.setattr(solver, "train_path", _no_solve)
    with pytest.raises(DegenerateInputError):
        select_bandwidth_peak(np.array([[1.0, 2.0]]), 0.001)
