import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from svddpeak import datagen, kernel
from svddpeak.datagen import (
    BANANA,
    SHAPE_KINDS,
    STAR,
    THREE_CLUSTER,
    LabeledGrid,
    Polygon,
    PolygonConfig,
    generate_polygon,
    generate_shape,
    labeled_grid_over,
    make_labeled_grid,
    make_star_polygon,
    points_in_polygon,
    sample_interior,
    save_dataset,
    shape_truth_grid,
)
from svddpeak.errors import InputError

UNIT_SQUARE = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


class TestGeneratePolygon:
    @given(k=st.integers(3, 30), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_construction_properties(self, k, seed):
        poly = generate_polygon(PolygonConfig(k=k, seed=seed))
        assert poly.k == k
        # first vertex on the positive x axis
        assert poly.vertices[0, 1] == 0.0
        assert poly.vertices[0, 0] > 0.0
        # anticlockwise ordering by angle
        angles = np.arctan2(poly.vertices[:, 1], poly.vertices[:, 0]) % (2.0 * np.pi)
        assert np.all(np.diff(angles) >= 0.0)
        assert poly.area > 0.0
        radii = np.hypot(poly.vertices[:, 0], poly.vertices[:, 1])
        assert np.all((radii >= 3.0) & (radii <= 5.0))

    def test_unit_radius_polygon_on_circle(self):
        poly = generate_polygon(PolygonConfig(k=4, r_min=1.0, r_max=1.0, seed=9))
        np.testing.assert_allclose(np.hypot(*poly.vertices.T), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = generate_polygon(PolygonConfig(k=7, seed=123))
        b = generate_polygon(PolygonConfig(k=7, seed=123))
        np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_invalid_config(self):
        with pytest.raises(InputError):
            PolygonConfig(k=2, seed=0)
        with pytest.raises(InputError):
            PolygonConfig(k=5, r_min=0.0, r_max=1.0, seed=0)
        with pytest.raises(InputError):
            PolygonConfig(k=5, r_min=2.0, r_max=1.0, seed=0)


class TestPointInPolygon:
    def test_unit_square_interior(self):
        assert points_in_polygon([(0.5, 0.5)], UNIT_SQUARE)[0]

    def test_unit_square_exterior(self):
        assert not points_in_polygon([(1.5, 0.5)], UNIT_SQUARE)[0]

    def test_edge_point_is_inside(self):
        # closed-boundary convention
        assert points_in_polygon([(1.0, 0.5)], UNIT_SQUARE)[0]
        assert points_in_polygon([(0.0, 0.0)], UNIT_SQUARE)[0]

    def test_star_vertices(self):
        # anticlockwise from the top, 36 degrees apart, radius 4 (points) and 1.6
        angles = np.radians(90.0 + 36.0 * np.arange(10))
        expected = np.tile([[4.0], [1.6]], (5, 1)) * np.c_[np.cos(angles), np.sin(angles)]
        np.testing.assert_allclose(make_star_polygon().vertices, expected, rtol=0, atol=1e-14)

    def test_nonconvex_star(self):
        star = make_star_polygon()
        assert points_in_polygon([(0.0, 0.0)], star)[0]
        # between two arms: inside the bounding circle but outside the star
        r = 0.85 * 4.0
        theta = np.pi / 2.0 + np.pi / 5.0
        assert not points_in_polygon([(r * np.cos(theta), r * np.sin(theta))], star)[0]

    def test_vectorized_matches_scalar(self, rng):
        poly = generate_polygon(PolygonConfig(k=9, seed=4))
        P = rng.uniform(-6, 6, size=(200, 2))
        batch = points_in_polygon(P, poly)
        singles = np.array([points_in_polygon([p], poly)[0] for p in P])
        np.testing.assert_array_equal(batch, singles)


class TestSampleInterior:
    def test_all_samples_inside(self):
        poly = generate_polygon(PolygonConfig(k=12, seed=5))
        X = sample_interior(poly, 500, seed=6)
        assert X.shape == (500, 2)
        assert points_in_polygon(X, poly).all()

    def test_uniform_mean_on_square(self):
        X = sample_interior(UNIT_SQUARE, 10_000, seed=7)
        np.testing.assert_allclose(X.mean(axis=0), [0.5, 0.5], atol=0.02)

    def test_triangle_interior_constraint(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        X = sample_interior(tri, 10_000, seed=8)
        assert np.sum(X[:, 0] + X[:, 1] > 1.0) == 0

    def test_single_sample(self):
        poly = generate_polygon(PolygonConfig(k=5, seed=10))
        X = sample_interior(poly, 1, seed=11)
        assert X.shape == (1, 2)
        assert points_in_polygon([X[0]], poly)[0]

    def test_deterministic(self):
        poly = generate_polygon(PolygonConfig(k=6, seed=1))
        a = sample_interior(poly, 50, seed=2)
        b = sample_interior(poly, 50, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_monte_carlo_area_consistency(self):
        # acceptance rate * bounding-box area ~ shoelace area within 3 SE
        poly = generate_polygon(PolygonConfig(k=11, seed=21))
        x_min, x_max, y_min, y_max = poly.bounding_box()
        rng = np.random.default_rng(77)
        n = 10_000
        cand = np.column_stack(
            [rng.uniform(x_min, x_max, n), rng.uniform(y_min, y_max, n)]
        )
        p_hat = points_in_polygon(cand, poly).mean()
        box_area = (x_max - x_min) * (y_max - y_min)
        se = np.sqrt(p_hat * (1.0 - p_hat) / n) * box_area
        assert abs(p_hat * box_area - poly.area) <= 3.0 * se


class TestLabeledGrid:
    def test_unit_square_3x3_all_inside(self):
        grid = make_labeled_grid(UNIT_SQUARE, resolution=(3, 3))
        assert grid.points.shape == (9, 2)
        assert grid.labels.all()

    def test_triangle_inside_fraction_matches_area(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        grid = make_labeled_grid(tri, resolution=(200, 200))
        assert abs(grid.labels.mean() - 0.5) < 0.01

    def test_labels_invariant_under_vertex_rotation(self):
        rotated = Polygon(np.roll(UNIT_SQUARE.vertices, 2, axis=0))
        a = make_labeled_grid(UNIT_SQUARE, resolution=(50, 50))
        b = make_labeled_grid(rotated, resolution=(50, 50))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_bounds_are_vertex_bbox(self):
        poly = generate_polygon(PolygonConfig(k=8, seed=3))
        grid = make_labeled_grid(poly, resolution=(20, 20))
        assert grid.bounds == poly.bounding_box()

    def test_points_derive_from_axes_x_fastest(self):
        grid = LabeledGrid([0.0, 1.0, 2.0], [5.0, 6.0], np.zeros(6, dtype=bool))
        np.testing.assert_array_equal(
            grid.points, [[0, 5], [1, 5], [2, 5], [0, 6], [1, 6], [2, 6]]
        )
        assert grid.points is grid.points
        assert grid.resolution == (3, 2)
        assert grid.bounds == (0.0, 2.0, 5.0, 6.0)

    @pytest.mark.parametrize("kind", [None, *SHAPE_KINDS])
    def test_labeling_keeps_no_lattice_points(self, kind):
        # a polygon task holds its lattice through every solve of its sweep;
        # the 40,000 x 2 points are needed only to label it
        if kind is None:
            poly = generate_polygon(PolygonConfig(k=8, seed=3))
            grid = make_labeled_grid(poly, resolution=(30, 20))
            expected = points_in_polygon(LabeledGrid(grid.xs, grid.ys, grid.labels).points,
                                         poly)
            np.testing.assert_array_equal(grid.labels, expected)
        else:
            grid = shape_truth_grid(kind, generate_shape(kind, seed=0), resolution=(30, 20))
        assert "points" not in vars(grid)

    def test_cells_past_the_bound_are_refused_before_any_array(self, monkeypatch):
        monkeypatch.setattr(datagen, "MAX_LATTICE_CELLS", 12)
        assert labeled_grid_over(UNIT_SQUARE.vertices, resolution=(3, 4)).resolution == (3, 4)
        monkeypatch.setattr(np, "linspace", lambda *a, **kw: pytest.fail("array built"))
        with pytest.raises(InputError, match="4x4 has 16 cells, at most 12"):
            labeled_grid_over(UNIT_SQUARE.vertices, resolution=(4, 4))

    @pytest.mark.parametrize("padding", [np.nan, np.inf, -np.inf, -0.6, -1e-300])
    def test_padding_must_be_finite_and_at_least_zero(self, padding):
        with pytest.raises(InputError, match="grid padding"):
            labeled_grid_over(UNIT_SQUARE.vertices, resolution=(3, 3), padding=padding)

    def test_padding_past_the_float_range_is_refused(self):
        with pytest.raises(InputError, match="past the float range"):
            labeled_grid_over(UNIT_SQUARE.vertices, resolution=(3, 3), padding=1e308)
        # a zero padding keeps the box, but its extent is already infinite
        wide = np.array([[-1e308, 0.0], [1e308, 1.0]])
        with pytest.raises(InputError, match="past the float range"):
            labeled_grid_over(wide, resolution=(3, 3))

    def test_label_count_must_match_lattice(self):
        with pytest.raises(InputError):
            LabeledGrid([0.0, 1.0, 2.0], [5.0, 6.0], np.zeros(5, dtype=bool))


class TestShapeTruthGrid:
    @pytest.mark.parametrize("block_rows", [7, 2048])
    def test_banana_labels_match_one_piece(self, monkeypatch, block_rows):
        X = generate_shape(BANANA, seed=0)
        monkeypatch.setattr(kernel, "_NEAREST_BLOCK_ROWS", block_rows)
        grid = shape_truth_grid(BANANA, X, resolution=(31, 23))
        t = np.linspace(-3.0, 3.0, 2001)
        arc = np.column_stack([t, t * t / 3.0 - 1.5])
        whole = cdist(grid.points, arc).min(axis=1) <= 2.0 * 0.25
        assert 0 < whole.sum() < whole.size
        np.testing.assert_array_equal(grid.labels, whole)

    def test_banana_200x200_peak_memory(self):
        X = generate_shape(BANANA, seed=0)
        tracemalloc.start()
        try:
            shape_truth_grid(BANANA, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


class TestGenerateShape:
    def test_banana_shape_and_size(self):
        X = generate_shape(BANANA, seed=0)
        assert X.shape == (267, 2)

    def test_star_points_inside_generating_polygon(self):
        X = generate_shape(STAR, n=300, seed=1)
        assert points_in_polygon(X, make_star_polygon()).all()

    def test_three_cluster_separation(self):
        X = generate_shape(THREE_CLUSTER, n=300, noise=0.7, seed=2)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
        dists = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
        min_sep = dists[~np.eye(3, dtype=bool)].min()
        assert min_sep > 6.0 * 0.7

    def test_deterministic(self):
        for kind in SHAPE_KINDS:
            a = generate_shape(kind, n=100, seed=5)
            b = generate_shape(kind, n=100, seed=5)
            np.testing.assert_array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            generate_shape("spiral", n=10, seed=0)

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_negative_or_non_finite_noise_rejected(self, kind):
        for noise in (-0.5, -1e-300, np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="noise"):
                generate_shape(kind, n=10, noise=noise, seed=0)
        assert generate_shape(kind, n=10, noise=0.0, seed=0).shape == (10, 2)


class TestDatasetExport:
    def test_round_trip_via_csv(self, tmp_path, rng):
        X = rng.normal(size=(20, 3))
        path = tmp_path / "data.csv"
        save_dataset(path, X)
        raw = np.genfromtxt(path, delimiter=",", names=True)
        assert raw.dtype.names == ("x1", "x2", "x3")
        got = np.column_stack([raw["x1"], raw["x2"], raw["x3"]])
        np.testing.assert_allclose(got, X, rtol=1e-10)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InputError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
