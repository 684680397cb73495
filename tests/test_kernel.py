import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist, squareform

from svddpeak import _native, kernel
from svddpeak.errors import DegenerateInputError, DimensionError, InputError
from svddpeak.kernel import (
    GAUSSIAN,
    KernelSpec,
    as_data_matrix,
    cross_kernel,
    kernel_matrix,
    kernel_matrix_from_sq,
    nearest_distances,
    neighbor_extremes,
    require_spread,
    squared_distance_matrix,
    upper_triangle_distances,
)

from native_paths import pinned_distances, supported_distances

# dimensions where summation order shows: numpy's pairwise sum departs from
# a sequential sum from d = 9, and einsum from d = 3
DIMENSIONS = [1, 2, 3, 9, 33]

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def vectors(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


def pair_kernel(a, b, spec):
    """k(a, b) from the definition, one pair at a time in plain Python."""
    sq = sum((float(u) - float(v)) ** 2 for u, v in zip(a, b))
    return math.exp(-sq / (2.0 * spec.s * spec.s))


def one_pair(a, b, spec):
    """k(a, b) as the package computes it: a one-row ``cross_kernel``."""
    return float(cross_kernel([a], [b], spec)[0, 0])


class TestKernelValue:
    """Single kernel values, each from a one-row ``cross_kernel`` call."""

    def test_zero_distance_identity(self):
        a = np.array([1.5, -2.0, 3.0])
        assert one_pair(a, a, KernelSpec(GAUSSIAN, 1.0)) == 1.0

    def test_known_gaussian_value(self):
        got = one_pair([0.0, 0.0], [2.0, 0.0], KernelSpec(GAUSSIAN, 2.0))
        assert got == pytest.approx(math.exp(-4.0 / 8.0), abs=1e-12)
        assert got == pytest.approx(0.6065306597, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cross_kernel([[1.0]], [[1.0, 2.0]], KernelSpec(GAUSSIAN, 1.0))

    def test_non_finite_input(self):
        for Z, X in (([[np.nan]], [[1.0]]), ([[1.0]], [[np.inf]])):
            with pytest.raises(InputError):
                cross_kernel(Z, X, KernelSpec(GAUSSIAN, 1.0))

    def test_only_the_gaussian_kernel(self):
        with pytest.raises(InputError, match="unknown kernel kind 'linear'"):
            KernelSpec("linear")

    def test_invalid_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec(GAUSSIAN, 0.0)
        with pytest.raises(InputError):
            KernelSpec(GAUSSIAN, -1.0)
        # 2 s^2 underflows to 0 (a NaN diagonal) or overflows
        for s in (1e-170, 1e155):
            with pytest.raises(InputError, match="out of range"):
                KernelSpec(GAUSSIAN, s)

    @given(a=vectors(3), b=vectors(3), s=st.floats(min_value=0.1, max_value=10.0))
    def test_symmetry_and_range(self, a, b, s):
        spec = KernelSpec(GAUSSIAN, s)
        kab = one_pair(a, b, spec)
        kba = one_pair(b, a, spec)
        assert kab == kba
        assert 0.0 <= kab <= 1.0
        exponent = np.sum((a - b) ** 2) / (2.0 * s * s)
        if exponent < 700.0:  # beyond this exp() underflows to exactly 0
            assert kab > 0.0
        if np.array_equal(a, b):
            assert kab == 1.0
        elif exponent > 1e-15:  # separations below one ulp of exp() round to 1
            assert kab < 1.0

    def test_strictly_increasing_in_s(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        values = [one_pair(a, b, KernelSpec(GAUSSIAN, s)) for s in np.linspace(0.2, 5.0, 25)]
        assert np.all(np.diff(values) > 0)


class TestKernelMatrix:
    def test_single_point(self):
        K = kernel_matrix([[3.0, 4.0]], KernelSpec(GAUSSIAN, 1.0))
        assert K.shape == (1, 1)
        assert K[0, 0] == 1.0

    def test_two_points_known_entry(self, two_point_data):
        K = kernel_matrix(two_point_data, KernelSpec(GAUSSIAN, 2.0))
        expected = np.array([[1.0, 0.6065306597], [0.6065306597, 1.0]])
        np.testing.assert_allclose(K, expected, atol=1e-9)

    def test_identical_points_all_ones(self):
        X = np.ones((3, 2))
        K = kernel_matrix(X, KernelSpec(GAUSSIAN, 0.7))
        np.testing.assert_array_equal(K, np.ones((3, 3)))

    def test_matches_per_entry_kernel_value(self, rng):
        X = rng.normal(size=(6, 3))
        spec = KernelSpec(GAUSSIAN, 1.3)
        K = kernel_matrix(X, spec)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(pair_kernel(X[i], X[j], spec), abs=1e-12)

    def test_symmetric_and_unit_diagonal(self, rng):
        X = rng.normal(size=(8, 2))
        K = kernel_matrix(X, KernelSpec(GAUSSIAN, 0.9))
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.ones(8))
        assert np.all(K > 0) and np.all(K <= 1.0)

    def test_positive_semidefinite_rayleigh(self, rng):
        X = rng.normal(size=(10, 2))
        K = kernel_matrix(X, KernelSpec(GAUSSIAN, 1.1))
        for _ in range(20):
            v = rng.normal(size=10)
            assert v @ K @ v >= -1e-10

    def test_from_sq_consistent(self, rng):
        X = rng.normal(size=(7, 2))
        sq = squared_distance_matrix(X)
        np.testing.assert_allclose(
            kernel_matrix_from_sq(sq, 1.7),
            kernel_matrix(X, KernelSpec(GAUSSIAN, 1.7)),
            atol=1e-15,
        )

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_from_sq_is_plain_formula_bitwise(self, rng, d):
        X = rng.normal(size=(40, d))
        for path in supported_distances():
            with pinned_distances(path):
                sq = squared_distance_matrix(X)
            assert np.array_equal(sq, squareform(pdist(X, "sqeuclidean"))), path
            before = sq.copy()
            for s in (0.05, 0.7, 3.0):
                assert np.array_equal(kernel_matrix_from_sq(sq, s), np.exp(sq / (-2.0 * s * s)))
            assert np.array_equal(sq, before)


    def test_distances_past_the_float_range_are_inf_without_a_warning(self):
        # the squares of 2e300 and of the sum overflow; inf is the right
        # distance, and its Gaussian entry, 0, the right kernel value
        X = np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0], [0.0, 1e200]])
        for path in supported_distances():
            with pinned_distances(path), warnings.catch_warnings():
                warnings.simplefilter("error")
                sq = kernel.squared_distances(X, X)
                K = kernel_matrix(X, KernelSpec(GAUSSIAN, 1.0))
            assert sq[0, 1] == sq[1, 0] == sq[2, 3] == math.inf, path
            assert K[0, 1] == K[2, 3] == 0.0
            assert sq[0, 2] == math.inf and sq[2, 2] == 0.0


@st.composite
def _distance_operands(draw):
    """(A, B): rows of one width d, 0-40 of each, as C-contiguous rows, a
    column slice (X[:, 1:]) or fancy-indexed rows; signed zeros and values
    up to +-1e200, so that some squares and sums overflow to inf."""
    d = draw(st.integers(1, 40))
    values = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200, 1.0, -1.0]),
                       st.floats(-1e200, 1e200))

    def rows():
        m = draw(st.integers(0, 40))
        layout = draw(st.sampled_from(["rows", "column-slice", "fancy"]))
        if layout == "rows":
            return draw(arrays(np.float64, (m, d), elements=values))
        if layout == "column-slice":
            return draw(arrays(np.float64, (m, d + 1), elements=values))[:, 1:]
        source = draw(arrays(np.float64, (draw(st.integers(1, 40)), d), elements=values))
        picks = draw(st.lists(st.integers(0, source.shape[0] - 1), min_size=m, max_size=m))
        return source[np.array(picks, dtype=np.intp)]

    return rows(), rows()


class TestSquaredDistancePaths:
    """The compiled pass (``svdd_sqdist``) against its twin, the numpy loop."""

    @settings(max_examples=300, deadline=None)
    @given(operands=_distance_operands())
    def test_compiled_pass_gives_the_numpy_loops_bits(self, operands):
        if _native.sqdist() is None:
            pytest.skip("no compiled library on this host")
        A, B = operands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel.squared_distances(A, B)
        want = kernel._numpy_squared_distances(A, B)
        assert got.shape == want.shape == (A.shape[0], B.shape[0])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("A, B", [
        (np.ones((3, 2)), np.ones((4, 3))),
        (np.ones((3, 0)), np.ones((4, 0))),
        (np.ones((3, 3))[:, 1:], np.ones((4, 2))),
        (np.ones((3, 2), dtype=np.float32), np.ones((4, 2))),
        (np.ones(2), np.ones((4, 2))),
    ], ids=["widths-differ", "zero-width", "column-slice", "float32", "one-dim"])
    def test_compiled_pass_refuses_rows_it_cannot_read(self, A, B):
        compiled = _native.sqdist()
        if compiled is None:
            pytest.skip("no compiled library on this host")
        with pytest.raises(ValueError):
            compiled(A, B)


class TestCrossKernel:
    def test_matches_kernel_value(self, rng):
        X = rng.normal(size=(5, 2))
        Z = rng.normal(size=(3, 2))
        spec = KernelSpec(GAUSSIAN, 0.8)
        C = cross_kernel(Z, X, spec)
        for i in range(3):
            for j in range(5):
                assert C[i, j] == pytest.approx(pair_kernel(Z[i], X[j], spec), abs=1e-12)

    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_is_plain_formula_bitwise(self, rng, d):
        X = rng.normal(size=(30, d))
        Z = rng.normal(size=(50, d))
        X_before, Z_before = X.copy(), Z.copy()
        sq = cdist(Z, X, "sqeuclidean")
        for path in supported_distances():
            for s in (0.05, 0.7, 3.0):
                with pinned_distances(path):
                    got = cross_kernel(Z, X, KernelSpec(GAUSSIAN, s))
                assert np.array_equal(got, np.exp(sq / (-2.0 * s * s))), path
        assert np.array_equal(X, X_before) and np.array_equal(Z, Z_before)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cross_kernel(np.ones((2, 3)), np.ones((2, 2)), KernelSpec(GAUSSIAN, 1.0))


class TestNearestDistances:
    @pytest.mark.parametrize("block_rows", [7, 1024])
    def test_matches_one_piece_cdist_bitwise(self, rng, monkeypatch, block_rows):
        monkeypatch.setattr(kernel, "_NEAREST_BLOCK_ROWS", block_rows)
        points = rng.normal(size=(60, 2))
        targets = rng.normal(size=(13, 2))
        for path in supported_distances():
            with pinned_distances(path):
                got = nearest_distances(points, targets)
            assert np.array_equal(got, cdist(points, targets).min(axis=1)), path


class TestNeighborExtremes:
    @pytest.mark.parametrize("block_rows", [1, 7, 1024])
    @pytest.mark.parametrize("d", DIMENSIONS)
    def test_matches_the_whole_matrix_bitwise(self, rng, monkeypatch, block_rows, d):
        monkeypatch.setattr(kernel, "_NEAREST_BLOCK_ROWS", block_rows)
        X = rng.normal(size=(40, d))
        X[5] = X[17]  # a duplicate row: its nearest other row is at 0
        sq = squareform(pdist(X, "sqeuclidean"))
        farthest = sq.max(axis=1)
        np.fill_diagonal(sq, np.inf)
        for path in supported_distances():
            with pinned_distances(path):
                nearest, got_farthest = neighbor_extremes(X)
            assert np.array_equal(nearest, sq.min(axis=1)), path
            assert np.array_equal(got_farthest, farthest), path
            assert nearest[5] == nearest[17] == 0.0

    def test_a_lone_row_has_no_nearest_neighbor(self):
        nearest, farthest = neighbor_extremes(np.ones((1, 3)))
        assert nearest.tolist() == [math.inf] and farthest.tolist() == [0.0]


class TestUpperTriangleDistances:
    @pytest.mark.parametrize("block_rows", [1, 7, 1024])
    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_matches_the_whole_matrix_bitwise(self, rng, monkeypatch, block_rows, n):
        monkeypatch.setattr(kernel, "_NEAREST_BLOCK_ROWS", block_rows)
        X = rng.normal(size=(n, 3))
        for path in supported_distances():
            with pinned_distances(path):
                got = upper_triangle_distances(X)
                want = squared_distance_matrix(X)[np.triu_indices(n, 1)]
            assert got.tobytes() == want.tobytes(), path


class TestAllocate:
    def test_refusal_names_the_rows_and_the_gib(self):
        def refused():
            raise MemoryError("Unable to allocate 11.9 GiB for an array")

        # 40,000^2 doubles are 11.9 GiB
        with pytest.raises(InputError, match="^the kernel row buffer of 40000 rows needs "
                                             r"11\.9 GiB, more memory than the host could "
                                             "allocate$"):
            kernel.allocate(refused, 40_000, 40_000**2, "the kernel row buffer")


class TestRequireSpread:
    # 2^-537 squares to the least subnormal, 2^-538 to 0
    @pytest.mark.parametrize("rows", [
        [[0.0], [2.0**-537]],
        [[1.0, 0.0], [1.0 + 2.0**-52, 0.0], [1.0, 2.0**-538]],
        [[-1e308], [1e308]],  # the range overflows to inf
    ])
    def test_a_distance_that_does_not_underflow_passes(self, rows):
        require_spread(np.array(rows))

    @pytest.mark.parametrize("rows, message", [
        ([[1.5, -2.0]] * 3, "all observations coincide"),
        ([[0.0, 7.0], [2.0**-538, 7.0], [2.0**-539, 7.0]],
         "every squared distance between observations underflows to 0"),
    ])
    def test_data_without_a_distance_is_degenerate(self, rows, message):
        with pytest.raises(DegenerateInputError, match=f"^{message}$"):
            require_spread(np.array(rows))


class TestDataValidation:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            as_data_matrix([[1.0, np.nan]])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            as_data_matrix(np.empty((0, 2)))

    def test_promotes_1d_to_column(self):
        X = as_data_matrix([1.0, 2.0, 3.0])
        assert X.shape == (3, 1)
