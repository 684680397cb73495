import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from svddpeak import _native, kernel, solver
from svddpeak.datagen import (
    LabeledGrid,
    PolygonConfig,
    generate_polygon,
    generate_shape,
    sample_interior,
)
from svddpeak.errors import (
    ConvergenceError,
    DimensionError,
    InputError,
    NumericalError,
    SweepError,
)
from svddpeak.evaluation import _polygon_seed
from svddpeak.kernel import (
    GAUSSIAN,
    KernelSpec,
    cross_kernel,
    kernel_matrix,
    kernel_matrix_from_sq,
    squared_distance_matrix,
)
from svddpeak.solver import (
    BOUNDARY,
    INLIER,
    INSIDE,
    OUTLIER,
    SolverConfig,
    classify,
    load_model,
    model_from_dict,
    position_report,
    score_distances,
    score_lattice,
    train,
    train_path,
)
from svddpeak.tuning import MONOTONICITY_SLACK, BandwidthGrid

from oracles import (
    linear_gram,
    reference_smo,
    reference_threshold,
    simplex_grid_max,
    whole_rows,
)
from native_paths import PASSES, pinned, supported_passes

K12 = math.exp(-0.5)
TWO_POINT_R2 = 0.5 - 0.5 * K12  # analytic optimum of the symmetric pair at s=2


def _free_indices(model):
    """The boundary support vectors: the free multipliers of the solver's
    position rule, at the model's own tolerance."""
    _, free, _ = solver._positions(model.alphas, model.C, model.config.kkt_tol)
    return np.flatnonzero(free)


@pytest.fixture
def two_point_model(two_point_data):
    return train(two_point_data, KernelSpec(GAUSSIAN, 2.0), SolverConfig(f=0.1))


class TestTrain:
    def test_single_point(self):
        model = train([[1.0, 2.0]], KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.5))
        np.testing.assert_array_equal(model.alphas, [1.0])
        assert model.r_squared == 0.0
        assert model.dual_objective == 0.0

    def test_symmetric_two_point_analytic(self, two_point_model):
        np.testing.assert_allclose(two_point_model.alphas, [0.5, 0.5], atol=1e-8)
        assert two_point_model.r_squared == pytest.approx(TWO_POINT_R2, abs=1e-8)
        assert two_point_model.dual_objective == pytest.approx(TWO_POINT_R2, abs=1e-8)
        assert two_point_model.r_squared == pytest.approx(0.1967346701, abs=1e-8)

    def test_two_point_against_grid_oracle(self, two_point_data):
        K = kernel_matrix(two_point_data, KernelSpec(GAUSSIAN, 2.0))
        best, _ = simplex_grid_max(K, C=5.0, step=1e-4)
        model = train(two_point_data, KernelSpec(GAUSSIAN, 2.0), SolverConfig(f=0.1))
        assert model.dual_objective == pytest.approx(best, abs=1e-6)

    def test_collinear_middle_point_inside(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        spec = KernelSpec(GAUSSIAN, 1.0)
        model = train(X, spec, SolverConfig(f=0.01))
        assert model.alphas[1] == pytest.approx(0.0, abs=1e-8)
        K = kernel_matrix(X, spec)
        best, alpha = simplex_grid_max(K, C=1.0 / 0.03, step=1e-3)
        assert model.dual_objective == pytest.approx(best, abs=1e-4)
        assert alpha[1] == pytest.approx(0.0, abs=2e-3)

    def test_feasibility_invariants(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            X = rng.normal(size=(n, 2))
            f = float(rng.uniform(0.05, 0.9))
            model = train(X, KernelSpec(GAUSSIAN, float(rng.uniform(0.3, 3.0))), SolverConfig(f=f))
            assert abs(model.alphas.sum() - 1.0) <= 1e-9
            C = model.C
            assert np.all(model.alphas >= -1e-12)
            assert np.all(model.alphas <= C + 1e-12)
            assert _free_indices(model).size > 0
            assert model.r_squared >= 0.0

    def test_kkt_stationarity(self, rng):
        X = rng.normal(size=(15, 2))
        config = SolverConfig(f=0.2)
        model = train(X, KernelSpec(GAUSSIAN, 1.0), config)
        K = kernel_matrix(model.X, model.spec)
        grad = 2.0 * (K @ model.alphas) - np.diag(K)
        C = model.C
        tol = config.kkt_tol
        up_min = grad[model.alphas < C].min()
        down_max = grad[model.alphas > 0].max()
        assert down_max - up_min <= tol

    def test_gaussian_dual_identity(self, rng):
        X = rng.normal(size=(12, 3))
        model = train(X, KernelSpec(GAUSSIAN, 1.4), SolverConfig(f=0.3))
        K = kernel_matrix(model.X, model.spec)
        quad = model.alphas @ K @ model.alphas
        assert model.dual_objective == pytest.approx(1.0 - quad, abs=1e-9)

    def test_oracle_equivalence_small(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 5))
            X = rng.normal(size=(n, 2))
            s = float(rng.uniform(0.5, 3.0))
            f = float(rng.choice([0.2, 0.5]))
            model = train(X, KernelSpec(GAUSSIAN, s), SolverConfig(f=f))
            K = kernel_matrix(X, KernelSpec(GAUSSIAN, s))
            best, _ = simplex_grid_max(K, C=1.0 / (n * f), step=1e-3)
            assert model.dual_objective == pytest.approx(best, abs=1e-4)

    def test_deterministic_bit_identical(self, rng):
        X = rng.normal(size=(20, 2))
        spec = KernelSpec(GAUSSIAN, 0.8)
        config = SolverConfig(f=0.1)
        a = train(X, spec, config).alphas
        b = train(X, spec, config).alphas
        np.testing.assert_array_equal(a, b)

    def test_identical_points_uniform(self):
        X = np.ones((4, 2))
        model = train(X, KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.25))
        np.testing.assert_allclose(model.alphas, 0.25, atol=1e-12)
        assert model.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_empty_data_rejected(self):
        with pytest.raises(InputError):
            train(np.empty((0, 2)), KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.1))

    @pytest.mark.parametrize("kkt_tol", [0.0, -1e-6, np.nan, np.inf])
    def test_kkt_tol_must_be_positive_and_finite(self, kkt_tol):
        with pytest.raises(InputError, match="kkt_tol must be positive and finite"):
            SolverConfig(f=0.1, kkt_tol=kkt_tol)

    def test_convergence_error_carries_iterate(self, rng):
        X = rng.normal(size=(30, 2))
        config = SolverConfig(f=0.1, kkt_tol=1e-12, max_iterations=3)
        with pytest.raises(ConvergenceError) as err:
            train(X, KernelSpec(GAUSSIAN, 0.5), config)
        assert err.value.alphas is not None
        assert err.value.kkt_residual > 0

    def test_warm_start_same_optimum(self, rng):
        X = rng.normal(size=(10, 2))
        spec = KernelSpec(GAUSSIAN, 1.2)
        config = SolverConfig(f=0.2)
        cold = train(X, spec, config)
        warm = train(X, spec, config, initial_alphas=rng.dirichlet(np.ones(10)))
        assert warm.dual_objective == pytest.approx(cold.dual_objective, abs=1e-6)

    def test_f_one_returns_the_only_feasible_point(self, rng):
        # C = 1/n admits only the uniform point: no SMO step is taken, cold or warm
        X = rng.normal(size=(20, 2))
        spec = KernelSpec(GAUSSIAN, 1.0)
        config = SolverConfig(f=1.0)
        for start in (None, rng.dirichlet(np.ones(20))):
            model = train(X, spec, config, initial_alphas=start)
            assert model.iterations == 0
            np.testing.assert_allclose(model.alphas, 1.0 / 20, rtol=0, atol=1e-15)
            assert model.r_squared >= 0.0


def _assert_same_model(a, b):
    assert np.array_equal(a.alphas, b.alphas)
    assert a.r_squared == b.r_squared
    assert a.dual_objective == b.dual_objective
    assert a.iterations == b.iterations


class TestTrainPath:
    S_VALUES = (0.3, 0.45, 0.6, 0.9)

    @pytest.fixture(scope="class")
    def banana(self):
        return generate_shape("banana", n=120, seed=11)

    @pytest.mark.parametrize("warm", [False, True])
    def test_models_equal_train_bitwise(self, banana, warm):
        # one path warm-starts each solve from the last; paths of one value
        # (warm=False) are all cold
        config = SolverConfig(f=0.001)
        start = None
        if warm:
            path = list(train_path(banana, self.S_VALUES, config))
        else:
            path = [step for s in self.S_VALUES for step in train_path(banana, [s], config)]
        assert [s for s, _ in path] == list(self.S_VALUES)
        for s, model in path:
            expected = train(banana, KernelSpec(GAUSSIAN, s), config, initial_alphas=start)
            _assert_same_model(model, expected)
            if warm:
                start = expected.alphas

    def test_runs_restart_cold_every_warm_run(self, banana):
        config = SolverConfig(f=0.001)
        s_values = np.linspace(0.2, 2.3, solver.WARM_RUN + 2)
        path = list(train_path(banana, s_values, config))
        before, at_run, after = (model for _, model in path[solver.WARM_RUN - 1:])
        _assert_same_model(at_run, train(banana, KernelSpec(GAUSSIAN, s_values[-2]), config))
        _assert_same_model(after, train(banana, KernelSpec(GAUSSIAN, s_values[-1]), config,
                                        initial_alphas=at_run.alphas))
        # the run before the cold start was warm
        _assert_same_model(before, train(banana, KernelSpec(GAUSSIAN, s_values[-3]), config,
                                         initial_alphas=path[-4][1].alphas))
        # a path cut at a run's start gives the same models as the whole path
        tail = list(train_path(banana, s_values[solver.WARM_RUN:], config))
        for (_, whole), (_, cut) in zip(path[solver.WARM_RUN:], tail):
            _assert_same_model(cut, whole)

    def test_first_failed_solve_ends_the_path(self, banana, monkeypatch):
        # 300 iterations are enough for wide bandwidths, not for narrow ones
        solved = []
        real_smo = solver._solve_smo

        def counting_smo(*args, **kwargs):
            solved.append(1)
            return real_smo(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_smo", counting_smo)
        config = SolverConfig(f=0.001, max_iterations=300)
        path = train_path(banana, (3.0, 0.1, 3.1), config)
        s, model = next(path)
        assert s == 3.0
        _assert_same_model(model, train(banana, KernelSpec(GAUSSIAN, 3.0), config))
        with pytest.raises(SweepError) as err:
            next(path)
        assert err.value.s == 0.1
        assert isinstance(err.value.__cause__, ConvergenceError)
        assert str(err.value) == f"sweep solve failed at s=0.1: {err.value.__cause__}"
        # the solve at 3.0, its twin in train, and the failed one: none for 3.1
        assert len(solved) == 3
        assert list(path) == []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 50),
           f=st.sampled_from([0.001, 0.05, 0.2]), scale=st.floats(0.3, 3.0),
           shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
    def test_v_star_ignores_row_order_and_translation(self, seed, n, f, scale, shift):
        # V*(s) depends only on the pairwise distances of the rows, so a
        # permutation or a translation of the rows moves it by no more than
        # the slack of the sweep's monotonicity check
        rng = np.random.default_rng(seed)
        X = scale * rng.normal(size=(n, 2))
        config = SolverConfig(f=f)

        def v_star(rows):
            return np.array([model.dual_objective
                             for _, model in train_path(rows, self.S_VALUES, config)])

        expected = v_star(X)
        for moved in (X[rng.permutation(n)], X + np.array(shift)):
            np.testing.assert_allclose(v_star(moved), expected, rtol=0, atol=MONOTONICITY_SLACK)


def _dense_train(X, spec, config, initial_alphas=None):
    """``train`` on the whole kernel matrix, every row filled from the start."""
    rows = whole_rows(kernel_matrix(X, spec))
    return solver._fit(solver.as_data_matrix(X), rows, spec, config, initial_alphas)


def _polygon_600():
    """The training set of the 600-point polygon task of
    ``simulate --vertices 10 --per-count 1`` at the default master seed."""
    seed = _polygon_seed(20240501, 10, 0)
    polygon = generate_polygon(PolygonConfig(k=10, r_min=3.0, r_max=5.0, seed=seed))
    return sample_interior(polygon, 600, seed + 50_000)


@pytest.fixture
def filled_rows(monkeypatch):
    """(s, row count) of every block of kernel rows the solver computes."""
    filled = []
    real_rows = solver._gaussian_rows

    def counting_rows(X, s, rows):
        filled.append((s, len(rows)))
        return real_rows(X, s, rows)

    monkeypatch.setattr(solver, "_gaussian_rows", counting_rows)
    return filled


class TestRowBuffer:
    """``train_path`` computes only the kernel rows its solves read, into one
    buffer, and gives the models of the whole kernel matrix bit for bit."""

    @staticmethod
    def _assert_path_equals_dense_train(X, s_values, config):
        start = None
        path = list(train_path(X, s_values, config))
        for s, model in path:
            spec = KernelSpec(GAUSSIAN, s)
            for other in (_dense_train(X, spec, config, start),
                          train(X, spec, config, initial_alphas=start)):
                _assert_same_model(model, other)
                assert model.alpha_quad == other.alpha_quad
            # the solver's last K @ alpha, when _fit reuses it, has the bits
            # of a fresh product
            K = kernel_matrix(X, spec)
            assert model.alpha_quad == float(model.alphas @ (K @ model.alphas))
            start = model.alphas
        return [model for _, model in path]

    def test_f_one_fills_every_row(self):
        # no SMO step is taken, so every row must be filled before alpha_quad
        X = generate_shape("banana", n=60, seed=11)
        models = self._assert_path_equals_dense_train(X, (0.3, 0.6, 0.9), SolverConfig(f=1.0))
        assert all(model.iterations == 0 for model in models)

    def test_midpoint_fallback_reads_unfilled_rows(self, filled_rows):
        # two far points take alpha = C = 1/2 and the rest 0, so the
        # threshold comes from the fallback, which reads K @ alpha on every
        # row; from a warm start that is already optimal, the last solve
        # fills only its start's support
        X = np.vstack([[[-1.0, 0.0], [1.0, 0.0]],
                       np.random.default_rng(0).uniform(-0.3, 0.3, size=(8, 2))])
        s_values, config = (0.8, 1.0, 1.2, 1.5), SolverConfig(f=0.2)
        models = self._assert_path_equals_dense_train(X, s_values, config)
        assert [_free_indices(model).size == 0 for model in models] == [False] + [True] * 3
        assert models[-1].iterations == 0
        filled_rows.clear()
        list(train_path(X, s_values, config))
        assert sum(count for s, count in filled_rows if s == 1.5) < X.shape[0]

    def test_every_solve_reads_a_unit_diagonal(self, monkeypatch):
        # an unfilled row's diagonal enters the gradient, so it must be the
        # kernel's before the row is filled
        diagonals = []
        real_smo = solver._solve_smo

        def recording_smo(rows, *args, **kwargs):
            diagonals.append(np.diag(rows.K).copy())
            return real_smo(rows, *args, **kwargs)

        monkeypatch.setattr(solver, "_solve_smo", recording_smo)
        X = generate_shape("banana", n=120, seed=11)
        config = SolverConfig(f=0.001)
        s_values = np.linspace(0.2, 2.0, 12)
        path = [model for _, model in train_path(X, s_values, config)]
        # a warm start fills only its support, here two rows of 120
        start = np.zeros(X.shape[0])
        start[[0, 60]] = 0.5
        train(X, KernelSpec(GAUSSIAN, 0.5), config, initial_alphas=start)
        assert len(path) == 12 and len(diagonals) == 13
        assert all((d == 1.0).all() for d in diagonals)

    @pytest.mark.parametrize("data, bound", [("banana", 0.15), ("polygon-600", 0.20)])
    def test_sweep_fills_few_rows(self, monkeypatch, filled_rows, data, bound):
        # warm solves read few rows; a fall-back to whole matrices fails here
        X = generate_shape("banana", seed=11) if data == "banana" else _polygon_600()

        def dense(*args):
            pytest.fail("the solver built a dense matrix")

        monkeypatch.setattr(kernel, "squared_distance_matrix", dense)
        monkeypatch.setattr(kernel, "kernel_matrix_from_sq", dense)
        grid = BandwidthGrid.low_dimensional().values()
        list(train_path(X, grid, SolverConfig(f=0.001)))
        filled = sum(count for _, count in filled_rows)
        assert 0 < filled <= bound * X.shape[0] * grid.size

    def test_polygon_sweep_peak_memory(self):
        # one 600 x 600 buffer is 2.7 MiB; a distance matrix plus a kernel
        # matrix per solve peaked at 8.2 MiB
        X = _polygon_600()
        grid = BandwidthGrid.low_dimensional().values()
        tracemalloc.start()
        try:
            path = list(train_path(X, grid, SolverConfig(f=0.001)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(path) == grid.size
        assert peak < 7 * 2**20

    def test_cold_small_bandwidth_solve_holds_one_square_array(self):
        # at s = 0.05 nearly every point is a boundary support vector, so a
        # copy of the boundary's kernel rows would be a second n x n array
        X = _polygon_600()
        # the first solve of a process loads the compiled loop: not traced
        train(X[:5], KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.001))
        tracemalloc.start()
        try:
            model = train(X, KernelSpec(GAUSSIAN, 0.05), SolverConfig(f=0.001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = X.shape[0]
        assert _free_indices(model).size > 0.9 * n
        assert peak < 1.3 * n * n * 8


# the smallest and the largest s KernelSpec accepts: 2 s^2 is then the
# least subnormal, resp. the largest float below overflow
S_LIMITS = (1.111379374742539e-162, 9.480751908109176e+153)


class TestGaussianRows:
    """What the SMO loops take for granted of every Gram row they read."""

    def test_s_limits_are_the_edges_of_kernel_spec(self):
        for s, outward in zip(S_LIMITS, (0.0, np.inf)):
            KernelSpec(GAUSSIAN, s)
            with pytest.raises(InputError):
                KernelSpec(GAUSSIAN, float(np.nextafter(s, outward)))

    @settings(max_examples=200, deadline=None)
    @given(X=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 3)),
                    elements=st.floats(-1e300, 1e300)),
           s=st.one_of(st.sampled_from(S_LIMITS), st.floats(*S_LIMITS)),
           seed=st.integers(0, 2**32 - 1))
    @example(X=np.array([[1e300], [-1e300], [0.0]]), s=S_LIMITS[0], seed=0)
    @example(X=np.array([[1e300, -1e300], [-1e300, 1e300]]), s=S_LIMITS[1], seed=0)
    def test_entries_are_finite_in_the_unit_interval_with_a_unit_diagonal(self, X, s, seed):
        rng = np.random.default_rng(seed)
        rows = rng.permutation(X.shape[0])[:rng.integers(1, X.shape[0] + 1)]
        # far points square to inf, which is a kernel entry of 0
        with np.errstate(over="ignore"):
            block = solver._gaussian_rows(X, s, rows)
        assert block.shape == (rows.size, X.shape[0])
        assert np.isfinite(block).all()
        assert ((block >= 0.0) & (block <= 1.0)).all()
        assert (block[np.arange(rows.size), rows] == 1.0).all()


def _solve_on(name, K, *args):
    """``solver._solve_smo`` on the whole matrix ``K`` and the inner-loop
    pass ``name``."""
    with pinned(name):
        return solver._solve_smo(whole_rows(K), *args)


def _assert_same_solve(K, C, alpha0, kkt_tol=1e-6, max_iterations=100_000):
    """Every pass the host runs reproduces the plain reference loop bit for bit."""
    expected = reference_smo(K, C, kkt_tol, max_iterations, alpha0)
    for name in supported_passes():
        alphas, residual, iterations, _ = _solve_on(name, K, C, kkt_tol, max_iterations, alpha0)
        assert np.array_equal(alphas, expected[0]), name
        assert residual == expected[1], name
        assert iterations == expected[2], name
    return alphas


def _assert_same_failure(K, C, alpha0, kkt_tol, max_iterations, name):
    with pytest.raises(ConvergenceError) as expected:
        reference_smo(K, C, kkt_tol, max_iterations, alpha0)
    with pytest.raises(ConvergenceError) as err:
        _solve_on(name, K, C, kkt_tol, max_iterations, alpha0)
    assert np.array_equal(err.value.alphas, expected.value.alphas), name
    assert err.value.kkt_residual == expected.value.kkt_residual, name
    assert err.value.iterations == expected.value.iterations == max_iterations, name


RANDOM_PROBLEMS = dict(
    seed=st.integers(0, 2**32 - 1),
    # every tail length of the 4- and 8-lane passes, and several blocks
    n=st.integers(2, 70),
    integer_rows=st.booleans(),
    near_copies=st.integers(0, 3),
    kind=st.sampled_from(["gaussian", "linear"]),
    s=st.floats(0.05, 4.0),
    f=st.floats(0.01, 0.95),
    warm=st.booleans(),
    max_iterations=st.one_of(st.integers(1, 40), st.just(20_000)),
)


def _random_problem(seed, n, integer_rows, near_copies, kind, s, f, warm):
    """(K, C, alpha0) of one draw of ``RANDOM_PROBLEMS``."""
    rng = np.random.default_rng(seed)
    shape = (n, int(rng.integers(1, 4)))
    # integer rows tie many gradient entries exactly; copies shifted by
    # 2**-20 take steps at the curvature floor
    if integer_rows:
        X = rng.integers(-7, 8, size=shape).astype(float)
    else:
        X = rng.normal(size=shape)
    X = np.vstack([X, X[:near_copies] + 2.0**-20])
    K = kernel_matrix(X, KernelSpec(GAUSSIAN, s)) if kind == "gaussian" else linear_gram(X)
    C = SolverConfig(f=f).box_bound(X.shape[0])
    if warm:
        # the start _fit makes of a warm start: clipped, rescaled, clipped
        alpha0 = np.clip(rng.dirichlet(np.ones(X.shape[0])), 0.0, C)
        alpha0 = np.clip(alpha0 / alpha0.sum(), 0.0, C)
    else:
        alpha0 = np.full(X.shape[0], 1.0 / X.shape[0])
    return K, C, alpha0


def _sparse_warm_start(rng, alpha0, C, support_share):
    """A warm start from a sparse support, as a sweep's are: about
    ``support_share`` of the entries of ``alpha0`` kept, one set to C,
    then rescaled and clipped as ``_fit`` does."""
    alpha0 = np.where(rng.random(alpha0.size) < support_share, alpha0, 0.0)
    alpha0[rng.integers(alpha0.size)] = C
    return np.clip(alpha0 / alpha0.sum(), 0.0, C)


class TestSmoMatchesReference:

    @pytest.fixture(scope="class")
    def banana_sq(self):
        return squared_distance_matrix(generate_shape("banana", seed=11))

    @pytest.mark.parametrize("warm", [False, True])
    def test_gaussian_grid(self, banana_sq, warm):
        n = banana_sq.shape[0]
        C = SolverConfig(f=0.001).box_bound(n)
        alpha0 = np.full(n, 1.0 / n)
        for s in (0.3, 0.4, 0.5, 0.6):
            alphas = _assert_same_solve(kernel_matrix_from_sq(banana_sq, s), C, alpha0)
            if warm:
                alpha0 = np.clip(alphas / alphas.sum(), 0.0, C)

    def test_box_binding(self, banana_sq):
        n = banana_sq.shape[0]
        C = SolverConfig(f=0.2).box_bound(n)
        alphas = _assert_same_solve(kernel_matrix_from_sq(banana_sq, 0.5), C, np.full(n, 1.0 / n))
        assert np.any(alphas == C)

    def test_every_alpha_at_the_box_bound(self):
        # f = 1: C = 1/n, so the uniform start is the only feasible point;
        # no multiplier can rise and every pass stops at its first check
        X = np.random.default_rng(0).normal(size=(12, 2))
        C = SolverConfig(f=1.0).box_bound(12)
        alpha0 = np.full(12, 1.0 / 12)
        K = kernel_matrix(X, KernelSpec(GAUSSIAN, 1.0))
        assert reference_smo(K, C, 1e-6, 1000, alpha0)[1:] == (0.0, 0)
        alphas = _assert_same_solve(K, C, alpha0, max_iterations=1000)
        assert alphas.tobytes() == alpha0.tobytes()

    def test_near_duplicate_rows_at_curvature_floor(self):
        # exact binary coordinates keep the linear Gram matrix exact: each
        # row pair (k, k + 8) has curvature 2**-40, below the floor
        base = np.random.default_rng(0).integers(-7, 8, size=(8, 2)).astype(float)
        X = np.vstack([base, base + [2.0**-20, 0.0]])
        K = linear_gram(X)
        C = SolverConfig(f=0.3).box_bound(16)
        alpha0 = np.full(16, 1.0 / 16)
        stats = {}
        reference_smo(K, C, 1e-6, 100_000, alpha0, stats=stats)
        assert stats["floor_steps"] > 0
        _assert_same_solve(K, C, alpha0)

    def test_linear_kernel(self, rng):
        X = rng.normal(size=(60, 3))
        K = linear_gram(X)
        _assert_same_solve(K, SolverConfig(f=0.05).box_bound(60), rng.dirichlet(np.ones(60)))

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="maximal-violating-pair SMO stalls at the iteration cap; "
                              "second-order working-set selection (ROADMAP item 2) converges")
    @pytest.mark.parametrize("seed", range(6))
    def test_linear_kernel_on_near_duplicate_rows_converges(self, seed):
        # integer rows plus copies shifted by 2^-20: the pair steps stay
        # tiny and the residual stays between 3.8e-6 and 4.6e-5
        rows = np.random.default_rng(seed).integers(-7, 8, (8, 2)).astype(float)
        K = linear_gram(np.vstack([rows, rows + 2.0**-20]))
        config = SolverConfig(f=0.1)
        _, residual, _, _ = solver._solve_smo(whole_rows(K), config.box_bound(16),
                                              config.kkt_tol, config.max_iterations,
                                              np.full(16, 1.0 / 16))
        assert residual <= config.kkt_tol

    def test_convergence_error_payload(self, banana_sq):
        n = banana_sq.shape[0]
        K = kernel_matrix_from_sq(banana_sq, 0.3)
        C = SolverConfig(f=0.001).box_bound(n)
        for name in supported_passes():
            _assert_same_failure(K, C, np.full(n, 1.0 / n), 1e-6, 50, name)

    @pytest.mark.parametrize("name", PASSES)
    @settings(max_examples=60, deadline=None)
    @given(**RANDOM_PROBLEMS)
    def test_random_problems(self, name, seed, n, integer_rows, near_copies, kind, s, f,
                             warm, max_iterations):
        if name not in supported_passes():
            pytest.skip(f"the {name} pass cannot run on this host")
        K, C, alpha0 = _random_problem(seed, n, integer_rows, near_copies, kind, s, f, warm)
        try:
            expected = reference_smo(K, C, 1e-6, max_iterations, alpha0)
        except ConvergenceError:
            _assert_same_failure(K, C, alpha0, 1e-6, max_iterations, name)
            return
        alphas, residual, iterations, _ = _solve_on(name, K, C, 1e-6, max_iterations, alpha0)
        assert np.array_equal(alphas, expected[0])
        assert residual == expected[1]
        assert iterations == expected[2]

    @pytest.mark.parametrize("name", PASSES)
    @settings(max_examples=60, deadline=None)
    @given(**RANDOM_PROBLEMS, support_share=st.floats(0.0, 1.0),
           filled_share=st.floats(0.0, 1.0))
    def test_row_buffer_matches_dense(self, name, seed, n, integer_rows, near_copies, kind, s,
                                      f, warm, max_iterations, support_share, filled_share):
        # a buffer whose rows outside the start's support are filled at
        # random, with arbitrary finite values in neither a filled row nor
        # a filled column, solves as the dense matrix does, bit for bit
        if name not in supported_passes():
            pytest.skip(f"the {name} pass cannot run on this host")
        K, C, alpha0 = _random_problem(seed, n, integer_rows, near_copies, kind, s, f, warm)
        rng = np.random.default_rng([seed, 1])
        if warm:
            alpha0 = _sparse_warm_start(rng, alpha0, C, support_share)
        buffer = rng.uniform(-1e3, 1e3, size=K.shape)
        np.fill_diagonal(buffer, np.diag(K))
        rows = solver._KernelRows(buffer, lambda index: K[index])
        rows.fill(np.flatnonzero((alpha0 > 0.0) | (rng.random(alpha0.size) < filled_share)))
        with pinned(name):
            try:
                expected = solver._solve_smo(whole_rows(K), C, 1e-6, max_iterations, alpha0)
            except ConvergenceError as dense:
                with pytest.raises(ConvergenceError) as err:
                    solver._solve_smo(rows, C, 1e-6, max_iterations, alpha0)
                assert err.value.alphas.tobytes() == dense.alphas.tobytes()
                assert err.value.kkt_residual == dense.kkt_residual
                assert err.value.iterations == dense.iterations
                return
            got = solver._solve_smo(rows, C, 1e-6, max_iterations, alpha0)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1:3] == expected[1:3]
        assert np.array_equal(got[3], expected[3])
        assert rows.filled[got[0] > 0.0].all()

    @pytest.mark.parametrize("name", PASSES)
    @settings(max_examples=60, deadline=None)
    @given(**RANDOM_PROBLEMS, support_share=st.floats(0.0, 1.0))
    def test_only_rows_outside_the_support_are_requested(self, name, seed, n, integer_rows,
                                                         near_copies, kind, s, f, warm,
                                                         max_iterations, support_share):
        if name not in supported_passes():
            pytest.skip(f"the {name} pass cannot run on this host")
        K, C, alpha0 = _random_problem(seed, n, integer_rows, near_copies, kind, s, f, warm)
        if warm:
            alpha0 = _sparse_warm_start(np.random.default_rng([seed, 1]), alpha0, C,
                                        support_share)
        requested = _requested_rows(name, K, C, alpha0, max_iterations)
        assert all(alpha == 0.0 for _, alpha in requested)

    @pytest.mark.parametrize("name", PASSES)
    def test_a_warm_sweep_requests_only_rows_outside_the_support(self, banana_sq, name):
        # a cold start fills every row; the warm starts after it grow
        # their support by a few rows
        n = banana_sq.shape[0]
        C = SolverConfig(f=0.001).box_bound(n)
        alpha0 = np.full(n, 1.0 / n)
        requested = []
        for s in (0.3, 0.4, 0.5, 0.6):
            K = kernel_matrix_from_sq(banana_sq, s)
            requested += _requested_rows(name, K, C, alpha0, 100_000)
            alphas = reference_smo(K, C, 1e-6, 100_000, alpha0)[0]
            alpha0 = np.clip(alphas / alphas.sum(), 0.0, C)
        assert requested
        assert all(alpha == 0.0 for _, alpha in requested)


def _requested_rows(name, K, C, alpha0, max_iterations):
    """``(row, alpha[row])`` for every row that ``solver._solve_smo`` fills
    after its start, on pass ``name``, with alpha as it was when the row
    was requested; the start fills only the rows of its support. Each time
    the loop returns, every row with alpha > 0 must be filled."""
    state, requested = {}, []

    def source(index):
        if "alpha" in state:
            requested.extend(zip(index.tolist(), state["alpha"][index].tolist()))
        return K[index]

    buffer = np.zeros(K.shape)
    np.fill_diagonal(buffer, np.diag(K))
    rows = solver._KernelRows(buffer, source)
    rows.fill(np.flatnonzero(alpha0 > 0.0))
    with pinned(name), pytest.MonkeyPatch.context() as patch:
        loop = _native.smo_loop() or solver._run_python

        def recording(K, alpha, grad, up_pen, low_pen, filled, *rest):
            state["alpha"] = alpha
            done = loop(K, alpha, grad, up_pen, low_pen, filled, *rest)
            assert filled[alpha > 0.0].all()
            return done

        patch.setattr(_native, "smo_loop", lambda: recording)
        try:
            solver._solve_smo(rows, C, 1e-6, max_iterations, alpha0)
        except ConvergenceError:
            pass
    return requested


class TestLoopPair:
    """The loop steps from the pair it is handed, stops on the violation of
    the bound sets' extremes, and writes back the pair it stopped at."""

    @pytest.mark.parametrize("name", PASSES)
    def test_every_alpha_at_the_box_bound_stops_at_once(self, name):
        # C = 1/n: the uniform start is the only feasible point and no
        # multiplier can rise, so the violation is -inf; the raw gap
        # grad[j] - grad[i] of the same start never reaches kkt_tol
        n = 12
        K = kernel_matrix(np.random.default_rng(0).normal(size=(n, 2)), KernelSpec(GAUSSIAN, 1.0))
        alpha0 = np.full(n, 1.0 / n)
        with pinned(name):
            alpha, residual, iterations, _ = solver._solve_smo(whole_rows(K), 1.0 / n, 1e-6,
                                                               1000, alpha0)
        assert iterations == 0
        assert residual == 0.0
        assert alpha.tobytes() == alpha0.tobytes()

    @pytest.mark.parametrize("name", PASSES)
    def test_a_resumed_call_starts_from_the_pair_written_back(self, name):
        # a warm start on 20 of 60 rows fills only those, so the loop
        # returns at rows outside them and is called again
        X = generate_shape("banana", n=60, seed=11)
        K = kernel_matrix(X, KernelSpec(GAUSSIAN, 0.5))
        alpha0 = np.zeros(60)
        alpha0[:20] = 1.0 / 20
        rows = solver._KernelRows(np.eye(60), lambda index: K[index])
        rows.fill(np.flatnonzero(alpha0))
        calls = []
        with pinned(name), pytest.MonkeyPatch.context() as patch:
            loop = _native.smo_loop() or solver._run_python

            def recording(K, alpha, grad, up_pen, low_pen, filled, pair, *rest):
                entry = pair.tolist(), bool(filled[pair[0]])
                iterations, missing = loop(K, alpha, grad, up_pen, low_pen, filled, pair, *rest)
                calls.append((*entry, pair.tolist(), missing, bool(filled[pair[0]])))
                return iterations, missing

            patch.setattr(_native, "smo_loop", lambda: recording)
            solver._solve_smo(rows, SolverConfig(f=0.2).box_bound(60), 1e-6, 100_000, alpha0)
        resumes = [k for k in range(len(calls) - 1) if calls[k][3]]
        assert resumes
        for k in resumes:
            _, _, written, _, filled_at_return = calls[k]
            entry, filled_at_entry, *_ = calls[k + 1]
            assert not filled_at_return
            assert entry == written and filled_at_entry


class TestThreshold:
    def test_single_point_zero(self):
        model = train([[0.0]], KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.5))
        assert model.r_squared == 0.0

    def test_two_point_value(self, two_point_model):
        assert two_point_model.r_squared == pytest.approx(TWO_POINT_R2, abs=1e-8)

    def test_identical_points_zero(self):
        X = np.full((5, 2), 3.0)
        model = train(X, KernelSpec(GAUSSIAN, 2.0), SolverConfig(f=0.2))
        assert model.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_strict_threshold_degenerate_when_no_boundary_svs(self):
        # f = 1 forces every alpha to the box bound C = 1/n, so the strict
        # boundary average has nothing to average over; training still
        # succeeds, and with no alpha = 0 point the threshold is the upper
        # end of the KKT bracket: both points' distance 1/2 - exp(-1/2)/2
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        model = train(X, KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=1.0))
        assert _free_indices(model).size == 0
        assert model.r_squared == pytest.approx(0.5 - 0.5 * math.exp(-0.5), abs=1e-12)

    def test_vertex_optimum_two_far_pairs(self):
        # n=4, f=0.5 (C = 1/2): two tight, well-separated pairs push the
        # optimum to alpha = (C, 0, C, 0)-style vertices with no boundary
        # support vector; the threshold falls back to the KKT bracket
        X = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 0.0], [50.1, 0.0]])
        model = train(X, KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.5))
        K = kernel_matrix(X, KernelSpec(GAUSSIAN, 1.0))
        best, _ = simplex_grid_max(K, C=0.5, step=1e-3)
        assert model.dual_objective == pytest.approx(best, abs=1e-4)
        assert model.r_squared >= 0.0

    @pytest.mark.parametrize("s", [0.2, 0.9])
    def test_threshold_is_the_boundary_mean_of_the_dense_distances(self, s):
        X = generate_shape("banana", seed=11)
        spec = KernelSpec(GAUSSIAN, s)
        model = train(X, spec, SolverConfig(f=0.001))
        K = kernel_matrix(X, spec)
        K_alphas = K @ model.alphas
        dist_sq = 1.0 - 2.0 * K_alphas + float(model.alphas @ K_alphas)
        boundary = _free_indices(model)
        assert boundary.size > 0
        assert model.r_squared == max(float(dist_sq[boundary].mean()), 0.0)

    def test_boundary_distances_that_disagree_are_a_numerical_error(self):
        kkt_tol = 1e-6
        # the boundary support vectors are rows 0 and 1
        alphas = np.array([0.25, 0.25, 0.5, 0.0])
        dist_sq = np.array([0.5, 0.5 + 9 * kkt_tol, 0.7, 0.3])
        assert solver._threshold(dist_sq, alphas, 0.5, kkt_tol) == pytest.approx(
            0.5 + 4.5 * kkt_tol, abs=1e-15)
        dist_sq[1] = 0.5 + 11 * kkt_tol
        with pytest.raises(NumericalError, match="disagree on the threshold by 1.100e-05"):
            solver._threshold(dist_sq, alphas, 0.5, kkt_tol)

    @staticmethod
    def _assert_rule_as_written(dist_sq, alphas, C, kkt_tol):
        """The positions partition the indices by the written-out bounds,
        and R^2 (or its error) is the written-out rule's, bit for bit."""
        at_zero, free, at_C = solver._positions(alphas, C, kkt_tol)
        assert (at_zero.astype(int) + free + at_C == 1).all()
        np.testing.assert_array_equal(at_zero, alphas <= kkt_tol)
        np.testing.assert_array_equal(at_C, alphas >= C - kkt_tol)

        def outcome(threshold):
            try:
                return np.float64(threshold(dist_sq, alphas, C, kkt_tol)).tobytes()
            except NumericalError as exc:
                return str(exc)

        assert outcome(solver._threshold) == outcome(reference_threshold)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           kkt_tol=st.sampled_from([1e-9, 1e-6, 1e-4, 1e-2]), headroom=st.floats(3.0, 1e4),
           spread=st.sampled_from([0.0, 1.0, 20.0]))
    def test_random_multipliers_keep_the_written_out_rule(self, seed, n, kkt_tol, headroom,
                                                          spread):
        # C >= 3 kkt_tol, so no multiplier lies in both bound bands; half the
        # multipliers sit on a band's edge or a float beside it
        rng = np.random.default_rng(seed)
        C = headroom * kkt_tol
        edges = np.array([0.0, kkt_tol, np.nextafter(kkt_tol, np.inf), C - kkt_tol,
                          np.nextafter(C - kkt_tol, 0.0), C])
        alphas = np.where(rng.random(n) < 0.5, rng.choice(edges, n), rng.uniform(0.0, C, n))
        dist_sq = 0.5 + spread * kkt_tol * rng.uniform(-1.0, 1.0, n)
        at_bound = (alphas <= kkt_tol) | (alphas >= C - kkt_tol)
        dist_sq[at_bound] = rng.uniform(0.0, 2.0, int(at_bound.sum()))
        self._assert_rule_as_written(dist_sq, alphas, C, kkt_tol)

    @pytest.mark.parametrize("alphas, C", [
        ([0.0, 0.5, 0.0, 0.5], 0.5),        # no free multiplier: the bracket's midpoint
        ([0.0, 0.0, 0.0], 0.5),             # none at C: the bracket's top is 0
        ([0.25, 0.25, 0.25, 0.25], 0.25),   # every multiplier at C
        ([0.0, 1e-6, 0.5, 0.5 - 1e-6], 0.5),  # every multiplier on a band's edge
    ])
    def test_bound_only_multipliers_keep_the_written_out_rule(self, alphas, C):
        dist_sq = np.array([0.3, 0.9, 0.7, 0.45][:len(alphas)])
        self._assert_rule_as_written(dist_sq, np.array(alphas), C, 1e-6)

    def test_bound_bands_that_meet_put_a_multiplier_at_C(self):
        # f = 1 puts every alpha at C = 1/267; at kkt_tol = 0.01 each is also
        # within kkt_tol of 0, and counts at C alone: R^2 is the smallest
        # distance, as at the default kkt_tol, and every row reports outside
        X = generate_shape("banana", seed=11)
        spec = KernelSpec(GAUSSIAN, 0.9)
        model = train(X, spec, SolverConfig(f=1.0, kkt_tol=0.01))
        assert model.C < 2 * 0.01
        assert model.r_squared == train(X, spec, SolverConfig(f=1.0)).r_squared
        assert position_report(model).counts() == {"inside": 0, "boundary": 0, "outside": 267}


class TestScoring:
    def test_training_point_on_boundary(self, two_point_model, two_point_data):
        d = score_distances(two_point_model, two_point_data[:1])[0]
        assert d == pytest.approx(two_point_model.r_squared, abs=1e-9)

    def test_midpoint_distance_value(self, two_point_model):
        # 1 - 2 exp(-1/8) + (0.5 + 0.5 exp(-1/2)), from the scoring formula
        expected = 1.0 - 2.0 * math.exp(-1.0 / 8.0) + 0.5 + 0.5 * K12
        d = score_distances(two_point_model, [[1.0, 0.0]])[0]
        assert d == pytest.approx(expected, abs=1e-10)
        assert d == pytest.approx(0.0382715247, abs=1e-9)
        assert d < two_point_model.r_squared

    def test_far_point_distance_limit(self, two_point_model):
        # both kernel terms vanish, leaving K(z, z) + alpha' K alpha
        expected = 1.0 + 0.5 + 0.5 * K12
        d = score_distances(two_point_model, [[100.0, 0.0]])[0]
        assert d == pytest.approx(expected, abs=1e-9)

    def test_single_point_self_distance(self):
        model = train([[2.0, 3.0]], KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.5))
        assert score_distances(model, [[2.0, 3.0]])[0] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self, two_point_model):
        with pytest.raises(DimensionError):
            score_distances(two_point_model, [[1.0, 2.0, 3.0]])

    def test_batch_matches_single(self, two_point_model, rng):
        Z = rng.normal(size=(6, 2))
        batch = score_distances(two_point_model, Z)
        singles = [score_distances(two_point_model, z[None])[0] for z in Z]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 7, 20, 21])
    def test_block_scoring_matches_one_piece(self, rng, monkeypatch, rows):
        model = train(rng.normal(size=(15, 2)), KernelSpec(GAUSSIAN, 0.8), SolverConfig(f=0.1))
        Z = rng.normal(size=(rows, 2))
        cross = cross_kernel(Z, model.support_vectors, model.spec)
        whole = 1.0 - 2.0 * (cross @ model.sv_alphas()) + model.alpha_quad
        monkeypatch.setattr(solver, "SCORE_BLOCK_ROWS", 7)
        np.testing.assert_array_equal(score_distances(model, Z), whole)


class TestScoreLattice:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        rx=st.integers(2, 9),
        ry=st.integers(2, 9),
        s=st.floats(0.2, 3.0),
        reload=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_row_scoring_of_the_points(self, seed, n, rx, ry, s, reload):
        assume(rx != ry)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, (n, 2))
        model = train(X, KernelSpec(GAUSSIAN, s), SolverConfig(f=0.1))
        if reload:
            # a reloaded model keeps only its support vectors
            model = model_from_dict(json.loads(json.dumps(model.to_dict())))
        grid = LabeledGrid(rng.uniform(-5.0, 5.0, rx), rng.uniform(-5.0, 5.0, ry),
                           np.zeros(rx * ry, dtype=bool))
        lattice = score_lattice(model, grid.xs, grid.ys)
        rows = score_distances(model, grid.points)
        np.testing.assert_allclose(lattice, rows, rtol=0.0, atol=1e-12)
        clear = np.abs(rows - model.r_squared) > 1e-12
        np.testing.assert_array_equal((lattice > model.r_squared)[clear],
                                      (rows > model.r_squared)[clear])

    def test_needs_a_2d_model(self):
        model = train(np.eye(3), KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.2))
        with pytest.raises(DimensionError):
            score_lattice(model, [0.0, 1.0], [0.0, 1.0])


class TestClassify:
    def test_boundary_point_is_inlier(self, two_point_model, two_point_data):
        # dist^2 == R^2 exactly on the boundary; the outlier rule is strict
        labels = classify(two_point_model, two_point_data)
        assert list(labels) == [INLIER, INLIER]

    def test_midpoint_inlier(self, two_point_model):
        assert classify(two_point_model, [[1.0, 0.0]])[0] == INLIER

    def test_far_point_outlier(self, two_point_model):
        assert classify(two_point_model, [[100.0, 0.0]])[0] == OUTLIER


class TestRefusedAllocations:
    # each allocation that grows with the square of n is an InputError
    # naming n when the host refuses it, not numpy's MemoryError

    def test_train_row_buffer(self, two_point_data, refuse):
        refuse(np, "eye")
        with pytest.raises(InputError, match="^the kernel row buffer of 2 rows needs"):
            train(two_point_data, KernelSpec(GAUSSIAN, 2.0), SolverConfig(f=0.5))

    def test_train_path_row_buffer(self, two_point_data, refuse):
        refuse(np, "eye")
        with pytest.raises(InputError, match="^the kernel row buffer of 2 rows needs"):
            next(train_path(two_point_data, [1.0, 2.0], SolverConfig(f=0.5)))

    def test_loaded_model_kernel_matrix(self, two_point_model, refuse):
        payload = two_point_model.to_dict()
        refuse(kernel, "squared_distances")
        with pytest.raises(InputError,
                           match="^the support-vector kernel matrix of 2 rows needs"):
            model_from_dict(payload)


class TestPositionReport:
    def test_two_point_both_boundary(self, two_point_model):
        report = position_report(two_point_model)
        assert list(report.positions) == [BOUNDARY, BOUNDARY]

    def test_collinear_middle_inside(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        model = train(X, KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.01))
        report = position_report(model)
        assert report.positions[1] == INSIDE
        assert report.positions[0] == BOUNDARY
        assert report.positions[2] == BOUNDARY

    def test_single_point_boundary(self):
        model = train([[0.0]], KernelSpec(GAUSSIAN, 1.0), SolverConfig(f=0.5))
        report = position_report(model)
        assert list(report.positions) == [BOUNDARY]

    def test_agreement_on_random_data(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 25))
            X = rng.normal(size=(n, 2))
            model = train(
                X,
                KernelSpec(GAUSSIAN, float(rng.uniform(0.4, 2.5))),
                SolverConfig(f=float(rng.uniform(0.05, 0.5))),
            )
            report = position_report(model)
            tol = report.tolerance
            assert tol == 10.0 * model.config.kkt_tol
            r2 = report.r_squared
            for pos, d in zip(report.positions, report.distances):
                if pos == INSIDE:
                    assert d <= r2 + tol
                elif pos == BOUNDARY:
                    assert abs(d - r2) <= tol
                else:
                    assert d >= r2 - tol


class TestSerialization:
    def test_round_trip_scores_match(self, rng, tmp_path):
        X = rng.normal(size=(12, 2))
        model = train(X, KernelSpec(GAUSSIAN, 1.1), SolverConfig(f=0.2))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = load_model(path)
        Z = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            score_distances(loaded, Z), score_distances(model, Z), atol=1e-10
        )
        assert loaded.r_squared == model.r_squared
        assert loaded.spec == model.spec

    def test_schema_fields(self, two_point_model, tmp_path):
        path = tmp_path / "model.json"
        two_point_model.save(path)
        payload = json.loads(path.read_text())
        expected = {
            "format_version",
            "kernel_kind",
            "s",
            "f",
            "C",
            "kkt_tol",
            "r_squared",
            "dual_objective",
            "support_vectors",
            "alphas",
        }
        assert set(payload) == expected
        assert payload["format_version"] == 1
        assert payload["kernel_kind"] == "gaussian"
        assert payload["s"] == 2.0
        assert payload["C"] == 5.0
        assert len(payload["alphas"]) == len(payload["support_vectors"]) == 2

    def test_loaded_model_keeps_box_bound(self, tmp_path):
        # a loaded model holds only its support vectors, so 1/(n f) from its
        # own rows would be far too large a box
        model = train(generate_shape("banana", seed=11), KernelSpec(GAUSSIAN, 0.9),
                      SolverConfig(f=0.05))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(first)
        loaded = load_model(first)
        loaded.save(second)
        assert loaded.C == model.C
        assert json.loads(second.read_text()) == json.loads(first.read_text())
        trained_counts = position_report(model).counts()
        loaded_counts = position_report(loaded).counts()
        assert loaded_counts["outside"] == trained_counts["outside"] > 0
        assert loaded_counts["boundary"] == trained_counts["boundary"]

    @pytest.mark.parametrize("kkt_tol", [1e-4, 1e-3])
    def test_loaded_model_reports_positions_at_its_kkt_tol(self, kkt_tol):
        # at the default 1e-6 the loaded model's multipliers were judged on a
        # finer band than they were solved to
        model = train(generate_shape("banana", seed=11), KernelSpec(GAUSSIAN, 0.9),
                      SolverConfig(f=0.05, kkt_tol=kkt_tol))
        loaded = model_from_dict(model.to_dict())
        assert loaded.config.kkt_tol == kkt_tol
        trained_counts = position_report(model).counts()
        assert position_report(loaded).counts()["boundary"] == trained_counts["boundary"]

    def test_model_without_kkt_tol_loads_at_the_default(self):
        model = train(generate_shape("banana", seed=11), KernelSpec(GAUSSIAN, 0.9),
                      SolverConfig(f=0.05, kkt_tol=1e-4))
        payload = model.to_dict()
        del payload["kkt_tol"]
        assert model_from_dict(payload).config.kkt_tol == 1e-6

    @pytest.mark.parametrize("field, value", [("C", None), ("f", "much")])
    def test_mistyped_field_rejected(self, two_point_model, field, value):
        payload = two_point_model.to_dict()
        payload[field] = value
        with pytest.raises(InputError):
            model_from_dict(payload)

    @pytest.mark.parametrize("field", ["kernel_kind", "C", "r_squared", "support_vectors"])
    def test_missing_field_rejected(self, two_point_model, field):
        payload = two_point_model.to_dict()
        del payload[field]
        with pytest.raises(InputError, match=field):
            model_from_dict(payload)

    @pytest.mark.parametrize("field, value, message", [
        ("r_squared", math.nan, "'r_squared' must be non-negative and finite"),
        ("r_squared", math.inf, "'r_squared' must be non-negative and finite"),
        ("r_squared", -1e-3, "'r_squared' must be non-negative and finite"),
        ("C", math.nan, "'C' must be positive and finite"),
        ("C", math.inf, "'C' must be positive and finite"),
        ("C", 0.0, "'C' must be positive and finite"),
        ("dual_objective", math.nan, "'dual_objective' must be finite"),
        ("dual_objective", -math.inf, "'dual_objective' must be finite"),
        ("alphas", [math.nan, 0.5], "'alphas' must be non-negative and finite"),
        ("alphas", [0.5, math.inf], "'alphas' must be non-negative and finite"),
        ("alphas", [1.5, -0.5], "'alphas' must be non-negative and finite"),
        ("support_vectors", [[0.0, 0.0], [math.nan, 0.0]], "support_vectors contains NaN"),
        ("support_vectors", [[0.0, -math.inf], [2.0, 0.0]], "support_vectors contains NaN"),
    ])
    def test_field_that_is_not_finite_or_out_of_range_rejected(self, two_point_model, field,
                                                               value, message):
        payload = {**two_point_model.to_dict(), field: value}
        with pytest.raises(InputError, match=message):
            model_from_dict(payload)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not a model\n")
        with pytest.raises(InputError):
            load_model(path)

    def test_unknown_version_rejected(self, two_point_model):
        payload = two_point_model.to_dict()
        payload["format_version"] = 99
        with pytest.raises(InputError):
            model_from_dict(payload)

    def test_linear_model_rejected(self, two_point_model):
        # the form a linear model was saved in
        payload = {**two_point_model.to_dict(), "kernel_kind": "linear", "s": None}
        with pytest.raises(InputError, match="kernel_kind 'linear'"):
            model_from_dict(payload)
