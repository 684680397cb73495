import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svddpeak import solver
from svddpeak.datagen import LabeledGrid, generate_shape
from svddpeak.errors import (
    ConvergenceError,
    DimensionError,
    InputError,
    NumericalError,
)
from svddpeak.kernel import (
    GAUSSIAN,
    LINEAR,
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

from oracles import reference_smo, simplex_grid_max
from native_paths import PASSES, pinned, supported_passes

K12 = math.exp(-0.5)
TWO_POINT_R2 = 0.5 - 0.5 * K12  # analytic optimum of the symmetric pair at s=2


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
            assert model.boundary_sv_indices.size > 0
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

    def test_overflowing_linear_gram_is_rejected_before_the_solve(self, rng, monkeypatch):
        # finite rows whose inner products overflow: the SMO loop once ran
        # all 100,000 iterations on a NaN gradient
        X = rng.normal(size=(20, 2)) * 1e160
        monkeypatch.setattr(solver, "_solve_smo", lambda *args: pytest.fail("SMO ran"))
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="overflows"):
            train(X, KernelSpec(LINEAR, None), SolverConfig(f=0.1))
        assert time.perf_counter() - start < 1.0


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

    def test_failed_solve_is_yielded_and_path_goes_on(self, banana):
        # 300 iterations are enough for wide bandwidths, not for narrow ones
        config = SolverConfig(f=0.001, max_iterations=300)
        path = list(train_path(banana, (3.0, 0.1, 3.1), config))
        assert [s for s, _ in path] == [3.0, 0.1, 3.1]
        assert isinstance(path[1][1], ConvergenceError)
        # the warm start skips the failed solve: it comes from the last model
        expected = train(banana, KernelSpec(GAUSSIAN, 3.1), config,
                         initial_alphas=path[0][1].alphas)
        _assert_same_model(path[2][1], expected)


def _solve_on(name, *args):
    """``solver._solve_smo(*args)`` on the inner-loop pass ``name``."""
    with pinned(name):
        return solver._solve_smo(*args)


def _assert_same_solve(K, C, alpha0, kkt_tol=1e-6, max_iterations=100_000):
    """Every pass the host runs reproduces the plain reference loop bit for bit."""
    expected = reference_smo(K, C, kkt_tol, max_iterations, alpha0)
    for name in supported_passes():
        alphas, residual, iterations = _solve_on(name, K, C, kkt_tol, max_iterations, alpha0)
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

    def test_near_duplicate_rows_at_curvature_floor(self):
        # exact binary coordinates keep the linear Gram matrix exact: each
        # row pair (k, k + 8) has curvature 2**-40, below the floor
        base = np.random.default_rng(0).integers(-7, 8, size=(8, 2)).astype(float)
        X = np.vstack([base, base + [2.0**-20, 0.0]])
        K = kernel_matrix(X, KernelSpec(LINEAR, None))
        C = SolverConfig(f=0.3).box_bound(16)
        alpha0 = np.full(16, 1.0 / 16)
        stats = {}
        reference_smo(K, C, 1e-6, 100_000, alpha0, stats=stats)
        assert stats["floor_steps"] > 0
        _assert_same_solve(K, C, alpha0)

    def test_linear_kernel(self, rng):
        X = rng.normal(size=(60, 3))
        K = kernel_matrix(X, KernelSpec(LINEAR, None))
        _assert_same_solve(K, SolverConfig(f=0.05).box_bound(60), rng.dirichlet(np.ones(60)))

    def test_convergence_error_payload(self, banana_sq):
        n = banana_sq.shape[0]
        K = kernel_matrix_from_sq(banana_sq, 0.3)
        C = SolverConfig(f=0.001).box_bound(n)
        for name in supported_passes():
            _assert_same_failure(K, C, np.full(n, 1.0 / n), 1e-6, 50, name)

    @pytest.mark.parametrize("name", PASSES)
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # every tail length of the 4- and 8-lane passes, and several blocks
        n=st.integers(2, 70),
        integer_rows=st.booleans(),
        near_copies=st.integers(0, 3),
        kind=st.sampled_from([GAUSSIAN, LINEAR]),
        s=st.floats(0.05, 4.0),
        f=st.floats(0.01, 0.95),
        warm=st.booleans(),
        max_iterations=st.one_of(st.integers(1, 40), st.just(20_000)),
    )
    def test_random_problems(self, name, seed, n, integer_rows, near_copies, kind, s, f,
                             warm, max_iterations):
        if name not in supported_passes():
            pytest.skip(f"the {name} pass cannot run on this host")
        rng = np.random.default_rng(seed)
        shape = (n, int(rng.integers(1, 4)))
        # integer rows tie many gradient entries exactly; copies shifted by
        # 2**-20 take steps at the curvature floor
        if integer_rows:
            X = rng.integers(-7, 8, size=shape).astype(float)
        else:
            X = rng.normal(size=shape)
        X = np.vstack([X, X[:near_copies] + 2.0**-20])
        K = kernel_matrix(X, KernelSpec(kind, s if kind == GAUSSIAN else None))
        C = SolverConfig(f=f).box_bound(X.shape[0])
        if warm:
            # the start _fit makes of a warm start: clipped, rescaled, clipped
            alpha0 = np.clip(rng.dirichlet(np.ones(X.shape[0])), 0.0, C)
            alpha0 = np.clip(alpha0 / alpha0.sum(), 0.0, C)
        else:
            alpha0 = np.full(X.shape[0], 1.0 / X.shape[0])
        try:
            expected = reference_smo(K, C, 1e-6, max_iterations, alpha0)
        except ConvergenceError:
            _assert_same_failure(K, C, alpha0, 1e-6, max_iterations, name)
            return
        alphas, residual, iterations = _solve_on(name, K, C, 1e-6, max_iterations, alpha0)
        assert np.array_equal(alphas, expected[0])
        assert residual == expected[1]
        assert iterations == expected[2]


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
        assert model.boundary_sv_indices.size == 0
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
        kind=st.sampled_from([GAUSSIAN, LINEAR]),
        s=st.floats(0.2, 3.0),
        reload=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_row_scoring_of_the_points(self, seed, n, rx, ry, kind, s, reload):
        assume(rx != ry)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, (n, 2))
        spec = KernelSpec(kind, s if kind == GAUSSIAN else None)
        model = train(X, spec, SolverConfig(f=0.1))
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
            r2 = report.r_squared
            for pos, d in zip(report.positions, report.distances):
                if pos == INSIDE:
                    assert d <= r2 + tol
                elif pos == BOUNDARY:
                    assert abs(d - r2) <= tol
                else:
                    assert d >= r2 - tol


class TestCenter:
    """The linear kernel's center in input space, sum_i alpha_i x_i."""

    def test_single_point(self):
        model = train([[4.0, -1.0]], KernelSpec(LINEAR, None), SolverConfig(f=0.5))
        np.testing.assert_allclose(model.alphas @ model.X, [4.0, -1.0])

    def test_two_point_midpoint(self, two_point_data):
        model = train(two_point_data, KernelSpec(LINEAR, None), SolverConfig(f=0.1))
        np.testing.assert_allclose(model.alphas @ model.X, [1.0, 0.0], atol=1e-8)

    def test_unit_square_center(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        spec = KernelSpec(LINEAR, None)
        model = train(X, spec, SolverConfig(f=0.1))
        np.testing.assert_allclose(model.alphas @ X, [0.5, 0.5], atol=1e-6)
        K = kernel_matrix(X, spec)
        best, _ = simplex_grid_max(K, C=2.5, step=1e-3)
        assert model.dual_objective == pytest.approx(best, abs=1e-4)


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

    def test_linear_model_round_trip(self, two_point_data, tmp_path):
        model = train(two_point_data, KernelSpec(LINEAR, None), SolverConfig(f=0.1))
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        assert payload["s"] is None
        loaded = load_model(path)
        np.testing.assert_allclose(
            score_distances(loaded, two_point_data),
            score_distances(model, two_point_data),
            atol=1e-12,
        )
