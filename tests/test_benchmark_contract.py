"""What the traced benchmark run (``perfbench/run.py --trace 1``) reads from
the package. The spans wrap the functions that ``perfbench/spans.py``
lists in ``TARGETS`` and count what their counters read off each result,
and ``perfbench/replay.py`` binds each recorded ``sweep_objective`` call
to read its arguments by name, then re-solves its grid. A rename here
breaks that run, which no other test starts."""

import importlib
import inspect
import pathlib
import runpy

import pytest

from svddpeak import datagen, kernel, solver, tuning

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]

# the arguments replay.probe_sweep_solves reads from a bound call
PROBE_READS = ("X", "f", "grid", "config", "warm_start")


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_span_target_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.attr))


def test_sweep_objective_binds_what_the_probe_reads():
    signature = inspect.signature(tuning.sweep_objective)
    # the call the CLI makes: X, f and grid by position
    bound = signature.bind(None, 0.001, None, config=None, jobs=1)
    bound.apply_defaults()
    assert set(PROBE_READS) <= bound.arguments.keys()
    signature.bind(**dict.fromkeys(PROBE_READS))


def _counted_calls(tmp_path) -> dict:
    """For each span with a counter: the arguments of a small real call
    and the counts it must give."""
    X = datagen.generate_shape("banana", seed=11)[:12]
    Z = X[:3] + 0.5
    spec = kernel.KernelSpec(s=1.0)
    config = solver.SolverConfig(f=0.001)
    model = solver.train(X, spec, config)
    polygon = datagen.generate_polygon(datagen.PolygonConfig(k=5, seed=3))
    rows = tmp_path / "rows.csv"
    rows.write_text("x1,x2\n0,1\n2,3\n4,5\n")
    return {
        "kernel.squared_distance_matrix": ((X,), {"entries": 144}),
        "kernel.kernel_matrix_from_sq": ((kernel.squared_distance_matrix(X), 1.0),
                                         {"entries": 144}),
        "kernel.cross_kernel": ((Z, X, spec), {"entries": 36}),
        # train is deterministic, so a second solve counts what the first did
        "solver.train": ((X, spec, config), {"iterations": model.iterations,
                                             "kkt_residual": model.kkt_residual,
                                             "n_sv": model.sv_indices.size}),
        "solver.score_distances": ((model, Z), {"rows": 3}),
        "datagen.sample_interior": ((polygon, 7, 1), {"rows": 7}),
        "datagen.points_in_polygon": ((Z, polygon), {"entries": 3}),
        "cli.read_csv_dataset": ((str(rows),), {"rows": 3}),
    }


def test_each_span_counter_reads_a_real_result(tmp_path):
    calls = _counted_calls(tmp_path)
    counted = [t for t in TARGETS if t.counter is not None]
    assert sorted(t.span_name for t in counted) == sorted(calls)
    for target in counted:
        args, counts = calls[target.span_name]
        result = getattr(importlib.import_module(target.module), target.attr)(*args)
        assert target.counter(result, *args) == counts, target.span_name


def test_the_probe_solves_a_grid_as_the_replay_calls_it():
    # replay.probe_sweep_solves: KernelSpec by position, train warm-started
    # from the previous solve's alphas
    X = datagen.generate_shape("banana", seed=11)
    config = solver.SolverConfig(f=0.001)
    alphas = None
    for s in tuning.BandwidthGrid(0.85, 0.9, 0.05).values():
        model = solver.train(X, kernel.KernelSpec(kernel.GAUSSIAN, float(s)), config,
                             initial_alphas=alphas)
        alphas = model.alphas
    cold = solver.train(X, kernel.KernelSpec(s=0.9), config)
    assert model.dual_objective == pytest.approx(cold.dual_objective, abs=1e-6)
