"""The traced run: replay a workload's command in-process with spans at
the layer boundaries, probe the layers the replay cannot see, and turn the
spans into per-layer metrics.

The replay calls ``svddpeak.cli.main`` with the workload's arguments, so
it runs the same public functions as the CLI, in the same order. SMO
inside ``sweep_objective`` is reached through a private helper and is
invisible there; a probe under its own root re-solves that sweep through
the public ``solver.train``, with the start policy (cold or warm) of the
recorded call. Solves made through ``solver.train`` inside the command
itself (``f1_sweep``) are seen by the replay and counted from there.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, self_times

IMPORT_REPEATS = 5

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("kernel.sqdist_s", "s"),
    ("kernel.gram_s", "s"),
    ("kernel.gram_entries", "count"),
    ("kernel.gram_bytes", "B"),
    ("kernel.cross_s", "s"),
    ("kernel.cross_entries", "count"),
    ("solver.solves", "count"),
    ("solver.smo_iterations", "count"),
    ("solver.smo_iterations_max", "count"),
    ("solver.train_s", "s"),
    ("solver.us_per_iteration", "us"),
    ("solver.kkt_residual_max", "1"),
    ("solver.n_sv_mean", "count"),
    ("solver.score_s", "s"),
    ("solver.load_model_s", "s"),
    ("tuning.sweep_s", "s"),
    ("tuning.find_peak_s", "s"),
    ("smoothing.fit_pspline_s", "s"),
    ("evaluation.f1_sweep_s", "s"),
    ("evaluation.lattice_points_scored", "count"),
    ("datagen.sample_interior_s", "s"),
    ("datagen.labeled_grid_s", "s"),
    ("datagen.pip_tests", "count"),
    ("cli.import_s", "s"),
    ("cli.read_csv_s", "s"),
    ("cli.rows_read", "count"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
)

# work counts that repeat exactly for fixed inputs and source
DETERMINISTIC = (
    "solver.solves",
    "solver.smo_iterations",
    "kernel.gram_entries",
    "kernel.cross_entries",
    "evaluation.lattice_points_scored",
    "cli.rows_read",
    "cli.bytes_written",
)

# computed, not measured: a Gram entry is read once as a squared distance
# and written once as a kernel value, 8 B each
GRAM_BYTES_PER_ENTRY = 16


def import_seconds(run_dir: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter that imports the CLI."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import svddpeak.cli"], cwd=run_dir, env=env,
                       stdin=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def replay(tracer: Tracer, argv, run_dir: Path) -> tuple[int | str, int]:
    """Run the command ``argv`` in this process, in ``run_dir``, under a root span.

    Returns (exit code or the exception raised, invocation id)."""
    import svddpeak.cli

    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tracer.root(f"cli.{argv[0]}") as root:
                try:
                    code = svddpeak.cli.main(list(argv))
                except Exception as exc:  # the program crashed: a failed replay, not a crashed run
                    code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    return code, root.invocation


def probe_sweep_solves(tracer: Tracer, replay_id: int) -> list[int]:
    """Re-solve each recorded ``sweep_objective`` grid through ``solver.train``.

    Returns the probes' invocation ids."""
    from svddpeak import kernel, solver, tuning

    signature = inspect.signature(tuning.sweep_objective)
    calls = [s.call for s in tracer.spans
             if s.invocation == replay_id and s.name == "tuning.sweep_objective"]
    ids = []
    for args, kwargs in calls:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        config = a["config"] or solver.SolverConfig(f=a["f"])
        with tracer.root("probe.sweep_solves") as root:
            alphas = None
            for s in a["grid"].values():
                model = solver.train(a["X"], kernel.KernelSpec(kernel.GAUSSIAN, float(s)), config,
                                     initial_alphas=alphas)
                if a["warm_start"]:
                    alphas = model.alphas
        ids.append(root.invocation)
    return ids


def layer_metrics(tracer: Tracer, replay_id: int, probe_ids, import_s: float,
                  untraced_wall_s: float, bytes_written: int) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    replay_idx = [i for i, s in enumerate(spans) if s.invocation == replay_id]
    root = replay_idx[0]

    def named(name, invocations=(replay_id,)):
        return [i for i, s in enumerate(spans) if s.name == name and s.invocation in invocations]

    def seconds(name):
        return sum(spans[i].duration for i in named(name))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in named(name))

    def under(i, ancestor):
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name == ancestor:
                return True
            parent = spans[parent].parent
        return False

    trains = named("solver.train", (replay_id, *probe_ids))
    iterations = [spans[i].counts["iterations"] for i in trains]
    train_s = sum(spans[i].duration for i in trains)
    train_set = set(trains)
    train_kernel_s = sum(s.duration for s in spans
                         if s.parent in train_set and s.name.startswith("kernel."))
    total_iterations = sum(iterations)
    gram_entries = count("kernel.kernel_matrix_from_sq", "entries")
    values = {
        "kernel.sqdist_s": seconds("kernel.squared_distance_matrix"),
        "kernel.gram_s": seconds("kernel.kernel_matrix_from_sq")
        + sum(selfs[i] for i in named("kernel.kernel_matrix")),
        "kernel.gram_entries": gram_entries,
        "kernel.gram_bytes": GRAM_BYTES_PER_ENTRY * gram_entries,
        "kernel.cross_s": seconds("kernel.cross_kernel"),
        "kernel.cross_entries": count("kernel.cross_kernel", "entries"),
        "solver.solves": len(trains),
        "solver.smo_iterations": total_iterations,
        "solver.smo_iterations_max": max(iterations, default=0),
        "solver.train_s": train_s,
        "solver.us_per_iteration": (
            1e6 * (train_s - train_kernel_s) / total_iterations if total_iterations else 0.0
        ),
        "solver.kkt_residual_max": max((spans[i].counts["kkt_residual"] for i in trains), default=0.0),
        "solver.n_sv_mean": (
            statistics.fmean(spans[i].counts["n_sv"] for i in trains) if trains else 0.0
        ),
        "solver.score_s": seconds("solver.score_distances"),
        "solver.load_model_s": seconds("solver.load_model"),
        "tuning.sweep_s": seconds("tuning.sweep_objective"),
        "tuning.find_peak_s": seconds("tuning.find_peak"),
        "smoothing.fit_pspline_s": seconds("smoothing.fit_pspline"),
        "evaluation.f1_sweep_s": seconds("evaluation.f1_sweep"),
        "evaluation.lattice_points_scored": sum(
            spans[i].counts["rows"] for i in named("solver.score_distances")
            if under(i, "evaluation.f1_sweep")
        ),
        "datagen.sample_interior_s": seconds("datagen.sample_interior"),
        "datagen.labeled_grid_s": seconds("datagen.make_labeled_grid"),
        "datagen.pip_tests": count("datagen.points_in_polygon", "entries"),
        "cli.import_s": import_s,
        "cli.read_csv_s": seconds("cli.read_csv_dataset"),
        "cli.rows_read": count("cli.read_csv_dataset", "rows"),
        "cli.write_s": selfs[root],
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": spans[root].duration + import_s - untraced_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
