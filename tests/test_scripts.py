"""Smoke runs of the scripts."""

import csv
import importlib.util
import os
import pathlib
import subprocess
import sys

from svddpeak.datagen import SHAPE_KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_shape_benchmark_prints_a_row_and_writes_a_curve_per_shape(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_shape_benchmark.py"), "--out-dir",
         str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["shape", "cv", "md", "dfn", "peak", "range", "rec", "F1(rec)",
                              "F1", "best", "ratio"]
    assert [row.split()[0] for row in rows] == list(SHAPE_KINDS)
    for row in rows:
        assert 0.0 <= float(row.split()[-1]) <= 1.0
    for kind in SHAPE_KINDS:
        with open(tmp_path / f"{kind}_f1_curve.csv", newline="") as fh:
            curve = list(csv.reader(fh))
        assert curve[0] == ["s", "f1"] and len(curve) == 1 + 160


def test_output_digests_are_the_same_for_any_jobs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()

    def outputs(directory):
        return {name[len(directory) + 1:]: digest for digest, name in
                (line.split("  ") for line in lines) if name.startswith(directory + "/")}

    assert sorted(outputs("tune-jobs1")) == ["stdout", "tune.json", "tune_curve.csv"]
    assert outputs("tune-jobs1") == outputs("tune-jobs2")
    assert "exit 1  tune-capped" in lines and "exit 0  simulate-capped" in lines
    assert "exit 1  tune-capped-jobs2" in lines and "exit 0  simulate-allcapped" in lines
    stderr = {name: digest for digest, name in (line.split("  ") for line in lines)
              if name.endswith("/stderr")}
    assert stderr["tune-capped/stderr"] == stderr["tune-capped-jobs2/stderr"]
    assert "exit 2  train-no-bandwidth" in lines and "exit 2  shuttle-no-out" in lines
    assert "exit 2  tune-kkt-nan" in lines and "exit 2  tune-step-nan" in lines
    assert "exit 2  tune-step-1e-9" in lines
    assert "exit 2  grid-res-huge" in lines and "exit 2  grid-padding-nan" in lines
    assert "exit 2  tune-identical" in lines and "exit 2  tune-underflow" in lines
    assert "exit 2  tune-grid-range" in lines and "exit 2  simulate-grid-range" in lines
    # f = 1 trains through the solver; a negative seed is refused unwritten
    assert sorted(outputs("train-f1")) == ["model.json", "stdout"]
    assert "exit 2  shapes-seed-negative" in lines
    assert sorted(outputs("shapes-seed-negative")) == ["stderr", "stdout"]
    # the same rows from a pipe give the same bytes
    assert sorted(outputs("score-20k-stdin")) == ["scored.csv", "stdout"]
    assert outputs("score-20k-stdin") == outputs("score-20k")


def test_bench_pairs_summary_arithmetic():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    # one tie, three pairs lower on the change, one higher
    pairs = [(1.0, 0.9), (2.0, 2.0), (3.0, 3.5), (4.0, 3.0), (5.0, 4.0)]
    summary = bench_pairs.summarize(pairs, "lower")
    assert summary["parent"] == (2.0, 3.0, 4.0)
    assert summary["change"] == (2.0, 3.0, 3.5)
    assert (summary["wins"], summary["pairs"]) == (3, 5)
    assert bench_pairs.summarize(pairs, "higher")["wins"] == 1
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
