"""Smoke run of the shape benchmark script."""

import csv
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
