"""Capture the reference outputs that the workload checks compare against.

    python3 perfbench/capture_reference.py

Runs `svddpeak tune --method peak` on the banana shape (rows in generated
order) and polygon-600's one-polygon `simulate` with this checkout's
source, and writes perfbench/reference.json. Re-capture only in a change
that is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import csv
import json
import shutil

from workloads import REFERENCE_PATH, WORK, WORKLOADS, banana, child_env, fresh_dir, must_run


def main() -> None:
    env = child_env()
    run_dir = fresh_dir(WORK / "capture")
    try:
        (run_dir / "out").mkdir()
        (run_dir / "in").mkdir()
        banana(run_dir, env)
        must_run(WORKLOADS["tune-banana"].argv, run_dir, env)
        report = json.loads((run_dir / "out" / "report.json").read_text())
        with open(run_dir / "out" / "report_curve.csv", newline="") as fh:
            curve = list(csv.DictReader(fh))
        tune = {key: report[key] for key in ("s", "s_low", "s_high")}
        tune["s_values"] = [float(row["s"]) for row in curve]
        tune["v_star"] = [float(row["v_star"]) for row in curve]

        must_run(WORKLOADS["polygon-600"].argv, run_dir, env)
        with open(run_dir / "out" / "polygon_study.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        polygon = {key: float(row[key])
                   for key in ("s_recommended", "s_best", "f_peak", "f_best", "ratio")}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps({"tune-banana": tune, "polygon-600": polygon},
                                         indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
