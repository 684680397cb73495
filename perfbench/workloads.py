"""The benchmark's workloads: how each one makes its inputs, which
``svddpeak`` command it runs, and how that command's outputs are checked.

Every workload runs in its own run directory with ``in/`` (inputs made
at set-up) and ``out/`` (the command's outputs). Paths handed to the
program are relative to the run directory, so manifests and byte counts
do not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from envinfo import SINGLE_THREAD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout: src/ holds the program
WORK = ROOT / ".perfbench_work"
REFERENCE_PATH = HERE / "reference.json"

BANANA_SEED = 11  # the paper's banana shape, n=267
POLYGON_MASTER_SEED = 20240501  # `svddpeak simulate` default
SCORE_S = 0.9  # the bandwidth `tune --method peak` selects on the banana
F = 0.001
QUERY_ROWS = 200_000
# slack for printed values: the CLI writes 12 significant digits
PRINT_SLACK = 1e-11


class SetupError(RuntimeError):
    pass


@functools.cache
def reference() -> dict:
    """Outputs of the default inputs, captured by capture_reference.py."""
    return json.loads(REFERENCE_PATH.read_text())


def child_env() -> dict:
    """The caller's environment, single-threaded, with the checkout's src/
    first on the import path."""
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mib: float
    returncode: int
    stderr: str


def run_cli(argv, cwd: Path, env: dict) -> Invocation:
    """Run ``svddpeak`` once in a fresh interpreter and wait for it.

    Peak resident memory comes from the child's own ``ru_maxrss``.
    """
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "svddpeak.cli", *argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stderr=err_path.read_text(errors="replace")[-2000:],
    )


def must_run(argv, cwd, env):
    result = run_cli(argv, cwd, env)
    if result.returncode != 0:
        raise SetupError(f"svddpeak {' '.join(argv)} exited {result.returncode}: {result.stderr}")


def banana(run_dir, env, out="in/banana.csv"):
    must_run(["shapes", "--kind", "banana", "--seed", str(BANANA_SEED), "--out", out], run_dir, env)
    return run_dir / out


# -- set-up: inputs from the seed -------------------------------------------

def setup_tune(run_dir: Path, seed: int, env: dict) -> dict:
    """The banana shape with its rows in a seed-drawn order.

    Row order changes the file the program reads but not the problem, so
    every seed is held to the same reference outputs and does the same work.
    """
    base = banana(run_dir, env, "in/banana_base.csv")
    header, *rows = base.read_text().splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    (run_dir / "in" / "banana.csv").write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
    return {"n": len(rows)}


def setup_polygon(run_dir: Path, seed: int, env: dict) -> dict:
    """`simulate` draws its polygon from its own master seed, so there is
    nothing to write; one start of the CLI fills the bytecode and page
    caches, as the CLI runs of the other set-ups do."""
    must_run(["--version"], run_dir, env)
    return {}


def setup_score(run_dir: Path, seed: int, env: dict) -> dict:
    """A banana model at the tuned bandwidth and seed-drawn query rows
    uniform over the banana's bounding box padded by 10%."""
    banana_csv = banana(run_dir, env)
    must_run(["train", "--data", "in/banana.csv", "--s", str(SCORE_S), "--f", str(F),
              "--jobs", "1", "--out", "in/model.json"], run_dir, env)
    X = np.loadtxt(banana_csv, delimiter=",", skiprows=1)
    lo, hi = X.min(axis=0), X.max(axis=0)
    pad = 0.1 * (hi - lo)
    queries = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(QUERY_ROWS, 2))
    np.savetxt(run_dir / "in" / "queries.csv", queries, fmt="%.12g", delimiter=",",
               header="x1,x2", comments="")
    return {}


# -- output checks ------------------------------------------------------------

def _close(name, got, want, tol, errors):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{name}: shape {got.shape}, expected {want.shape}")
        return
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        errors.append(f"{name}: off by {worst:.3e} (tolerance {tol:g})")


def check_tune(run_dir: Path, ctx: dict) -> list:
    errors = []
    ref = reference()["tune-banana"]
    report = json.loads((run_dir / "out" / "report.json").read_text())
    for key in ("s", "s_low", "s_high"):
        if report.get(key) != ref[key]:
            errors.append(f"{key} = {report.get(key)!r}, reference {ref[key]!r}")
    curve = np.loadtxt(run_dir / "out" / "report_curve.csv", delimiter=",", skiprows=1,
                       usecols=(0, 1), ndmin=2)
    v_star = curve[:, 1]
    _close("s grid", curve[:, 0], ref["s_values"], 0.0, errors)
    _close("V*", v_star, ref["v_star"], 1e-6, errors)
    if v_star.size > 1 and float(np.diff(v_star).max()) > 1e-7:
        errors.append(f"V* increases by {float(np.diff(v_star).max()):.3e}")
    upper = 1.0 - 1.0 / ctx["n"]
    if v_star.size and (v_star.min() < 0.0 or v_star.max() > upper + PRINT_SLACK):
        errors.append(f"V* leaves [0, {upper:g}]")
    return errors


def check_polygon(run_dir: Path, ctx: dict) -> list:
    errors = []
    ref = reference()["polygon-600"]
    out = run_dir / "out"
    if (out / "polygon_study_failures.csv").exists():
        errors.append("the polygon failed: " + (out / "polygon_study_failures.csv").read_text())
    with open(out / "polygon_study.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return errors + [f"{len(rows)} study rows, expected 1"]
    row = {k: float(v) for k, v in rows[0].items()}
    for key in ("s_recommended", "s_best"):
        if row[key] != ref[key]:
            errors.append(f"{key} = {row[key]!r}, reference {ref[key]!r}")
    for key in ("f_peak", "f_best", "ratio"):
        _close(key, row[key], ref[key], 1e-6, errors)
    if not 0.0 <= row["ratio"] <= 1.0:
        errors.append(f"ratio {row['ratio']!r} outside [0, 1]")
    return errors


def check_score(run_dir: Path, ctx: dict) -> list:
    errors = []
    if "queries" not in ctx:
        ctx["queries"] = np.loadtxt(run_dir / "in" / "queries.csv", delimiter=",", skiprows=1)
    Q = ctx["queries"]
    model = json.loads((run_dir / "in" / "model.json").read_text())
    path = run_dir / "out" / "scored.csv"
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "x1,x2,dist_sq,r_sq,label":
        return [f"unexpected header {lines[:1]!r}"]
    if len(lines) - 1 != Q.shape[0]:
        return [f"{len(lines) - 1} scored rows, expected {Q.shape[0]}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    labels = np.array([line.rsplit(",", 1)[1] for line in lines[1:]])
    _close("echoed rows", data[:, :2] / np.maximum(1.0, np.abs(Q)), Q / np.maximum(1.0, np.abs(Q)),
           1e-9, errors)
    sv = np.asarray(model["support_vectors"], dtype=float)
    alphas = np.asarray(model["alphas"], dtype=float)
    gamma = -1.0 / (2.0 * model["s"] ** 2)
    K_q = np.exp(((Q[:, None, :] - sv[None, :, :]) ** 2).sum(-1) * gamma)
    K_sv = np.exp(((sv[:, None, :] - sv[None, :, :]) ** 2).sum(-1) * gamma)
    dist_sq = 1.0 - 2.0 * (K_q @ alphas) + alphas @ K_sv @ alphas
    _close("dist_sq", data[:, 2], dist_sq, 1e-9, errors)
    r_sq = float(model["r_squared"])
    _close("r_sq", data[:, 3], np.full(Q.shape[0], r_sq), PRINT_SLACK * max(1.0, r_sq), errors)
    expected = np.where(data[:, 2] > data[:, 3], "outlier", "inlier")
    wrong = (labels != expected) & (np.abs(data[:, 2] - data[:, 3]) > PRINT_SLACK)
    if np.any(wrong):
        errors.append(f"{int(wrong.sum())} labels disagree with dist_sq > r_sq")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # the svddpeak command and its arguments; paths relative to the run directory
    outputs: tuple  # primary outputs, compared byte for byte between invocations
    setup: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tune-banana",
            argv=("tune", "--data", "in/banana.csv", "--method", "peak", "--jobs", "1",
                  "--out", "out/report.json"),
            outputs=("out/report.json", "out/report_curve.csv"),
            setup=setup_tune,
            check=check_tune,
        ),
        Workload(
            name="polygon-600",
            argv=("simulate", "--vertices", "10", "--per-count", "1", "--samples", "600",
                  "--seed", str(POLYGON_MASTER_SEED), "--jobs", "1", "--out-dir", "out"),
            outputs=("out/polygon_study.csv", "out/polygon_study_summary.csv"),
            setup=setup_polygon,
            check=check_polygon,
        ),
        Workload(
            name="score-200k",
            argv=("score", "--model", "in/model.json", "--data", "in/queries.csv",
                  "--out", "out/scored.csv"),
            outputs=("out/scored.csv",),
            setup=setup_score,
            check=check_score,
        ),
    )
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def output_digest(workload: Workload, run_dir: Path) -> str:
    digest = hashlib.sha256()
    for rel in workload.outputs:
        digest.update(rel.encode() + b"\0" + (run_dir / rel).read_bytes())
    return digest.hexdigest()


def prepare(workload: Workload, run_dir: Path, seed: int, env: dict) -> dict:
    """Make the run directory's inputs from scratch; returns the check context."""
    fresh_dir(run_dir)
    (run_dir / "in").mkdir()
    (run_dir / "out").mkdir()
    return workload.setup(run_dir, seed, env)
