#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed set of svddpeak commands.

Runs the commands in ``COMMANDS`` and the shape script with the package
of a source tree (its ``src``) in a fresh temporary directory, each in a
directory of its own, and prints ``<sha256>  <directory>/<output>`` for
every file they write, manifests aside (those carry a timestamp), and for
their stdout. The capped runs and the usage errors fail on purpose: their
stderr is an output too, and their exit code is printed as
``exit <code>  <directory>``. Two
runs that differ only in ``--jobs`` write files of the same names, so
their lines differ only in the directory.

Diff the lines of two trees to check that a change keeps every output
byte-identical:

    python scripts/output_digests.py --tree path/to/parent > parent.txt
    python scripts/output_digests.py > change.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BANANA = "../shapes/banana.csv"
MODEL = "../train/model.json"
# four copies of one row, written next to the run directories
IDENTICAL = "../identical.csv"
# four distinct rows whose squared distances all underflow to 0, written
# there too
UNDERFLOW = "../underflow.csv"
# 20,000 rows: the compiled reader takes them in several blocks
BIG = "../shapes-20k/banana.csv"

# (directory, svddpeak arguments, whether the run fails on purpose[, the
# file piped to its stdin])
COMMANDS = (
    ("shapes", ("shapes", "--kind", "banana", "--seed", "11", "--out", "banana.csv"), False),
    ("tune-jobs1", ("tune", "--method", "peak", "--data", BANANA, "--jobs", "1",
                    "--out", "tune.json"), False),
    ("tune-jobs2", ("tune", "--method", "peak", "--data", BANANA, "--jobs", "2",
                    "--out", "tune.json"), False),
    ("tune-minrun5", ("tune", "--method", "peak", "--data", BANANA, "--min-run", "5",
                      "--kkt-tol", "1e-7", "--out", "tune.json"), False),
    ("tune-cv", ("tune", "--method", "cv", "--data", BANANA, "--out", "tune.json"), False),
    ("tune-dfn", ("tune", "--method", "dfn", "--data", BANANA, "--out", "tune.json"), False),
    ("tune-md", ("tune", "--method", "md", "--data", BANANA, "--out", "tune.json"), False),
    ("train", ("train", "--tune", "peak", "--data", BANANA, "--out", "model.json"), False),
    # 129 boundary support vectors, whose mean distance is R^2
    ("train-s0.2", ("train", "--s", "0.2", "--data", BANANA, "--out", "model.json"), False),
    # every alpha at C = 1/n: the solve stops at its first check
    ("train-f1", ("train", "--s", "1", "--f", "1", "--data", BANANA, "--out", "model.json"),
     False),
    ("score", ("score", "--model", MODEL, "--data", BANANA, "--out", "scored.csv"), False),
    # written by shapes, so every line ends in "\r\n"
    ("shapes-20k", ("shapes", "--kind", "banana", "--n", "20000", "--seed", "12", "--out",
                    "banana.csv"), False),
    ("score-20k", ("score", "--model", MODEL, "--data", BIG, "--out", "scored.csv"), False),
    # the same rows through a pipe
    ("score-20k-stdin", ("score", "--model", MODEL, "--data", "/dev/stdin", "--out",
                         "scored.csv"), False, BIG),
    ("grid", ("grid", "--model", MODEL, "--out", "grid.csv"), False),
    ("simulate", ("simulate", "--vertices", "5,10", "--per-count", "2", "--samples", "200",
                  "--jobs", "2", "--out-dir", "."), False),
    # the cap drops one of the four polygons, in the middle of its sweep
    ("simulate-capped", ("simulate", "--vertices", "5,10", "--per-count", "2", "--samples",
                         "200", "--max-iterations", "20000", "--out-dir", "."), True),
    # every solve fails: the polygon's failure row carries the first one
    ("simulate-allcapped", ("simulate", "--vertices", "5", "--per-count", "1", "--samples",
                            "200", "--max-iterations", "1", "--out-dir", "."), True),
    ("tune-capped", ("tune", "--method", "peak", "--data", BANANA, "--max-iterations", "500",
                     "--out", "tune.json"), True),
    # the first failure is raised in a worker and crosses the process pool
    ("tune-capped-jobs2", ("tune", "--method", "peak", "--data", BANANA, "--max-iterations",
                           "500", "--jobs", "2", "--out", "tune.json"), True),
    ("train-no-bandwidth", ("train", "--data", BANANA, "--out", "model.json"), True),
    ("shuttle-no-out", ("shuttle", "--path", "missing.txt", "--sample-class1", "5"), True),
    ("tune-kkt-nan", ("tune", "--method", "peak", "--data", BANANA, "--kkt-tol", "nan",
                      "--out", "tune.json"), True),
    ("tune-step-nan", ("tune", "--method", "peak", "--data", BANANA, "--s-step", "nan",
                       "--out", "tune.json"), True),
    # 7.95e9 grid points: refused before any array is allocated
    ("tune-step-1e-9", ("tune", "--method", "peak", "--data", BANANA, "--s-step", "1e-9",
                        "--out", "tune.json"), True),
    # 10^12 lattice cells: refused before any array is allocated
    ("grid-res-huge", ("grid", "--model", MODEL, "--resolution", "1000000", "--out",
                       "grid.csv"), True),
    ("grid-padding-nan", ("grid", "--model", MODEL, "--padding", "nan", "--out", "grid.csv"),
     True),
    # rows that all coincide: refused before any solve
    ("tune-identical", ("tune", "--method", "peak", "--data", IDENTICAL, "--out", "tune.json"),
     True),
    ("tune-underflow", ("tune", "--method", "peak", "--data", UNDERFLOW, "--out", "tune.json"),
     True),
    ("shapes-seed-negative", ("shapes", "--kind", "banana", "--seed", "-1", "--out",
                              "banana.csv"), True),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tree: Path) -> list:
    """The output lines for the source tree ``tree``, in command order."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    shape_script = (sys.executable, str(tree / "scripts" / "run_shape_benchmark.py"),
                    "--out-dir", ".")
    runs = [(name, (sys.executable, "-m", "svddpeak.cli", *argv), fails, *stdin)
            for name, argv, fails, *stdin in COMMANDS] + [("shape-script", shape_script, False)]
    lines = []
    with tempfile.TemporaryDirectory() as top:
        Path(top, "identical.csv").write_text("x1,x2\n" + "1.5,-2\n" * 4)
        Path(top, "underflow.csv").write_text("x\n0\n1e-170\n0\n2e-170\n")
        for name, argv, fails, *stdin in runs:
            cwd = Path(top, name)
            cwd.mkdir()
            piped = Path(cwd, *stdin).read_bytes() if stdin else None
            done = subprocess.run(argv, cwd=cwd, env=env, input=piped, capture_output=True,
                                  timeout=600)
            if not fails and done.returncode != 0:
                raise SystemExit(f"{name} exited {done.returncode}:\n"
                                 f"{done.stderr.decode(errors='replace')}")
            lines.append(f"{_sha256(done.stdout)}  {name}/stdout")
            if fails:
                lines.append(f"{_sha256(done.stderr)}  {name}/stderr")
                lines.append(f"exit {done.returncode}  {name}")
            for path in sorted(cwd.iterdir()):
                if not path.name.endswith(".manifest.json"):
                    lines.append(f"{_sha256(path.read_bytes())}  {name}/{path.name}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the source tree to run (default: this one)")
    args = parser.parse_args()
    print("\n".join(digests(args.tree.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
