#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of a parent revision and the working tree.

    python scripts/bench_pairs.py PARENT_REV --pairs 10 --seconds 10

Both trees are copied into one fresh temporary directory, under names of
one length (``pa`` and ``pc``), since the length of a path can move the
memory a run reads: the parent from ``git archive PARENT_REV``, the
working tree from the files ``git ls-files -co --exclude-standard``
lists. Trees whose ``perfbench/`` or ``BENCHMARK.json`` differ are
refused: their runs would measure different things.

The compiled library is cached under a name that hashes its source, so
one solving command runs in each tree first and no measured run builds
it; the cache lives in the temporary directory. Then ``--pairs`` pairs of
``perfbench/run.py --workload all --trace 0`` runs alternate between the
trees, the order flipped each pair, and every ``__pycache__`` of a tree
is removed before each of its runs. For each workload and end-to-end
metric of ``BENCHMARK.json`` the script prints each side's median and
quartiles and in how many pairs the change did better.

Nothing is written in the checkout, and the temporary directory and
every process started are gone when the script exits.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the files whose difference makes two runs incomparable
BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of ``values``, by the
    inclusive method (the quartiles of one value are that value)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better="lower") -> dict:
    """The summary of one metric from its ``(parent, change)`` pairs: each
    side's quartiles and the number of pairs in which the change is
    strictly better (``better`` is "lower" or "higher")."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in pairs)
    return {"parent": quartiles(parent), "change": quartiles(change), "wins": wins,
            "pairs": len(pairs)}


def _run(argv, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` in a session of its own, whose every process is
    killed if this one is interrupted."""
    proc = subprocess.Popen(argv, start_new_session=True, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **kwargs)
    try:
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _checked(argv, **kwargs) -> subprocess.CompletedProcess:
    done = _run(argv, **kwargs)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {done.returncode}:\n"
                         f"{done.stderr.decode(errors='replace')}")
    return done


def copy_parent(rev, dest: Path) -> None:
    archive = _checked(["git", "-C", str(ROOT), "archive", "--format=tar", rev]).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    listed = _checked(["git", "-C", str(ROOT), "ls-files", "-co", "--exclude-standard",
                       "-z"]).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _benchmark_files(tree: Path) -> dict:
    files = {}
    for name in BENCHMARK_FILES:
        path = tree / name
        for file in [path] if path.is_file() else sorted(path.rglob("*")):
            if file.is_file():
                files[file.relative_to(tree).as_posix()] = file.read_bytes()
    return files


def _remove_pycache(tree: Path) -> None:
    for path in sorted(tree.rglob("__pycache__"), reverse=True):
        shutil.rmtree(path)


def warm_up(tree: Path, work: Path, env: dict) -> None:
    """One solving command in ``tree``, which builds its compiled library."""
    work.mkdir()
    env = dict(env, PYTHONPATH=str(tree / "src"))
    cli = [sys.executable, "-m", "svddpeak.cli"]
    _checked([*cli, "shapes", "--kind", "banana", "--n", "40", "--seed", "1", "--out",
              "banana.csv"], cwd=work, env=env)
    _checked([*cli, "train", "--s", "1", "--data", "banana.csv", "--out", "model.json"],
             cwd=work, env=env)


def bench(tree: Path, seed, seconds, env: dict) -> dict:
    """The last line of one ``perfbench/run.py --workload all --trace 0``
    run in ``tree``: ``correct``, ``failed`` and ``metrics``."""
    _remove_pycache(tree)
    done = _checked([sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
                     str(seed), "--seconds", str(seconds), "--trace", "0"], cwd=tree, env=env)
    return json.loads(done.stdout.decode().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="closed-loop seconds of each workload in each run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0 or args.seed < 0:
        parser.error("--pairs and --seconds must be positive, --seed non-negative")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as top:
        top = Path(top)
        trees = {"parent": top / "pa", "change": top / "pc"}
        copy_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        if _benchmark_files(trees["parent"]) != _benchmark_files(trees["change"]):
            print("bench_pairs: perfbench/ or BENCHMARK.json differ between the trees; "
                  "their runs are not comparable", file=sys.stderr)
            return 2
        env = dict(os.environ, XDG_CACHE_HOME=str(top / "cache"))
        for side, tree in trees.items():
            warm_up(tree, top / f"warm-{side}", env)
        benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())

        runs = {"parent": [], "change": []}
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(trees[side], args.seed, args.seconds, env))
                print(f"pair {index + 1}/{args.pairs}: {side} done", file=sys.stderr)

    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        incorrect = sum(not r["correct"] for r in results)
        print(f"{side}: {len(results)} runs, {incorrect} not correct, {failed} failed operations")
    print(f"median [Q1, Q3] of {args.pairs} pairs, parent -> change; "
          "wins: pairs in which the change did better")
    for workload in (w["name"] for w in benchmark["workloads"]):
        print(workload)
        for metric in benchmark["end_to_end"]:
            key = f"{workload}/{metric['name']}"
            pairs = [(p["metrics"][key]["value"], c["metrics"][key]["value"])
                     for p, c in zip(runs["parent"], runs["change"])]
            summary = summarize(pairs, metric["better"])
            (pq1, pm, pq3), (cq1, cm, cq3) = summary["parent"], summary["change"]
            print(f"  {metric['name']:13s} {pm:.4f} [{pq1:.4f}, {pq3:.4f}] -> "
                  f"{cm:.4f} [{cq1:.4f}, {cq3:.4f}] {metric['unit']:4s} "
                  f"wins {summary['wins']} of {summary['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
