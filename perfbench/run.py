"""svddpeak benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload tune-banana --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With ``--trace 0`` the workload's CLI command runs in a closed loop (one
client: each invocation starts when the previous one exits) until
``--seconds`` have passed, and the end-to-end metrics are printed. With
``--trace 1`` the command is replayed once in-process with spans at the
layer boundaries, and the per-layer metrics are printed. Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

import envinfo

# set before numpy loads, for the in-process replay
os.environ.update(envinfo.SINGLE_THREAD)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import replay  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    WORK,
    WORKLOADS,
    SetupError,
    child_env,
    fresh_dir,
    output_digest,
    prepare,
    run_cli,
)

SETUP_REPEATS = 3
# the highest percentile reported needs this many samples beyond it
TAIL_SAMPLES = 10
EXIT_NO_PROGRAM = 2


def tail_percentile(values):
    """(percent, value) of the highest percentile with TAIL_SAMPLES beyond it."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    rank = n - TAIL_SAMPLES - 1
    return 100.0 * (rank + 1) / n, sorted(values)[rank]


def measure_setup(workload, run_dir, seed, env):
    """Set up SETUP_REPEATS times from scratch; the last set-up is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ctx = prepare(workload, run_dir, seed, env)
        times.append(time.perf_counter() - start)
    return ctx, times


def checked_outputs(workload, run_dir, ctx):
    """(digest, errors) of the outputs in run_dir; digest is None when they
    cannot be read. An unreadable or malformed output is a failed check."""
    try:
        return output_digest(workload, run_dir), workload.check(run_dir, ctx)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"unreadable output: {type(exc).__name__}: {exc}"]


def untraced_run(workload, run_dir, seed, seconds, env):
    ctx, setup_times = measure_setup(workload, run_dir, seed, env)
    checked = {}  # output digest -> errors, so equal outputs are checked once
    walls, rss, failures = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        fresh_dir(run_dir / "out")
        inv = run_cli(workload.argv, run_dir, env)
        if inv.returncode != 0:
            errors = [f"exit {inv.returncode}: {inv.stderr.strip()}"]
        else:
            digest, errors = checked_outputs(workload, run_dir, ctx)
            if digest is not None:
                if digest not in checked:
                    checked[digest] = errors
                    if len(checked) > 1:
                        errors.append("outputs differ from an earlier invocation")
                errors = checked[digest]
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mib)
        if errors:
            failures.append(errors)
    elapsed = time.perf_counter() - start
    print(f"workload {workload.name}: seed {seed}, closed loop with 1 client, "
          f"{len(walls)} invocations in {elapsed:.1f} s")
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else f"no tail percentile below {TAIL_SAMPLES + 1} samples")
    print(f"  wall_s        {statistics.median(walls):10.4f} s    median of {len(walls)}; {tail_text}")
    print(f"  peak_rss_mib  {statistics.median(rss):10.2f} MiB  median of {len(rss)}")
    print(f"  setup_s       {statistics.median(setup_times):10.4f} s    median of {len(setup_times)}")
    print(f"  failed_share  {len(failures) / len(walls):10.4f}      {len(failures)} of {len(walls)}")
    for errors in failures[:3]:
        print("  failure: " + "; ".join(errors))
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    return metrics, len(walls), len(failures)


def _compare_counters(workload, run_dir, metrics, src_digest):
    """Deterministic counts must repeat exactly across runs of the same
    inputs and source; a mismatch is a failure, not noise."""
    ledger_path = WORK / "counters.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    inputs = hashlib.sha256()
    for path in sorted((run_dir / "in").rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):  # timestamped
            inputs.update(path.name.encode() + b"\0" + path.read_bytes())
    key = f"{workload.name} inputs={inputs.hexdigest()[:16]} src={src_digest[:16]}"
    counts = {name: metrics[name]["value"] for name in replay.DETERMINISTIC}
    earlier = ledger.setdefault(key, counts)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return [f"{name} = {counts[name]}, an earlier run counted {earlier[name]}"
            for name in replay.DETERMINISTIC if counts[name] != earlier.get(name)]


def traced_run(workload, run_dir, seed, env, src_digest):
    ctx = prepare(workload, run_dir, seed, env)
    import_s = replay.import_seconds(run_dir, env)
    tracer = Tracer()
    with instrumented(tracer):
        code, replay_id = replay.replay(tracer, workload.argv, run_dir)
        probe_ids = replay.probe_sweep_solves(tracer, replay_id) if code == 0 else []
    failures = []  # of the replay
    digest = None
    if code != 0:
        failures.append(f"replay exited {code}")
    else:
        digest, errors = checked_outputs(workload, run_dir, ctx)
        failures += errors
    bytes_written = sum(p.stat().st_size for p in (run_dir / "out").rglob("*") if p.is_file())

    fresh_dir(run_dir / "out")
    inv = run_cli(workload.argv, run_dir, env)
    untraced_failures = []
    if inv.returncode != 0:
        untraced_failures.append(f"untraced run exited {inv.returncode}: {inv.stderr.strip()}")
    elif digest is not None and checked_outputs(workload, run_dir, ctx)[0] != digest:
        untraced_failures.append("untraced outputs differ from the replay's")

    metrics = replay.layer_metrics(tracer, replay_id, probe_ids, import_s, inv.wall_s,
                                   bytes_written)
    if not failures:
        failures += _compare_counters(workload, run_dir, metrics, src_digest)
    spans_path = WORK / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]) + "\n")

    print(f"workload {workload.name}: seed {seed}, traced replay of `svddpeak {workload.argv[0]}` "
          f"({len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}); "
          f"untraced wall {inv.wall_s:.4f} s")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for error in failures + untraced_failures:
        print("  failure: " + error)
    return metrics, 2, bool(failures) + bool(untraced_failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "svddpeak" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'svddpeak'} is missing",
              file=sys.stderr)
        return EXIT_NO_PROGRAM

    env = child_env()
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = envinfo.environment(ROOT, env)
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        run_dir = WORK / name
        try:
            if args.trace:
                metrics, tried, bad = traced_run(WORKLOADS[name], run_dir, args.seed, env,
                                                 record["src_sha256"])
            else:
                metrics, tried, bad = untraced_run(WORKLOADS[name], run_dir, args.seed,
                                                   args.seconds, env)
        except SetupError as exc:
            print(f"perfbench: set-up of {name} failed: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        attempted += tried
        failed += bad
        prefix = f"{name}/" if len(names) > 1 else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
