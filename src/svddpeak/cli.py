"""Command-line surface: training, tuning, scoring, grids, simulation,
shape generation, and UCI shuttle ingestion.

Every command writes a manifest JSON next to its primary output with the
resolved parameters, seeds, input digests, tool version, and timestamp;
re-running a command from its manifest reproduces the primary outputs
byte for byte (the manifest's own timestamp is the only thing that
changes). All randomness flows from explicit --seed flags.

CSV dialect everywhere: comma separator, required header row, '.'
decimal, UTF-8.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import re
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__, _native
from . import datagen as _datagen
from . import solver as _solver
from .errors import InputError, NoPeakFoundError, ParseError, SvddError
from .kernel import GAUSSIAN, LINEAR, KernelSpec, nearest_distances
from .solver import SolverConfig

# tuning, smoothing, baselines and evaluation are imported by the commands
# that run them, so that score, grid and shapes start without them

SHUTTLE_URL = "https://archive.ics.uci.edu/dataset/148/statlog+shuttle"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_PEAK = 3

# U+001C-U+001F: numpy's parser strips them as whitespace, Python's float
# does not; in UTF-8 each byte stands only for its own character
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _fmt(value) -> str:
    return f"{value:.12g}"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(primary_output, command, parameters, inputs, seeds=None,
                    solves=False):
    """Write ``<primary_output>.manifest.json``. Commands that solve the dual
    (``solves``) also record the SMO backend that ran."""
    manifest = {
        "command": command,
        "parameters": parameters,
        "seeds": seeds or {},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if solves:
        manifest["smo_backend"] = _native.backend()
    path = str(primary_output) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_csv_dataset(path):
    """(header, matrix, labels) from a comma-separated file with a header.

    A final integer column named 'label' is split off when present. Rows
    are validated; a malformed cell reports its 1-based line number.

    The body of an unlabeled file is parsed in one pass by the compiled
    library (``_native.csv_floats``), or by numpy's C parser where the
    library cannot be built. A file the parser refuses, or whose body is
    not ``len(header)`` columns wide, and every labeled file, is read
    again by ``_read_csv_rows``, which defines what is accepted and raises
    every ``ParseError``. The bulk readers open the path more than once,
    so what is not a regular file (a pipe, which gives its bytes once) is
    read by ``_read_csv_rows`` alone.
    """
    if not os.path.isfile(path):
        return _read_csv_rows(path)
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header, width, has_label = _read_header(path, reader)
        body = None if has_label else _read_body(path, fh, reader.line_num, len(header))
    if body is None or body.shape[1] != len(header):
        return _read_csv_rows(path)
    return header, body, None


def _read_body(path, fh, header_lines, n_cols):
    """The cells after the header, which took ``header_lines`` lines of the
    text file ``fh``, as a 2-D float array; None where the parser refuses
    them."""
    floats = _native.csv_floats()
    if floats is None:
        # numpy strips bytes 0x1C-0x1F, which float refuses
        return None if _holds_separator_bytes(path) else _parse_body(fh)
    with open(path, "rb") as raw:
        head = b"".join(itertools.islice(raw, header_lines))
    # csv also ends a line at a bare "\r", a binary file only at "\n": a
    # header holding a bare "\r" would end elsewhere here
    if b"\r" in head.replace(b"\r\n", b""):
        return None
    return floats(path, len(head), n_cols)


@contextlib.contextmanager
def _open_text(path, newline=None):
    """``path`` opened as UTF-8 text. A byte that is not UTF-8 raises
    ParseError naming its line, wherever the reader meets it."""
    with open(path, "r", newline=newline, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw_fh:
                raw = raw_fh.read()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line_no = len(re.findall(rb"\r\n?|\n", raw[:exc.start])) + 1
                raise ParseError(f"{path}: line {line_no}: byte 0x{raw[exc.start]:02x} is not "
                                 f"UTF-8 ({exc.reason})", line_number=line_no) from None
            raise


def _holds_separator_bytes(path) -> bool:
    with open(path, "rb") as fh:
        return any(any(sep in chunk for sep in _SEPARATOR_BYTES)
                   for chunk in iter(lambda: fh.read(_native.CSV_BLOCK_BYTES), b""))


def _int64(text) -> int:
    """``int(text)``; ValueError unless it fits a 64-bit integer."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text.strip()!r} does not fit a 64-bit integer")
    return value


def _parse_body(fh):
    """The rest of ``fh`` as a 2-D float array, or None where numpy's
    parser refuses it: the compiled reader's twin."""
    try:
        with warnings.catch_warnings():
            # a header-only file: the row loop gives it its (0, width) shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None


def _read_header(path, reader):
    """(header, feature count, has a label column) from the first record
    of the ``csv.reader``."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    has_label = bool(header) and header[-1] == "label"
    width = len(header) - (1 if has_label else 0)
    if width < 1:
        raise ParseError(f"{path}: no feature columns in header")
    return header, width, has_label


def _read_csv_rows(path):
    """``read_csv_dataset`` one cell at a time with Python's ``float`` and
    ``int``: accepts what they accept (``1_0``, quoted cells) and names
    the physical line on which the first bad row ends."""
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header, width, has_label = _read_header(path, reader)
        rows, labels = [], []
        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}",
                    line_number=line_no,
                )
            try:
                rows.append([float(v) for v in row[:width]])
                if has_label:
                    labels.append(_int64(row[-1]))
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {line_no}: {exc}", line_number=line_no
                ) from exc
    X = np.array(rows, dtype=float) if rows else np.empty((0, width))
    y = np.array(labels, dtype=int) if has_label else None
    return header[:width], X, y


def ingest_shuttle(path):
    """Parse the UCI Statlog shuttle file: 9 integer features + class.

    Returns (features, class_labels). The file is whitespace separated
    with no header.
    """
    features, labels = [], []
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 10:
                raise ParseError(
                    f"{path}: line {line_no}: expected 10 whitespace-separated fields, "
                    f"got {len(parts)}",
                    line_number=line_no,
                )
            try:
                values = [_int64(v) for v in parts]
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {line_no}: {exc}", line_number=line_no
                ) from exc
            features.append(values[:9])
            labels.append(values[9])
    if not features:
        raise ParseError(f"{path}: no data rows")
    return np.array(features, dtype=float), np.array(labels, dtype=int)


def sample_shuttle_class1(X, labels, count, seed):
    """The training protocol: a fixed-seed sample of class-1 rows."""
    class1 = np.flatnonzero(labels == 1)
    if class1.size < count:
        raise ParseError(
            f"asked for {count} class-1 rows but the file has only {class1.size}"
        )
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(class1, size=count, replace=False))
    return X[chosen]


def _grid_from_args(args):
    from .tuning import BandwidthGrid

    return BandwidthGrid(args.s_min, args.s_max, args.s_step)


def _min_run(args) -> int:
    """``--min-run``, or the peak criterion's default when it is not given."""
    from .tuning import DEFAULT_MIN_RUN

    return DEFAULT_MIN_RUN if args.min_run is None else args.min_run


def _solver_config(args) -> SolverConfig:
    return SolverConfig(f=args.f, kkt_tol=args.kkt_tol, max_iterations=args.max_iterations)


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_records(path, records, kind, header=None):
    """One row per record of the dataclass ``kind``, its fields in order
    (and by default their names as the header), floats through ``_fmt``."""
    names = [f.name for f in dataclasses.fields(kind)]
    _write_rows(path, header or names, [
        [_fmt(v) if isinstance(v, float) else v for v in (getattr(r, n) for n in names)]
        for r in records
    ])


def _curve_rows(curve, fit, mask):
    """Rows for the objective-curve export; derivative columns are blank
    at the two endpoints where central differences are undefined."""
    rows = []
    n = curve.s_values.size
    for i, s in enumerate(curve.s_values):
        if 1 <= i <= n - 2:
            j = i - 1
            rows.append(
                [
                    _fmt(s),
                    _fmt(curve.v_star[i]),
                    _fmt(curve.d1[j]),
                    _fmt(curve.d2[j]),
                    _fmt(fit.fitted[j]),
                    _fmt(fit.ci_lower[j]),
                    _fmt(fit.ci_upper[j]),
                    int(mask[j]),
                ]
            )
        else:
            rows.append([_fmt(s), _fmt(curve.v_star[i]), "", "", "", "", "", ""])
    return rows


CURVE_HEADER = ["s", "v_star", "d1", "d2", "d2_fitted", "ci_lower", "ci_upper", "in_zero_region"]


def _select_bandwidth(args, X, method):
    """(s, report fields, (curve header, curve rows) or None) of one selector
    on the rows X, as ``tune`` reports it and ``train --tune`` uses it.

    When ``peak`` finds no plateau, s is None, the fields hold the error,
    and the curve still carries the diagnostics.
    """
    from . import baselines as _baselines
    from . import tuning as _tuning

    if method == "md":
        s = _baselines.select_md(X, args.f).s
        return s, {"s": s, "f": args.f}, None
    grid = _grid_from_args(args)
    if method != "peak":
        select = _baselines.select_cv if method == "cv" else _baselines.select_dfn
        result = select(X, grid)
        return result.s, {"s": result.s}, (["s", "value"],
                                           [[_fmt(s), _fmt(v)] for s, v in result.curve])
    _tuning.require_peak_grid(grid.values())
    curve = _tuning.sweep_objective(X, args.f, grid, config=_solver_config(args),
                                    jobs=args.jobs)
    try:
        peak = _tuning.find_peak(curve, min_run=_min_run(args))
    except NoPeakFoundError as exc:
        return None, {"f": args.f, "s": None, "error": str(exc)}, (
            CURVE_HEADER, _curve_rows(curve, exc.fit, exc.zero_mask))
    fields = {"f": args.f, "s": peak.recommended, "s_low": peak.s_low, "s_high": peak.s_high}
    return peak.recommended, fields, (CURVE_HEADER, _curve_rows(curve, peak.fit, peak.zero_mask))


def cmd_train(args) -> int:
    if args.kernel == LINEAR and (args.s is not None or args.tune is not None):
        print("error: --s and --tune set a gaussian bandwidth; a linear model takes neither",
              file=sys.stderr)
        return EXIT_USAGE
    if args.s is None and args.tune is None and args.kernel != LINEAR:
        print("error: provide --s or --tune (a gaussian model needs a bandwidth)",
              file=sys.stderr)
        return EXIT_USAGE
    _, X, _ = read_csv_dataset(args.data)
    config = _solver_config(args)
    tuned = None
    s = args.s
    if args.tune is not None:
        s, fields, _ = _select_bandwidth(args, X, args.tune)
        if s is None:
            raise NoPeakFoundError(fields["error"])
        tuned = {"method": args.tune, **{k: fields[k] for k in ("s_low", "s_high") if k in fields}}
    spec = KernelSpec(kind=args.kernel, s=s)
    model = _solver.train(X, spec, config)
    model.save(args.out)
    params = {
        "data": str(args.data),
        "kernel": args.kernel,
        "s": s,
        "f": args.f,
        "kkt_tol": args.kkt_tol,
        "max_iterations": args.max_iterations,
        "tuned": tuned,
        "out": str(args.out),
    }
    _write_manifest(args.out, "train", params, [args.data], solves=True)
    print(f"trained on {X.shape[0]} rows: s={_fmt(s) if s is not None else 'n/a'} "
          f"r_squared={_fmt(model.r_squared)} -> {args.out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    _, X, _ = read_csv_dataset(args.data)
    s, fields, curve = _select_bandwidth(args, X, args.method)
    report = {"method": args.method, "data": str(args.data), **fields}
    if args.method != "md":
        report["grid"] = {"s_min": args.s_min, "s_max": args.s_max, "step": args.s_step}
    if curve:
        curve_path = args.curve or (os.path.splitext(str(args.out))[0] + "_curve.csv")
        _write_rows(curve_path, *curve)
        report["curve_csv"] = str(curve_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, "tune", report, [args.data], solves=True)
    if s is None:
        print(f"method={args.method}: no zero plateau found; diagnostics in {curve_path}",
              file=sys.stderr)
        return EXIT_NO_PEAK
    print(f"method={args.method} selected s={_fmt(s)} -> {args.out}")
    return EXIT_OK


def _labels(outlier):
    """The label column of ``score`` and ``grid`` from the outlier mask."""
    return _datagen.Coded(outlier, (_solver.INLIER, _solver.OUTLIER))


def cmd_score(args) -> int:
    model = _solver.load_model(args.model)
    header, Z, _ = read_csv_dataset(args.data)
    dist_sq = _solver.score_distances(model, Z)
    outlier = dist_sq > model.r_squared
    _datagen.write_csv_blocks(args.out, header + ["dist_sq", "r_sq", "label"],
                              [*Z.T, dist_sq, _labels(outlier)],
                              ["%.12g"] * (Z.shape[1] + 1) + [_fmt(model.r_squared), "%s"])
    _write_manifest(args.out, "score", {"model": str(args.model), "data": str(args.data),
                                        "out": str(args.out)}, [args.model, args.data])
    n_out = int(np.count_nonzero(outlier))
    print(f"scored {Z.shape[0]} rows ({n_out} outliers) -> {args.out}")
    return EXIT_OK


def cmd_grid(args) -> int:
    model = _solver.load_model(args.model)
    if model.dim != 2:
        print(f"grid scoring needs a 2-D model, this one has {model.dim} features",
              file=sys.stderr)
        return EXIT_USAGE
    if args.data:
        _, P, _ = read_csv_dataset(args.data)
        inputs = [args.model, args.data]
    else:
        P = model.support_vectors
        inputs = [args.model]
    res = args.resolution
    grid = _datagen.labeled_grid_over(P, resolution=(res, res), padding=args.padding)
    lattice = grid.points
    dist_sq = _solver.score_lattice(model, grid.xs, grid.ys)
    outlier = dist_sq > model.r_squared
    # plot-ready marker: a support vector sits within one lattice spacing
    x_lo, x_hi, y_lo, y_hi = grid.bounds
    spacing = max((x_hi - x_lo) / (res - 1), (y_hi - y_lo) / (res - 1))
    near_sv = nearest_distances(lattice, model.support_vectors) <= spacing

    _datagen.write_csv_blocks(args.out, ["x", "y", "dist_sq", "label", "is_sv_nearby"],
                              [*lattice.T, dist_sq, _labels(outlier), near_sv],
                              ["%.12g", "%.12g", "%.12g", "%s", "%d"])
    params = {"model": str(args.model), "resolution": res, "padding": args.padding,
              "data": str(args.data) if args.data else None, "out": str(args.out)}
    _write_manifest(args.out, "grid", params, inputs)
    n_in = lattice.shape[0] - int(np.count_nonzero(outlier))
    print(f"grid {res}x{res}: {n_in} inlier cells of {lattice.shape[0]} -> {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import evaluation as _evaluation

    os.makedirs(args.out_dir, exist_ok=True)
    if args.full:
        vertex_counts = list(range(5, 31))
        per_count = 20
    else:
        vertex_counts = args.vertices
        per_count = args.per_count
    grid = _grid_from_args(args)
    report = _evaluation.polygon_study(
        vertex_counts=vertex_counts,
        polygons_per_count=per_count,
        sample_size=args.samples,
        grid=grid,
        master_seed=args.seed,
        f=args.f,
        min_run=_min_run(args),
        solver_config=_solver_config(args),
        jobs=args.jobs,
    )
    report_path = os.path.join(args.out_dir, "polygon_study.csv")
    _write_records(report_path, report.rows, _evaluation.StudyRow)
    _write_records(os.path.join(args.out_dir, "polygon_study_summary.csv"), report.summaries,
                   _evaluation.StudySummary,
                   header=["vertex_count", "min", "q1", "median", "q3", "max", "mean"])
    if report.failures:
        failures_path = os.path.join(args.out_dir, "polygon_study_failures.csv")
        _write_records(failures_path, report.failures, _evaluation.StudyFailure)
        print(f"{len(report.failures)} polygon(s) failed; see {failures_path}", file=sys.stderr)
    params = {
        "vertex_counts": vertex_counts,
        "polygons_per_count": per_count,
        "samples": args.samples,
        "f": args.f,
        "kkt_tol": args.kkt_tol,
        "max_iterations": args.max_iterations,
        "grid": {"s_min": grid.s_min, "s_max": grid.s_max, "step": grid.step},
        "out_dir": str(args.out_dir),
    }
    _write_manifest(report_path, "simulate", params, [], seeds={"master_seed": args.seed},
                    solves=True)
    ratios = report.ratios()
    if ratios.size:
        print(f"{len(report.rows)} polygons: mean ratio {_fmt(float(ratios.mean()))}, "
              f"min {_fmt(float(ratios.min()))} -> {report_path}")
    return EXIT_OK


def cmd_shapes(args) -> int:
    X = _datagen.generate_shape(args.kind, n=args.n, noise=args.noise, seed=args.seed)
    _datagen.save_dataset(args.out, X)
    params = {"kind": args.kind, "n": X.shape[0], "noise": args.noise, "out": str(args.out)}
    _write_manifest(args.out, "shapes", params, [], seeds={"seed": args.seed})
    print(f"wrote {X.shape[0]} x {X.shape[1]} {args.kind} dataset -> {args.out}")
    return EXIT_OK


def cmd_shuttle(args) -> int:
    if not args.path:
        print("The Statlog shuttle data is not bundled; download it from:")
        print(f"  {SHUTTLE_URL}")
        print("then re-run with --path pointing at the extracted shuttle file.")
        return EXIT_OK
    if args.sample_class1 and not args.out:
        print("--out is required with --sample-class1", file=sys.stderr)
        return EXIT_USAGE
    X, labels = ingest_shuttle(args.path)
    counts = {int(c): int(np.sum(labels == c)) for c in np.unique(labels)}
    print(f"{X.shape[0]} rows, 9 features, class counts: {counts}")
    if args.sample_class1:
        sample = sample_shuttle_class1(X, labels, args.sample_class1, args.seed)
        _datagen.save_dataset(args.out, sample)
        _write_manifest(
            args.out,
            "shuttle",
            {"path": str(args.path), "sample_class1": args.sample_class1, "out": str(args.out)},
            [args.path],
            seeds={"seed": args.seed},
        )
        print(f"sampled {sample.shape[0]} class-1 rows -> {args.out}")
    return EXIT_OK


def _add_grid_flags(p, s_min=0.05, s_max=8.0, s_step=0.05):
    p.add_argument("--s-min", dest="s_min", type=float, default=s_min)
    p.add_argument("--s-max", dest="s_max", type=float, default=s_max)
    p.add_argument("--s-step", dest="s_step", type=float, default=s_step)


def positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def int_list(text) -> list:
    """Comma-separated integers, as ``--vertices`` takes them."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_solver_flags(p):
    p.add_argument("--f", type=float, default=0.001, help="expected outlier fraction")
    p.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=1e-6)
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=100_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svddpeak",
        description="Train and tune support vector data description models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it as JSON")
    p.add_argument("--data", required=True)
    bandwidth = p.add_mutually_exclusive_group()
    bandwidth.add_argument("--s", type=float, default=None, help="Gaussian bandwidth")
    bandwidth.add_argument("--tune", choices=["peak", "cv", "md", "dfn"], default=None,
                           help="select the bandwidth first (alternative to --s)")
    p.add_argument("--kernel", choices=[GAUSSIAN, LINEAR], default=GAUSSIAN)
    _add_solver_flags(p)
    _add_grid_flags(p)
    p.add_argument("--min-run", dest="min_run", type=int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="select a bandwidth and export the criterion curve")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["peak", "cv", "md", "dfn"], required=True)
    _add_solver_flags(p)
    _add_grid_flags(p)
    p.add_argument("--min-run", dest="min_run", type=int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--curve", default=None, help="curve CSV path (default <out>_curve.csv)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("score", help="score a CSV against a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("grid", help="score a lattice over the data bounding box")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None, help="CSV whose bounding box frames the lattice "
                                                "(default: the model's support vectors)")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--padding", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("simulate", help="random-polygon F1-ratio study")
    p.add_argument("--vertices", type=int_list, default="5,10,15",
                   help="comma-separated vertex counts")
    p.add_argument("--per-count", dest="per_count", type=positive_int, default=5)
    p.add_argument("--samples", type=int, default=600)
    p.add_argument("--full", action="store_true",
                   help="paper-scale run: vertices 5..30, 20 polygons each")
    p.add_argument("--seed", type=int, default=20240501)
    _add_solver_flags(p)
    _add_grid_flags(p)
    p.add_argument("--min-run", dest="min_run", type=int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("shapes", help="generate a benchmark shape dataset")
    p.add_argument("--kind", choices=list(_datagen.SHAPE_KINDS), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("shuttle", help="ingest the UCI Statlog shuttle file")
    p.add_argument("--path", default=None)
    p.add_argument("--sample-class1", dest="sample_class1", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shuttle)

    return parser


def _check_output_dirs(args) -> None:
    """InputError naming the first output (``--out``, ``--curve``) whose
    directory does not exist, so that a command fails before it reads or
    solves anything. A manifest goes next to its primary output."""
    for path in (getattr(args, "out", None), getattr(args, "curve", None)):
        if path is None:
            continue
        directory = os.path.dirname(str(path)) or os.curdir
        if not os.path.isdir(directory):
            raise InputError(f"cannot write {path}: no directory {directory}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except NoPeakFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PEAK
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SvddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
