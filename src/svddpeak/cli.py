"""Command-line surface: training, tuning, scoring, grids, simulation,
shape generation, and UCI shuttle ingestion.

Every command writes a manifest JSON next to its primary output
(``_write_manifest``): every parsed argument, the --seed, input digests,
tool version and timestamp, and for ``train --tune`` the bandwidth it
selected (``tuned``). Re-running a command with its manifest's arguments
reproduces the primary outputs byte for byte (the manifest's own
timestamp is the only thing that changes). All randomness flows from
explicit --seed flags.

CSV dialect everywhere: comma separator, required header row, '.'
decimal, UTF-8.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, _native
from . import datagen as _datagen
from . import solver as _solver
from .errors import DimensionError, InputError, NoPeakFoundError, ParseError, SvddError
from .kernel import GAUSSIAN, KernelSpec, nearest_distances
from .solver import SolverConfig

# tuning, smoothing, baselines and evaluation are imported by the commands
# that run them, so that score, grid and shapes start without them

SHUTTLE_URL = "https://archive.ics.uci.edu/dataset/148/statlog+shuttle"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_PEAK = 3


def _fmt(value) -> str:
    return f"{value:.12g}"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digests(*paths) -> dict:
    """Each input's SHA-256, taken before a command reads or writes
    anything; None where it is not a regular file: a pipe is read once."""
    return {str(p): _sha256(p) if os.path.isfile(p) else None for p in paths}


def _write_manifest(args, primary_output, inputs, solves=False, **results):
    """Write ``<primary_output>.manifest.json``: the command, every parsed
    argument (``parameters``), ``--seed`` (``seeds``), the ``inputs``
    digests (``_input_digests``), and ``results``, what the command chose
    beyond its arguments. Commands that solve the dual (``solves``) also
    record the SMO backend that ran."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        "command": args.command,
        "parameters": parameters,
        "seeds": {"seed": args.seed} if "seed" in parameters else {},
        "inputs": inputs,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        **results,
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

    The file is opened once (``_open_text``). The compiled library
    (``_native.csv_floats``) parses the body of an unlabeled file, from the
    byte after the header's lines, into exactly ``len(header)`` columns or
    refuses it. Every other file is read from its start by
    ``_read_csv_rows``, which defines what is accepted and raises every
    ``ParseError``.
    """
    with _open_text(path, newline="") as fh:
        head = []  # the lines csv takes for the header
        reader = csv.reader(_kept(fh, head))
        header, width, has_label = _read_header(path, _records(path, reader))
        floats = None if has_label else _native.csv_floats()
        if floats is not None:
            body = floats(fh.buffer, len("".join(head).encode("utf-8")), len(header))
            if body is not None:
                return header, body, None
        fh.seek(0)
        return _read_csv_rows(path, fh)


def _kept(lines, kept):
    """The ``lines``, each also appended to ``kept``."""
    for line in lines:
        kept.append(line)
        yield line


@contextlib.contextmanager
def _open_text(path, newline=None):
    """``path`` opened once, as UTF-8 text over a seekable binary file
    (``.buffer``) into which a pipe is read first. A byte that is not
    UTF-8 raises ParseError naming its line, wherever the reader meets it."""
    with open(path, "rb") as file:
        raw = file if file.seekable() else io.BytesIO(file.read())
        with io.TextIOWrapper(raw, encoding="utf-8", newline=newline) as fh:
            try:
                yield fh
            except UnicodeDecodeError:
                raw.seek(0)
                data = raw.read()
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    line_no = len(re.findall(rb"\r\n?|\n", data[:exc.start])) + 1
                    raise ParseError(f"{path}: line {line_no}: byte 0x{data[exc.start]:02x} is "
                                     f"not UTF-8 ({exc.reason})", line_number=line_no) from None
                raise


def _int64(text) -> int:
    """``int(text)``; ValueError unless it fits a 64-bit integer."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text.strip()!r} does not fit a 64-bit integer")
    return value


def _records(path, reader):
    """The records of the ``csv.reader``; one it refuses (a field over the
    csv module's size limit) raises ParseError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}",
                         line_number=reader.line_num) from None


def _read_header(path, records):
    """(header, feature count, has a label column) from the first of the
    ``records``."""
    try:
        header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    has_label = bool(header) and header[-1] == "label"
    width = len(header) - (1 if has_label else 0)
    if width < 1:
        raise ParseError(f"{path}: no feature columns in header")
    return header, width, has_label


def _read_csv_rows(path, fh):
    """``read_csv_dataset`` of ``fh`` (``_open_text``) from its start, one
    cell at a time with Python's ``float`` and ``int``: accepts what they
    accept (``1_0``, quoted cells) and names the physical line on which the
    first bad row ends."""
    reader = csv.reader(fh)
    records = _records(path, reader)
    header, width, has_label = _read_header(path, records)
    rows, labels = [], []
    for row in records:
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


def _curve_rows(result):
    """Rows for the objective-curve export of a ``PeakResult`` or a
    ``NoPeakFoundError``; derivative columns are blank at the two endpoints
    where central differences are undefined."""
    curve, fit, mask = result.curve, result.fit, result.zero_mask
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

    When ``peak`` finds no plateau, its NoPeakFoundError propagates, with
    the curve and the fit for the diagnostics.
    """
    from . import tuning as _tuning

    if method == "md":
        from . import baselines as _baselines

        s = _baselines.select_md(X, args.f).s
        return s, {"s": s, "f": args.f}, None
    grid = _grid_from_args(args)
    if method != "peak":
        from . import baselines as _baselines

        select = _baselines.select_cv if method == "cv" else _baselines.select_dfn
        result = select(X, grid)
        return result.s, {"s": result.s}, (["s", "value"],
                                           [[_fmt(s), _fmt(v)] for s, v in result.curve])
    peak = _tuning.select_bandwidth_peak(X, args.f, grid, config=_solver_config(args),
                                         min_run=_min_run(args), jobs=args.jobs)
    fields = {"f": args.f, "s": peak.recommended, "s_low": peak.s_low, "s_high": peak.s_high}
    return peak.recommended, fields, (CURVE_HEADER, _curve_rows(peak))


def cmd_train(args) -> int:
    inputs = _input_digests(args.data)
    _, X, _ = read_csv_dataset(args.data)
    config = _solver_config(args)
    tuned = None
    s = args.s
    if args.tune is not None:
        s, fields, _ = _select_bandwidth(args, X, args.tune)
        tuned = {"method": args.tune, "s": s, "s_low": fields.get("s_low"),
                 "s_high": fields.get("s_high")}
    model = _solver.train(X, KernelSpec(GAUSSIAN, s), config)
    model.save(args.out)
    _write_manifest(args, args.out, inputs, solves=True, tuned=tuned)
    print(f"trained on {X.shape[0]} rows: s={_fmt(s)} "
          f"r_squared={_fmt(model.r_squared)} -> {args.out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    if args.method == "md" and args.curve is not None:
        raise InputError("--curve: md computes its bandwidth in closed form and has no curve")
    inputs = _input_digests(args.data)
    _, X, _ = read_csv_dataset(args.data)
    try:
        s, fields, curve = _select_bandwidth(args, X, args.method)
    except NoPeakFoundError as exc:
        # the report and the curve still carry the diagnostics
        s, fields = None, {"f": args.f, "s": None, "error": str(exc)}
        curve = (CURVE_HEADER, _curve_rows(exc))
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
    _write_manifest(args, args.out, inputs, solves=True)
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
    inputs = _input_digests(args.model, args.data)
    model = _solver.load_model(args.model)
    header, Z, _ = read_csv_dataset(args.data)
    dist_sq = _solver.score_distances(model, Z)
    outlier = dist_sq > model.r_squared
    _datagen.write_csv_blocks(args.out, header + ["dist_sq", "r_sq", "label"],
                              [*Z.T, dist_sq, _fmt(model.r_squared), _labels(outlier)])
    _write_manifest(args, args.out, inputs)
    n_out = int(np.count_nonzero(outlier))
    print(f"scored {Z.shape[0]} rows ({n_out} outliers) -> {args.out}")
    return EXIT_OK


def cmd_grid(args) -> int:
    inputs = _input_digests(args.model, args.data) if args.data else _input_digests(args.model)
    model = _solver.load_model(args.model)
    if model.dim != 2:
        raise DimensionError(f"grid scoring needs a 2-D model, this one has {model.dim} features")
    P = read_csv_dataset(args.data)[1] if args.data else model.support_vectors
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
                              [*lattice.T, dist_sq, _labels(outlier),
                               _datagen.Coded(near_sv, ("0", "1"))])
    _write_manifest(args, args.out, inputs)
    n_in = lattice.shape[0] - int(np.count_nonzero(outlier))
    print(f"grid {res}x{res}: {n_in} inlier cells of {lattice.shape[0]} -> {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import evaluation as _evaluation

    if args.full:
        vertex_counts = list(range(5, 31))
        per_count = 20
    else:
        vertex_counts = args.vertices
        per_count = args.per_count
    report = _evaluation.polygon_study(
        vertex_counts=vertex_counts,
        polygons_per_count=per_count,
        sample_size=args.samples,
        grid=_grid_from_args(args),
        master_seed=args.seed,
        f=args.f,
        min_run=_min_run(args),
        solver_config=_solver_config(args),
        jobs=args.jobs,
    )
    # only now, so that an input polygon_study refuses leaves no directory
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "polygon_study.csv")
    _write_records(report_path, report.rows, _evaluation.StudyRow)
    _write_records(os.path.join(args.out_dir, "polygon_study_summary.csv"), report.summaries,
                   _evaluation.StudySummary,
                   header=["vertex_count", "min", "q1", "median", "q3", "max", "mean"])
    if report.failures:
        failures_path = os.path.join(args.out_dir, "polygon_study_failures.csv")
        _write_records(failures_path, report.failures, _evaluation.StudyFailure)
        print(f"{len(report.failures)} polygon(s) failed; see {failures_path}", file=sys.stderr)
    _write_manifest(args, report_path, {}, solves=True)
    ratios = report.ratios()
    if ratios.size:
        print(f"{len(report.rows)} polygons: mean ratio {_fmt(float(ratios.mean()))}, "
              f"min {_fmt(float(ratios.min()))} -> {report_path}")
    return EXIT_OK


def cmd_shapes(args) -> int:
    X = _datagen.generate_shape(args.kind, n=args.n, noise=args.noise, seed=args.seed)
    _datagen.save_dataset(args.out, X)
    _write_manifest(args, args.out, {})
    print(f"wrote {X.shape[0]} x {X.shape[1]} {args.kind} dataset -> {args.out}")
    return EXIT_OK


def cmd_shuttle(args) -> int:
    if not args.path:
        print("The Statlog shuttle data is not bundled; download it from:")
        print(f"  {SHUTTLE_URL}")
        print("then re-run with --path pointing at the extracted shuttle file.")
        return EXIT_OK
    if args.sample_class1 and not args.out:
        raise InputError("--out is required with --sample-class1")
    inputs = _input_digests(args.path) if args.sample_class1 else None
    X, labels = ingest_shuttle(args.path)
    counts = {int(c): int(np.sum(labels == c)) for c in np.unique(labels)}
    print(f"{X.shape[0]} rows, 9 features, class counts: {counts}")
    if args.sample_class1:
        sample = sample_shuttle_class1(X, labels, args.sample_class1, args.seed)
        _datagen.save_dataset(args.out, sample)
        _write_manifest(args, args.out, inputs)
        print(f"sampled {sample.shape[0]} class-1 rows -> {args.out}")
    return EXIT_OK


def positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def int_list(text) -> list:
    """Comma-separated integers, as ``--vertices`` takes them."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_sweep_flags(p):
    """The flags of the commands that sweep a bandwidth grid: the solver's,
    the grid's, the peak criterion's ``--min-run``, and ``--jobs``."""
    p.add_argument("--f", type=float, default=0.001, help="expected outlier fraction")
    p.add_argument("--kkt-tol", type=float, default=SolverConfig.kkt_tol)
    p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
    p.add_argument("--s-min", type=float, default=0.05)
    p.add_argument("--s-max", type=float, default=8.0)
    p.add_argument("--s-step", type=float, default=0.05)
    p.add_argument("--min-run", type=int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svddpeak",
        description="Train and tune support vector data description models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it as JSON")
    p.add_argument("--data", required=True)
    bandwidth = p.add_mutually_exclusive_group(required=True)
    bandwidth.add_argument("--s", type=float, default=None, help="Gaussian bandwidth")
    bandwidth.add_argument("--tune", choices=["peak", "cv", "md", "dfn"], default=None,
                           help="select the bandwidth first (alternative to --s)")
    _add_sweep_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="select a bandwidth and export the criterion curve")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["peak", "cv", "md", "dfn"], required=True)
    _add_sweep_flags(p)
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
    p.add_argument("--per-count", type=positive_int, default=5)
    p.add_argument("--samples", type=int, default=600)
    p.add_argument("--full", action="store_true",
                   help="paper-scale run: vertices 5..30, 20 polygons each")
    p.add_argument("--seed", type=nonnegative_int, default=20240501)
    _add_sweep_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("shapes", help="generate a benchmark shape dataset")
    p.add_argument("--kind", choices=list(_datagen.SHAPE_KINDS), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("shuttle", help="ingest the UCI Statlog shuttle file")
    p.add_argument("--path", default=None)
    p.add_argument("--sample-class1", type=positive_int, default=None)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shuttle)

    return parser


def _check_output_dirs(args) -> None:
    """InputError naming the first output (``--out``, ``--curve``) whose
    directory does not exist, or an ``--out-dir`` that names or lies below
    something other than a directory, so that a command fails before it
    reads or solves anything. A manifest goes next to its primary output."""
    for path in (getattr(args, "out", None), getattr(args, "curve", None)):
        if path is None:
            continue
        directory = os.path.dirname(str(path)) or os.curdir
        if not os.path.isdir(directory):
            raise InputError(f"cannot write {path}: no directory {directory}")
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None:
        # the missing part of --out-dir is made after the run; what exists
        # of it must be a directory
        existing = os.path.normpath(str(out_dir))
        while existing and not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise InputError(f"cannot write {out_dir}: {existing} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except NoPeakFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PEAK
    except (InputError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SvddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
