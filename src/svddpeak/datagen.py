"""Synthetic two-dimensional geometry for benchmarking boundary quality.

Random polygons are built from order statistics of uniform angles with
uniform radii; interior points come from bounding-box rejection
sampling; ground-truth labels use a ray-casting point-in-polygon test
with a closed boundary (edge points count as inside, matching the
inclusive inlier rule dist^2 <= R^2).

All randomness flows through numpy's seedable PCG64 generator
(``numpy.random.default_rng``), so fixed seeds reproduce byte-identical
datasets on every platform.

``write_csv_blocks`` is the one writer of large CSV files: datasets
(``save_dataset``) and the CLI's scored rows and grids. Each column
carries its own cell kind: a numeric array is ``%.12g`` cells, written by
the compiled library (``_native``) byte for byte as Python's ``%`` writes
them, and a ``Coded`` column or a ``str`` constant is text given by the
caller; where the library cannot be built, the per-row ``%`` loop
(``_python_blocks``) writes the same bytes.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _native
from . import kernel as _kernel
from .errors import DegenerateInputError, InputError
from .kernel import as_data_matrix

BANANA = "banana"
STAR = "star"
THREE_CLUSTER = "three_cluster"
SHAPE_KINDS = (BANANA, STAR, THREE_CLUSTER)

# defaults for the reconstructed benchmark shapes
SHAPE_SIZES = {BANANA: 267, STAR: 500, THREE_CLUSTER: 450}
SHAPE_NOISE = {BANANA: 0.25, STAR: 0.0, THREE_CLUSTER: 0.7}
CLUSTER_CENTERS = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])

# rows per string that write_csv_blocks writes
WRITE_BLOCK_ROWS = 4096

# the most lattice cells labeled_grid_over builds: scoring one lattice
# holds a few arrays of this many doubles (0.13 GiB each)
MAX_LATTICE_CELLS = 4096 * 4096

_MAX_POLYGON_ATTEMPTS = 16


@dataclass(frozen=True)
class PolygonConfig:
    k: int
    r_min: float = 3.0
    r_max: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 3:
            raise InputError("polygons need at least 3 vertices")
        if not (0.0 < self.r_min <= self.r_max):
            raise InputError("need 0 < r_min <= r_max")


@dataclass
class Polygon:
    vertices: np.ndarray  # (k, 2), anticlockwise

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InputError("polygon vertices must form a (k, 2) array with k >= 3")
        self.vertices = v
        if shoelace_area(v) <= 0.0:
            raise InputError("polygon must be anticlockwise with positive area")

    @property
    def k(self) -> int:
        return self.vertices.shape[0]

    @property
    def area(self) -> float:
        return shoelace_area(self.vertices)

    def bounding_box(self) -> tuple:
        v = self.vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 0].max()),
            float(v[:, 1].min()),
            float(v[:, 1].max()),
        )


@dataclass
class LabeledGrid:
    """Lattice xs x ys with one ground-truth inside label per point.

    ``points``, ``bounds`` and ``resolution`` derive from the axes. Points
    are ordered x-fastest, points[i] = (xs[i % rx], ys[i // rx]), and
    ``labels`` follows that order.
    """

    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.xs = _kernel._as_vector(self.xs, "xs")
        self.ys = _kernel._as_vector(self.ys, "ys")
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.labels.shape != (self.xs.size * self.ys.size,):
            raise InputError(
                f"a {self.xs.size}x{self.ys.size} lattice needs {self.xs.size * self.ys.size} "
                f"labels, got shape {self.labels.shape}"
            )

    @functools.cached_property
    def points(self) -> np.ndarray:
        return _lattice_points(self.xs, self.ys)

    @property
    def bounds(self) -> tuple:
        """(x_min, x_max, y_min, y_max)"""
        return (float(self.xs.min()), float(self.xs.max()),
                float(self.ys.min()), float(self.ys.max()))

    @property
    def resolution(self) -> tuple:
        """(rx, ry)"""
        return (self.xs.size, self.ys.size)


def _lattice_points(xs, ys) -> np.ndarray:
    """The points (xs[a], ys[b]) of a lattice, x fastest."""
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def shoelace_area(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def generate_polygon(config: PolygonConfig) -> Polygon:
    """Random anticlockwise polygon: sorted uniform angles, uniform radii.

    The first vertex sits on the positive x-axis (its angle is fixed at
    zero). A zero-area draw (measure zero, but possible in floating
    point) is regenerated from seed + 1.
    """
    for attempt in range(_MAX_POLYGON_ATTEMPTS):
        rng = np.random.default_rng(config.seed + attempt)
        thetas = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0 * np.pi, config.k - 1))])
        radii = rng.uniform(config.r_min, config.r_max, config.k)
        vertices = np.column_stack([radii * np.cos(thetas), radii * np.sin(thetas)])
        if shoelace_area(vertices) > 1e-12 * config.r_max**2:
            return Polygon(vertices=vertices)
    raise DegenerateInputError(
        f"could not draw a non-degenerate polygon from seed {config.seed}"
    )


def points_in_polygon(points, poly: Polygon) -> np.ndarray:
    """Vectorized ray-casting test, closed boundary (edges are inside)."""
    P = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = P[:, 0], P[:, 1]
    v = poly.vertices
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    scale = max(1.0, float(np.abs(v).max()))
    edge_tol = 1e-12 * scale * scale
    inside = np.zeros(P.shape[0], dtype=bool)
    on_edge = np.zeros(P.shape[0], dtype=bool)
    for a1, b1, a2, b2 in zip(x1, y1, x2, y2):
        cross = (a2 - a1) * (y - b1) - (b2 - b1) * (x - a1)
        within = (
            (np.minimum(a1, a2) - edge_tol <= x)
            & (x <= np.maximum(a1, a2) + edge_tol)
            & (np.minimum(b1, b2) - edge_tol <= y)
            & (y <= np.maximum(b1, b2) + edge_tol)
        )
        on_edge |= (np.abs(cross) <= edge_tol) & within
        spans = (b1 > y) != (b2 > y)
        if np.any(spans):
            x_hit = a1 + (y - b1) * (a2 - a1) / (b2 - b1)
            inside ^= spans & (x < x_hit)
    return inside | on_edge


def sample_interior(poly: Polygon, count: int, seed: int) -> np.ndarray:
    """Uniform interior points by bounding-box rejection, fixed seed."""
    if count < 1:
        raise InputError("count must be at least 1")
    if poly.area <= 0.0 or not np.isfinite(poly.area):
        raise DegenerateInputError("cannot sample from a zero-area polygon")
    x_min, x_max, y_min, y_max = poly.bounding_box()
    rng = np.random.default_rng(seed)
    chunks = []
    have = 0
    while have < count:
        batch = max(4 * (count - have), 256)
        cand = np.column_stack(
            [rng.uniform(x_min, x_max, batch), rng.uniform(y_min, y_max, batch)]
        )
        keep = cand[points_in_polygon(cand, poly)]
        chunks.append(keep)
        have += keep.shape[0]
    return np.concatenate(chunks, axis=0)[:count]


def make_labeled_grid(poly: Polygon, resolution=(200, 200)) -> LabeledGrid:
    """Inclusive lattice over the polygon's bounding rectangle, labeled."""
    return labeled_grid_over(poly.vertices, resolution=resolution, poly=poly)


def labeled_grid_over(points, resolution=(200, 200), padding=0.0, poly: Polygon | None = None):
    """Inclusive lattice over the bounding box of 2-D points, each side
    widened by ``padding`` times its extent; labeled by ``poly`` when given,
    else all False. Resolution is (rx, ry), at least 2 per axis and at most
    ``MAX_LATTICE_CELLS`` cells; ``padding`` is finite and at least 0."""
    rx, ry = int(resolution[0]), int(resolution[1])
    if rx < 2 or ry < 2:
        raise InputError(f"grid resolution must be at least 2 per axis, got {rx}x{ry}")
    if rx * ry > MAX_LATTICE_CELLS:
        raise InputError(f"grid resolution {rx}x{ry} has {rx * ry} cells, at most "
                         f"{MAX_LATTICE_CELLS} are allowed")
    if not 0.0 <= padding < np.inf:
        raise InputError(f"grid padding must be a finite number at least 0, got {padding!r}")
    P = as_data_matrix(points)
    if P.shape[1] != 2:
        raise InputError("labeled grids are defined for 2-D data only")
    x_min, x_max = float(P[:, 0].min()), float(P[:, 0].max())
    y_min, y_max = float(P[:, 1].min()), float(P[:, 1].max())
    pad_x = padding * (x_max - x_min)
    pad_y = padding * (y_max - y_min)
    x_lo, x_hi, y_lo, y_hi = x_min - pad_x, x_max + pad_x, y_min - pad_y, y_max + pad_y
    # false for a NaN too: a zero padding times an infinite extent
    if not (x_hi - x_lo < np.inf and y_hi - y_lo < np.inf):
        raise InputError(f"the grid box, padded by {padding!r}, is past the float range")
    xs = np.linspace(x_lo, x_hi, rx)
    ys = np.linspace(y_lo, y_hi, ry)
    if poly is None:
        return LabeledGrid(xs, ys, np.zeros(rx * ry, dtype=bool))
    # a lattice kept for its labels only: the points go once they are labeled
    return LabeledGrid(xs, ys, points_in_polygon(_lattice_points(xs, ys), poly))


def make_star_polygon() -> Polygon:
    """The five-pointed star of the star shape, anticlockwise from the top."""
    angles = np.pi / 2.0 + np.arange(10) * np.pi / 5
    radii = np.where(np.arange(10) % 2 == 0, 4.0, 1.6)
    return Polygon(vertices=np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))


def generate_shape(kind: str, n: int | None = None, noise: float | None = None, seed: int = 0) -> np.ndarray:
    """Reconstructed benchmark shapes: banana band, star interior, 3 blobs.

    ``noise`` is the band thickness for the banana, the within-cluster
    standard deviation for the clusters, and ignored for the star.
    """
    if kind not in SHAPE_KINDS:
        raise InputError(f"unknown shape kind {kind!r}; expected one of {SHAPE_KINDS}")
    n = SHAPE_SIZES[kind] if n is None else int(n)
    if n < 1:
        raise InputError("n must be at least 1")
    noise = SHAPE_NOISE[kind] if noise is None else float(noise)
    if not 0.0 <= noise < np.inf:
        raise InputError(f"noise must be a finite non-negative number, got {noise!r}")
    rng = np.random.default_rng(seed)
    if kind == BANANA:
        t = rng.uniform(-3.0, 3.0, n)
        base = np.column_stack([t, t * t / 3.0 - 1.5])
        return base + rng.normal(0.0, noise, (n, 2))
    if kind == STAR:
        poly = make_star_polygon()
        return sample_interior(poly, n, seed)
    sizes = [n // 3 + (1 if r < n % 3 else 0) for r in range(3)]
    parts = [
        CLUSTER_CENTERS[c] + rng.normal(0.0, noise, (sizes[c], 2))
        for c in range(3)
        if sizes[c] > 0
    ]
    return np.concatenate(parts, axis=0)


def shape_truth_grid(kind: str, X, resolution=(200, 200), noise: float | None = None) -> LabeledGrid:
    """Ground-truth labels for the reconstructed benchmark shapes.

    The ideal region is the generator's support: a band of half-width
    2 * noise around the banana arc, the star polygon itself, or discs of
    radius 2.45 * noise (95% Gaussian mass) around the cluster centers.
    The lattice covers the bounding box of the sample X.
    """
    if kind not in SHAPE_KINDS:
        raise InputError(f"unknown shape kind {kind!r}; expected one of {SHAPE_KINDS}")
    noise = SHAPE_NOISE[kind] if noise is None else float(noise)
    grid = labeled_grid_over(X, resolution=resolution)
    points = _lattice_points(grid.xs, grid.ys)
    if kind == BANANA:
        t = np.linspace(-3.0, 3.0, 2001)
        arc = np.column_stack([t, t * t / 3.0 - 1.5])
        grid.labels = _kernel.nearest_distances(points, arc) <= 2.0 * noise
    elif kind == STAR:
        grid.labels = points_in_polygon(points, make_star_polygon())
    else:
        grid.labels = _kernel.nearest_distances(points, CLUSTER_CENTERS) <= 2.45 * noise
    return grid


def save_dataset(path, X) -> None:
    """CSV export: header x1..xm, one ``%.12g`` cell per coordinate."""
    X = as_data_matrix(X)
    write_csv_blocks(path, [f"x{i + 1}" for i in range(X.shape[1])], list(X.T))


class Coded(NamedTuple):
    """A ``write_csv_blocks`` column given as integer ``codes`` into
    ``values``: row i holds ``str(values[codes[i]])``."""

    codes: np.ndarray
    values: tuple


def write_csv_blocks(path, header, columns) -> None:
    """Write ``header``, then one line per row of ``columns``, each of which
    carries its own cell kind: a numeric 1-D array is written as
    ``"%.12g" % v`` (which prints a float as ``f"{v:.12g}"`` does), a
    ``Coded`` column as its text values, and a ``str`` as the same text in
    every row. The arrays and codes must have one length.

    The bytes are those of ``csv.writer``, which still writes the header
    (its names may need quoting): cells joined by ``,``, lines ended by
    ``\\r\\n``. The cells must need no quoting, as numbers and bare words
    do not. Rows go out ``WRITE_BLOCK_ROWS`` at a time, each block as one
    string, by the compiled library when it loads (``_native.csv_blocks``),
    else by ``_python_blocks``.
    """
    first = next(c for c in columns if not isinstance(c, str))
    n_rows = len(first.codes if isinstance(first, Coded) else first)
    cells, table = _cells(columns, n_rows)
    blocks = _native.csv_blocks() or _python_blocks
    line = io.StringIO(newline="")
    csv.writer(line).writerow(header)
    with open(path, "wb") as fh:
        fh.write(line.getvalue().encode("utf-8"))
        for text in blocks(cells, table, n_rows, WRITE_BLOCK_ROWS):
            fh.write(text)


def _cells(columns, n_rows):
    """(cells, table) for the row writers: one array of ``n_rows`` per
    column, float64 for a numeric column, else int32 codes into ``table``,
    which holds the text of every ``Coded`` value and ``str`` constant."""
    cells, table = [], []
    for column in columns:
        if isinstance(column, str):
            cells.append(np.broadcast_to(np.int32(len(table)), (n_rows,)))
            table.append(column)
        elif isinstance(column, Coded):
            codes = np.asarray(column.codes)
            if codes.size and (codes.min() < 0 or codes.max() >= len(column.values)):
                raise InputError(f"codes must index {len(column.values)} values")
            cells.append(codes.astype(np.int32) + len(table))
            table.extend(map(str, column.values))
        else:
            cells.append(np.asarray(column, dtype=np.float64))
        if cells[-1].shape != (n_rows,):
            raise InputError(f"columns must be 1-D with {n_rows} rows, got {cells[-1].shape}")
    return cells, table


def _python_blocks(cells, table, n_rows, block_rows):
    """The per-row ``%`` loop that writes the compiled writer's bytes where
    the library cannot be built: each block as one UTF-8 string."""
    row_format = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in cells) + "\r\n"
    texts = np.array(table, dtype=object)
    for start in range(0, n_rows, block_rows):
        stop = start + block_rows
        columns = [(c[start:stop] if c.dtype.kind == "f" else texts[c[start:stop]]).tolist()
                   for c in cells]
        yield "".join([row_format % row for row in zip(*columns)]).encode("utf-8")
