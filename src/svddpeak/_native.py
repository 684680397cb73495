"""The compiled library: built on first use, loaded with ctypes.

``_native.c`` exports four functions, none doing I/O, each with a twin
that gives the same result where the library cannot be had:

- ``svdd_smo_run``, the SMO inner loop (twin: ``solver._run_python``),
  reached through ``smo_loop()``;
- ``svdd_csv_rows``, the CSV cell writer (twin:
  ``datagen._python_blocks``), reached through ``csv_blocks()``;
- ``svdd_csv_floats``, the CSV body parser (twin: the row loop
  ``cli._read_csv_rows``, which also reads every file the compiled
  reader refuses), reached through ``csv_floats()``, which reads the file;
- ``svdd_sqdist``, the squared distances of ``kernel.squared_distances``
  (twin: the numpy loop ``kernel._numpy_squared_distances``), reached
  through ``sqdist()``.

The source is compiled once per source, flags and platform into the cache
directory ``$XDG_CACHE_HOME/svddpeak`` (``~/.cache/svddpeak`` when the
variable is unset), under a name that hashes all three. The compiler
writes to a temporary name and ``os.replace`` moves the library into
place, so concurrent first uses (``--jobs`` workers on a cold cache) are
safe. The cache holds that one file: the library itself reports the
compiler that built it (``svdd_smo_compiler``).

Nothing here runs at import. The first command that needs the library
tries the build, once per process; when no compiler is found, the compile
fails or the cache cannot be written, every accessor returns None and the
twins run.

The library picks its SMO pass over n when it is loaded
(``svdd_smo_level``): AVX-512F when the CPU has it, else scalar. The
flags stay portable, so one cached library serves any x86-64 CPU.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
# -ffp-contract=off: no fused multiply-add, so every rounding is numpy's
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILERS = ("cc", "gcc", "clang")
_COMPILE_TIMEOUT_S = 120
# names of the library's svdd_smo_level values
ISAS = ("scalar", "avx512f")
# svdd_csv_rows's bound on the bytes of one float cell (FLOAT_CELL_BYTES)
FLOAT_CELL_BYTES = 24
# csv_floats reads a file this many bytes at a time and refuses a longer
# line; a larger buffer showed up in the peak RSS of small runs
CSV_BLOCK_BYTES = 1 << 16

# (smo loop, csv blocks, csv floats, squared distances, library) once the
# first user has asked; None until then
_loaded = None


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "svddpeak"


def _find_compiler():
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _library_stem() -> str:
    import sysconfig  # not needed by commands that never solve

    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(FLAGS + (sysconfig.get_platform(),)).encode())
    return "svddpeak-" + digest.hexdigest()[:16]


def _build(directory: Path, library: Path) -> None:
    """Compile ``SOURCE`` to a fresh name in ``directory``, then move it to
    ``library`` in one step; the temporary file never outlives a failure."""
    import subprocess  # only a command that finds no library compiles one

    compiler = _find_compiler()
    if compiler is None:
        raise OSError("no C compiler found")
    directory.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=directory, prefix=library.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([compiler, *FLAGS, "-o", temp, str(SOURCE)], capture_output=True,
                       timeout=_COMPILE_TIMEOUT_S, check=True)
        os.replace(temp, library)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler} failed: {exc}") from exc
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _load():
    directory = cache_dir()
    library = directory / (_library_stem() + ".so")
    if not library.exists():
        _build(directory, library)
    lib = ctypes.CDLL(str(library))
    lib.svdd_smo_compiler.argtypes, lib.svdd_smo_compiler.restype = [], ctypes.c_char_p
    smo = lib.svdd_smo_run
    smo.restype = ctypes.c_int64
    smo.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_int64] + [ctypes.c_double] * 3 + [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    rows = lib.svdd_csv_rows
    rows.restype = ctypes.c_int64
    rows.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6 + [ctypes.c_int64]
    parse = lib.svdd_csv_floats
    parse.restype = ctypes.c_int64
    parse.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                      ctypes.c_int64]
    sq = lib.svdd_sqdist
    sq.restype = None
    sq.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3 + [ctypes.c_void_p]

    def run(K, alpha, grad, up_pen, low_pen, filled, pair, C, kkt_tol, curvature_floor,
            max_iterations, iterations):
        missing = ctypes.c_int64()
        iterations = smo(K.ctypes.data, alpha.ctypes.data, grad.ctypes.data,
                         up_pen.ctypes.data, low_pen.ctypes.data, filled.ctypes.data,
                         pair.ctypes.data, K.shape[0], C, kkt_tol, curvature_floor,
                         max_iterations, iterations, ctypes.byref(missing))
        return iterations, bool(missing.value)

    def blocks(cells, table, n_rows, block_rows):
        n = len(cells)
        columns = (ctypes.c_void_p * n)(*[c.ctypes.data for c in cells])
        strides = (ctypes.c_int64 * n)(*[c.strides[0] for c in cells])
        floats = [c.dtype.kind == "f" for c in cells]
        kinds = (ctypes.c_int32 * n)(*[0 if f else 1 for f in floats])
        entries = [t.encode("utf-8") for t in table]
        table_at = (ctypes.c_int64 * (len(entries) + 1))(
            0, *itertools.accumulate(len(e) for e in entries))
        widest = max(map(len, entries), default=0)
        row_bytes = sum(FLOAT_CELL_BYTES if f else widest for f in floats) + n + 1
        capacity = min(block_rows, n_rows) * row_bytes
        out = ctypes.create_string_buffer(capacity)
        text = memoryview(out).cast("B")
        table_bytes = b"".join(entries)
        for start in range(0, n_rows, block_rows):
            written = rows(start, min(start + block_rows, n_rows), n, columns, strides, kinds,
                           table_bytes, table_at, out, capacity)
            if written < 0:
                raise RuntimeError("svdd_csv_rows: a block outgrew its buffer")
            yield text[:written]

    def lines(file, offset, n_cols, out):
        # every block is read from the start of a line, so no partial line
        # is carried into the next; the last block ends in CPython's NUL
        count, capacity = 0, 0 if out is None else out.shape[0]
        while True:
            file.seek(offset)
            block = file.read(CSV_BLOCK_BYTES)
            at_end = len(block) < CSV_BLOCK_BYTES
            length = len(block) if at_end else block.rfind(b"\n") + 1
            if length == 0 and not at_end:
                return None  # a line longer than a block
            got = parse(block, length, n_cols,
                        None if out is None else out.ctypes.data + count * out.strides[0],
                        capacity - count)
            if got < 0:
                return None
            count += got
            if at_end:
                return count
            offset += length

    def floats(file, offset, n_cols):
        n_rows = lines(file, offset, n_cols, None)
        if n_rows is None:
            return None
        out = np.empty((n_rows, n_cols))
        return out if lines(file, offset, n_cols, out) == n_rows else None

    def distances(A, B):
        for rows in (A, B):
            if rows.dtype != np.float64 or rows.ndim != 2 or not rows.flags.c_contiguous:
                raise ValueError("svdd_sqdist takes 2-D C-contiguous float64 rows")
        if A.shape[1] != B.shape[1] or A.shape[1] < 1:
            raise ValueError(f"svdd_sqdist: rows of width {A.shape[1]} and {B.shape[1]}")
        out = np.empty((A.shape[0], B.shape[0]))
        sq(A.ctypes.data, B.ctypes.data, A.shape[0], B.shape[0], A.shape[1], out.ctypes.data)
        return out

    return run, blocks, floats, distances, lib


def _ensure_loaded():
    global _loaded
    if _loaded is None:
        try:
            _loaded = _load()
        except (OSError, ValueError, AttributeError):
            _loaded = (None, None, None, None, None)
    return _loaded


def smo_loop():
    """The compiled inner loop, with ``solver._run_python``'s signature and
    contract, or None when it cannot be built or loaded."""
    return _ensure_loaded()[0]


def csv_blocks():
    """The compiled row writer, with ``datagen._python_blocks``'s signature,
    or None when it cannot be built or loaded. Each block it yields is a
    view of one buffer, valid until the next block is asked for."""
    return _ensure_loaded()[1]


def csv_floats():
    """The compiled body reader, or None when it cannot be built or loaded.
    Called as ``floats(file, offset, n_cols)`` on a seekable binary file, it
    opens nothing and returns the cells from byte ``offset`` on as an
    ``(n_rows, n_cols)`` float64 array, or None when the file lies outside
    its grammar (``_native.c``) or holds a line longer than
    ``CSV_BLOCK_BYTES``. It reads the file twice in blocks cut after their
    last line ending: ``svdd_csv_floats`` counts each block's rows, then
    parses them into one array of exactly that many."""
    return _ensure_loaded()[2]


def sqdist():
    """The compiled squared distances, with
    ``kernel._numpy_squared_distances``'s signature and bits, or None when
    they cannot be built or loaded. Both rows arguments must be 2-D
    C-contiguous float64 arrays of one width, at least 1; any other is a
    ValueError."""
    return _ensure_loaded()[3]


def library():
    """The loaded ``ctypes`` library, or None when the twins run."""
    return _ensure_loaded()[4]


def backend() -> dict:
    """The SMO backend for run manifests: ``{"kind": "c", "compiler": ...,
    "flags": [...], "isa": "avx512f" | "scalar"}`` or
    ``{"kind": "python"}``."""
    lib = library()
    if lib is None:
        return {"kind": "python"}
    return {"kind": "c", "compiler": lib.svdd_smo_compiler().decode(), "flags": list(FLAGS),
            "isa": ISAS[ctypes.c_int.in_dll(lib, "svdd_smo_level").value]}
