"""Pin the compiled library's functions to one path, so tests can hold
every path to the reference: the SMO inner loop to a compiled pass
(through the library's exported ``svdd_smo_level``) or the Python loop,
the CSV row writer to the compiled writer or its Python twin, the CSV
body reader to the compiled reader or the row loop, and the squared
distances to the compiled pass or the numpy loop."""

import contextlib
import ctypes

import pytest

from svddpeak import _native

# every pass there is, widest first; the compiled names are _native.ISAS
PASSES = ("avx512f", "scalar", "python")


def supported_passes() -> list:
    """The passes this host can run: the compiled ones up to the CPU's
    level (none without a compiler), then the Python loop."""
    lib = _native.library()
    top = -1 if lib is None else lib.svdd_smo_cpu_level()
    return [name for name in PASSES[:-1] if _native.ISAS.index(name) <= top] + ["python"]


@contextlib.contextmanager
def pinned(name):
    """Run the block on pass ``name``; skip the test when the host lacks it."""
    if name not in supported_passes():
        pytest.skip(f"the {name} pass cannot run on this host")
    if name == "python":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "smo_loop", lambda: None)
            yield
        return
    level = ctypes.c_int.in_dll(_native.library(), "svdd_smo_level")
    saved = level.value
    level.value = _native.ISAS.index(name)
    try:
        yield
    finally:
        level.value = saved


# the CSV row writers: svdd_csv_rows and datagen._python_blocks
WRITERS = ("compiled", "python")


def supported_writers() -> list:
    """The row writers this host can run: the compiled one when the library
    builds, then the Python twin."""
    return (["compiled"] if _native.csv_blocks() is not None else []) + ["python"]


@contextlib.contextmanager
def pinned_writer(name):
    """Write CSV rows with writer ``name``; skip the test when the host
    lacks it."""
    if name not in supported_writers():
        pytest.skip(f"the {name} writer cannot run on this host")
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            patch.setattr(_native, "csv_blocks", lambda: None)
        yield


def supported_readers() -> list:
    """The CSV body readers this host can run: the compiled one
    (svdd_csv_floats) when the library builds, then the row loop
    (cli._read_csv_rows)."""
    return (["compiled"] if _native.csv_floats() is not None else []) + ["rows"]


@contextlib.contextmanager
def pinned_reader(name):
    """Read CSV bodies with reader ``name``; skip the test when the host
    lacks it."""
    if name not in supported_readers():
        pytest.skip(f"the {name} reader cannot run on this host")
    with pytest.MonkeyPatch.context() as patch:
        if name == "rows":
            patch.setattr(_native, "csv_floats", lambda: None)
        yield


def supported_distances() -> list:
    """The squared-distance paths this host can run: the compiled pass
    (svdd_sqdist) when the library builds, then the numpy loop
    (kernel._numpy_squared_distances)."""
    return (["compiled"] if _native.sqdist() is not None else []) + ["numpy"]


@contextlib.contextmanager
def pinned_distances(name):
    """Compute squared distances on path ``name``; skip the test when the
    host lacks it."""
    if name not in supported_distances():
        pytest.skip(f"the {name} squared distances cannot run on this host")
    with pytest.MonkeyPatch.context() as patch:
        if name == "numpy":
            patch.setattr(_native, "sqdist", lambda: None)
        yield
