"""Pin the SMO inner loop to one pass, so tests can hold every pass to the
reference: a compiled pass through the library's exported
``svdd_smo_level``, or the Python loop."""

import contextlib
import ctypes

import pytest

from svddpeak import _native

# every pass there is, widest first; the compiled names are _native.ISAS
PASSES = ("avx512f", "avx2", "scalar", "python")


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
