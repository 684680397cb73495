"""The compiled SMO inner loop: built on first use, loaded with ctypes.

``_smo.c`` is compiled once per source, flags and platform into the cache
directory ``$XDG_CACHE_HOME/svddpeak`` (``~/.cache/svddpeak`` when the
variable is unset), under a name that hashes all three. The compiler
writes to a temporary name and ``os.replace`` moves the library into
place, so concurrent first uses (``--jobs`` workers on a cold cache) are
safe. The cache holds that one file: the library itself reports the
compiler that built it (``svdd_smo_compiler``).

Nothing here runs at import. ``smo_loop()`` tries the build once per
process; when no compiler is found, the compile fails or the cache cannot
be written, it returns None and the solver runs its Python loop, which
gives the same bits.

The library picks its pass over n when it is loaded: AVX-512F, AVX2 or
scalar, the best the CPU supports (``svdd_smo_level``). The flags stay
portable, so one cached library serves any x86-64 CPU.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_smo.c")
# -ffp-contract=off: no fused multiply-add, so every rounding is numpy's
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILERS = ("cc", "gcc", "clang")
_COMPILE_TIMEOUT_S = 120
# names of the library's svdd_smo_level values
ISAS = ("scalar", "avx2", "avx512f")

# (run, library) once the first solve has asked; None until then
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
    return "smo-" + digest.hexdigest()[:16]


def _build(directory: Path, library: Path) -> None:
    """Compile ``SOURCE`` to a fresh name in ``directory``, then move it to
    ``library`` in one step; the temporary file never outlives a failure."""
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
    fn = lib.svdd_smo_run
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64] + [ctypes.c_double] * 3 + [
        ctypes.c_int64, ctypes.c_int64]

    def run(K, diag, alpha, grad, up_pen, low_pen, C, kkt_tol, curvature_floor,
            max_iterations, iterations):
        return fn(K.ctypes.data, diag.ctypes.data, alpha.ctypes.data, grad.ctypes.data,
                  up_pen.ctypes.data, low_pen.ctypes.data, K.shape[0], C, kkt_tol,
                  curvature_floor, max_iterations, iterations)

    return run, lib


def _ensure_loaded():
    global _loaded
    if _loaded is None:
        try:
            _loaded = _load()
        except (OSError, ValueError, AttributeError, subprocess.SubprocessError):
            _loaded = (None, None)
    return _loaded


def smo_loop():
    """The compiled inner loop, with ``solver._run_python``'s signature, or
    None when it cannot be built or loaded."""
    return _ensure_loaded()[0]


def library():
    """The loaded ``ctypes`` library, or None when the Python loop runs."""
    return _ensure_loaded()[1]


def backend() -> dict:
    """The SMO backend for run manifests: ``{"kind": "c", "compiler": ...,
    "flags": [...], "isa": "avx512f" | "avx2" | "scalar"}`` or
    ``{"kind": "python"}``."""
    lib = library()
    if lib is None:
        return {"kind": "python"}
    return {"kind": "c", "compiler": lib.svdd_smo_compiler().decode(), "flags": list(FLAGS),
            "isa": ISAS[ctypes.c_int.in_dll(lib, "svdd_smo_level").value]}
