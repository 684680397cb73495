"""The measurement environment: the settings every run uses, and the
record printed with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

# One BLAS thread per process; the worker count is pinned by `--jobs 1`.
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (the checkout is not a git repository)"
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, stdin=subprocess.DEVNULL)
    return done.stdout.strip() if done.returncode == 0 else "unknown (git failed)"


def src_digest(root: Path) -> str:
    """SHA-256 over the program's source files, which names the code measured
    when there is no commit to name it."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return caches


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(root: Path, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "threads": {k: env.get(k) for k in SINGLE_THREAD},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
    }
