"""Build, load and fallback of the compiled library (``_native``)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from svddpeak import _native, solver
from svddpeak.datagen import generate_shape
from svddpeak.errors import NumericalError
from svddpeak.kernel import GAUSSIAN, KernelSpec, kernel_matrix
from svddpeak.solver import SolverConfig, train

from native_paths import PASSES, pinned, supported_passes
from oracles import whole_rows


@pytest.fixture
def cold_cache(monkeypatch, tmp_path):
    """An empty build cache, and no library loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(_native, "_loaded", None)
    return tmp_path / "xdg" / "svddpeak"


def _fit_banana():
    X = generate_shape("banana", n=120, seed=11)
    return train(X, KernelSpec(GAUSSIAN, 0.5), SolverConfig(f=0.01))


def _assert_same_model(a, b):
    assert np.array_equal(a.alphas, b.alphas)
    assert a.r_squared == b.r_squared
    assert a.dual_objective == b.dual_objective
    assert a.iterations == b.iterations


def test_cache_dir_follows_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.cache_dir() == tmp_path / "svddpeak"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert _native.cache_dir() == tmp_path / "home" / ".cache" / "svddpeak"


def test_builds_once_then_loads_without_the_compiler(cold_cache, monkeypatch):
    if _native._find_compiler() is None:
        pytest.skip("no C compiler on this machine")
    assert _native.smo_loop() is not None
    backend = _native.backend()
    assert backend["kind"] == "c"
    assert backend["flags"] == list(_native.FLAGS)
    assert backend["compiler"]
    assert backend["isa"] in _native.ISAS
    # one library, no temporaries left behind
    stem = _native._library_stem()
    assert sorted(p.name for p in cold_cache.iterdir()) == [stem + ".so"]
    # a later process loads the cached library and reports its pass without
    # looking for a compiler or spawning a process
    monkeypatch.setattr(_native, "_loaded", None)
    monkeypatch.setattr(_native, "_find_compiler", lambda: pytest.fail("compiler looked up"))
    monkeypatch.setattr(subprocess, "run", lambda *args, **kw: pytest.fail("process spawned"))
    assert _native.smo_loop() is not None
    assert _native.backend() == backend


def test_a_cache_holding_only_the_library_runs_the_compiled_loop(cold_cache, monkeypatch,
                                                                 tmp_path):
    if _native._find_compiler() is None:
        pytest.skip("no C compiler on this machine")
    assert _native.smo_loop() is not None
    backend = _native.backend()
    assert backend["compiler"].split()[0] in ("gcc", "clang")
    name = _native._library_stem() + ".so"
    other = tmp_path / "other" / "svddpeak"
    other.mkdir(parents=True)
    (other / name).write_bytes((cold_cache / name).read_bytes())
    monkeypatch.setenv("XDG_CACHE_HOME", str(other.parent))
    monkeypatch.setattr(_native, "_loaded", None)
    monkeypatch.setattr(_native, "_find_compiler", lambda: pytest.fail("compiler looked up"))
    assert _native.smo_loop() is not None
    assert _native.backend() == backend
    assert [p.name for p in other.iterdir()] == [name]


def test_concurrent_first_builds_leave_one_library(tmp_path):
    # more builders than cores race on one empty cache
    if _native._find_compiler() is None:
        pytest.skip("no C compiler on this machine")
    src = str(pathlib.Path(_native.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=str(tmp_path))
    probe = "import svddpeak._native as n; print(n.smo_loop() is not None, n.backend()['kind'])"
    builders = [subprocess.Popen([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE,
                                 text=True) for _ in range(4)]
    outputs = [builder.communicate(timeout=120)[0] for builder in builders]
    assert [builder.returncode for builder in builders] == [0] * 4
    assert outputs == ["True c\n"] * 4
    assert sorted(p.suffix for p in (tmp_path / "svddpeak").iterdir()) == [".so"]


def test_every_compiled_source_is_packaged_and_hashed(monkeypatch, tmp_path):
    tomllib = pytest.importorskip("tomllib")
    commands = []
    monkeypatch.setattr(_native, "_find_compiler", lambda: "cc")
    monkeypatch.setattr(subprocess, "run", lambda command, **kw: commands.append(command))
    _native._build(tmp_path, tmp_path / "library.so")
    sources = [pathlib.Path(arg) for arg in commands[0] if arg.endswith(".c")]
    assert sources
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        packaged = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["svddpeak"]
    stem = _native._library_stem()
    read_bytes = pathlib.Path.read_bytes
    for source in sources:
        # installed next to _native.py, as the wheel's package data
        assert source.parent == pathlib.Path(_native.__file__).parent
        assert source.name in packaged
        assert source.is_file()
        # an edit to the source names a new library
        monkeypatch.setattr(pathlib.Path, "read_bytes",
                            lambda path: read_bytes(path) + (b"\n" if path == source else b""))
        assert _native._library_stem() != stem
        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)


def _no_compiler(monkeypatch, cache):
    monkeypatch.setattr(_native, "_find_compiler", lambda: None)


def _failing_compiler(monkeypatch, cache):
    monkeypatch.setattr(_native, "_find_compiler", lambda: "false")


def _unwritable_cache(monkeypatch, cache):
    # the cache's parent is a regular file, so the directory cannot be
    # made (a permission bit would not stop a root user)
    blocker = cache.parent
    blocker.parent.mkdir(parents=True, exist_ok=True)
    blocker.write_text("not a directory\n")


@pytest.mark.parametrize("breakage", [_no_compiler, _failing_compiler, _unwritable_cache],
                         ids=["no-compiler", "compile-fails", "unwritable-cache"])
def test_falls_back_to_the_python_loop_with_the_same_bits(monkeypatch, tmp_path, breakage):
    expected = _fit_banana()  # with the loop this session already runs
    cache = tmp_path / "xdg" / "svddpeak"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent))
    monkeypatch.setattr(_native, "_loaded", None)
    breakage(monkeypatch, cache)
    model = _fit_banana()
    assert _native.smo_loop() is None
    assert _native.backend() == {"kind": "python"}
    _assert_same_model(model, expected)
    assert not cache.is_dir() or not any(p.suffix == ".so" for p in cache.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
# n = 19: rows 0-15 fill the vector blocks of either width, 16-18 are the tail
@pytest.mark.parametrize("where", [(3, 5), (0, 0), (9, 9), (9, 2), (17, 17), (18, 6)])
def test_loops_agree_on_non_finite_gram_entries(bad, where):
    # a Gram matrix that is not finite gives a gradient that is not either,
    # so every loop stops with NumericalError before its first step
    X = np.random.default_rng(1).normal(size=(19, 2))
    K = kernel_matrix(X, KernelSpec(GAUSSIAN, 0.7))
    K[where] = K[where[::-1]] = bad
    for name in supported_passes():
        calls = []
        with pinned(name), pytest.MonkeyPatch.context() as patch, \
                np.errstate(invalid="ignore"):
            loop = _native.smo_loop() or solver._run_python

            def counted(*args):
                calls.append(1)
                return loop(*args)

            patch.setattr(_native, "smo_loop", lambda: counted)
            with pytest.raises(NumericalError):
                solver._solve_smo(whole_rows(K), 0.5, 1e-6, 9, np.full(19, 1 / 19))
        assert calls == [], name


@pytest.mark.parametrize("name", PASSES)
def test_a_nan_row_filled_mid_solve_is_a_numerical_error(name):
    # the start's two rows are finite, the first row the loop asks for is
    # NaN; without the gradient check the solve ran to the iteration cap
    X = np.random.default_rng(2).normal(size=(19, 2))
    K = kernel_matrix(X, KernelSpec(GAUSSIAN, 0.7))
    requests = []

    def source(index):
        requests.append(index.tolist())
        return np.full((index.size, 19), np.nan) if len(requests) == 2 else K[index]

    rows = solver._KernelRows(np.eye(19), source)
    alpha0 = np.zeros(19)
    alpha0[[0, 1]] = 0.5
    rows.fill(np.array([0, 1]))
    with pinned(name), np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError):
            solver._solve_smo(rows, 0.5, 1e-6, 1000, alpha0)
    assert len(requests) >= 2


@pytest.mark.parametrize("buffer", [np.eye(4, dtype=np.float32),
                                    np.asfortranarray(np.arange(16.0).reshape(4, 4)),
                                    np.eye(8)[::2, ::2], np.zeros((2, 3)), np.ones(4)],
                         ids=["float32", "fortran", "strided", "not-square", "one-dim"])
def test_a_row_buffer_is_square_c_contiguous_float64(buffer):
    with pytest.raises(ValueError):
        solver._KernelRows(buffer, lambda index: None)


def test_the_library_compiles_without_warnings(tmp_path):
    # a variable left unused or a signed/unsigned mix fails here
    compiler = _native._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler on this machine")
    result = subprocess.run([compiler, *_native.FLAGS, "-Wall", "-Wextra", "-Werror",
                             "-o", str(tmp_path / "library.so"), str(_native.SOURCE)],
                            capture_output=True, text=True, timeout=_native._COMPILE_TIMEOUT_S)
    assert result.returncode == 0, result.stderr
