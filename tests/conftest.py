import pathlib
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session", autouse=True)
def _session_build_cache(tmp_path_factory):
    """Build the compiled library into a cache of this test session, not the
    user's ``~/.cache``; subprocesses inherit it."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_point_data():
    """The symmetric pair with known closed-form solution at s = 2."""
    return np.array([[0.0, 0.0], [2.0, 0.0]])


@pytest.fixture
def refuse(monkeypatch):
    """``refuse(module, name, when)`` makes ``module.name`` raise numpy's
    MemoryError for the calls whose arguments satisfy ``when`` (every call
    by default), as a host that cannot give the memory would, and
    delegates the others: no test allocates anything large."""

    def patch(module, name, when=lambda *args: True):
        real = getattr(module, name)

        def allocate(*args, **kwargs):
            if when(*args):
                raise MemoryError("Unable to allocate 11.9 GiB for an array")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, allocate)

    return patch
