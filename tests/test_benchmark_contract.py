"""What the traced benchmark run (``perfbench/run.py --trace 1``) reads from
the package. The spans wrap the functions that ``perfbench/spans.py``
lists in ``TARGETS``, and ``perfbench/replay.py`` binds each recorded
``sweep_objective`` call to read its arguments by name. A rename here
breaks that run, which no other test starts."""

import importlib
import inspect
import pathlib
import runpy

import pytest

from svddpeak import tuning

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]

# the arguments replay.probe_sweep_solves reads from a bound call
PROBE_READS = ("X", "f", "grid", "config", "warm_start")


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_span_target_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.attr))


def test_sweep_objective_binds_what_the_probe_reads():
    signature = inspect.signature(tuning.sweep_objective)
    # the call the CLI makes: X, f and grid by position
    bound = signature.bind(None, 0.001, None, config=None, jobs=1)
    bound.apply_defaults()
    assert set(PROBE_READS) <= bound.arguments.keys()
    signature.bind(**dict.fromkeys(PROBE_READS))
