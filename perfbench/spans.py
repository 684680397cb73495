"""In-memory span tracer for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that caused it and the invocation it belongs to.
Spans of one replayed command, or of one probe, share an invocation id.
Counts taken at the same boundary (rows, kernel entries, SMO iterations)
are kept on the span. Nothing is written until the run ends.

Spans are recorded from outside the program: ``instrumented`` swaps the
public functions listed in ``TARGETS`` for recording wrappers, in every
loaded ``svddpeak`` module that holds them, and restores them afterwards.
No file of the package is touched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    counts: dict = field(default_factory=dict)
    # (args, kwargs) of the call, kept only for targets that ask for it
    call: tuple | None = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "invocation": self.invocation,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans. Wrapped calls record only while a root span is open."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._invocations = 0

    @property
    def active(self) -> bool:
        return bool(self._stack)

    @contextmanager
    def root(self, name):
        """Open a span that starts a new invocation."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside {self.spans[self._stack[-1]].name!r}")
        self._invocations += 1
        with self.span(name) as span:
            yield span

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._clock(), float("nan"), parent, self._invocations)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        out.append(span.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    counter: object = None  # (result, *args, **kwargs) -> dict of counts
    keep_call: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


def _entries(result, *args, **kwargs):
    return {"entries": int(result.size)}


def _rows(result, *args, **kwargs):
    return {"rows": int(result.shape[0])}


def _csv_rows(result, *args, **kwargs):
    return {"rows": int(result[1].shape[0])}


def _solve(model, *args, **kwargs):
    return {
        "iterations": int(model.iterations),
        "kkt_residual": float(model.kkt_residual),
        "n_sv": int(model.sv_indices.size),
    }


# The public functions one module calls in another, per layer. Layers that
# are reached only through a private call (SMO inside sweep_objective) are
# measured by a probe instead, which re-runs the kept call; see replay.py.
TARGETS = (
    Target("svddpeak.kernel", "squared_distance_matrix", _entries),
    Target("svddpeak.kernel", "kernel_matrix_from_sq", _entries),
    Target("svddpeak.kernel", "kernel_matrix"),
    Target("svddpeak.kernel", "cross_kernel", _entries),
    Target("svddpeak.solver", "train", _solve),
    Target("svddpeak.solver", "score_distances", _rows),
    Target("svddpeak.solver", "load_model"),
    Target("svddpeak.tuning", "sweep_objective", keep_call=True),
    Target("svddpeak.tuning", "find_peak"),
    Target("svddpeak.smoothing", "fit_pspline"),
    Target("svddpeak.evaluation", "polygon_study"),
    Target("svddpeak.evaluation", "f1_sweep"),
    Target("svddpeak.datagen", "sample_interior", _rows),
    Target("svddpeak.datagen", "make_labeled_grid"),
    Target("svddpeak.datagen", "points_in_polygon", _entries),
    Target("svddpeak.cli", "read_csv_dataset", _csv_rows),
)


def _wrap(tracer: Tracer, target: Target, fn):
    name = target.span_name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if target.counter is not None:
            span.counts.update(target.counter(result, *args, **kwargs))
        if target.keep_call:
            span.call = (args, kwargs)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Swap each target for a recording wrapper wherever it is bound."""
    patches = []
    try:
        for target in TARGETS:
            original = getattr(importlib.import_module(target.module), target.attr)
            wrapper = _wrap(tracer, target, original)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", None) or ""
                if name.split(".")[0] != "svddpeak":
                    continue
                if vars(module).get(target.attr) is original:
                    setattr(module, target.attr, wrapper)
                    patches.append((module, target.attr, original))
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
