"""Self-test of the benchmark's span arithmetic on synthetic spans.

    python3 -m pytest perfbench -q
"""

from spans import Span, Target, Tracer, _wrap, self_times


def _tracer(*ticks):
    clock = iter(ticks)
    return Tracer(clock=lambda: next(clock))


def test_self_time_subtracts_children_at_every_depth():
    # root [0, 10]: a [1, 4] holds a1 [2, 3]; b [5, 9]
    tracer = _tracer(0, 1, 2, 3, 4, 5, 9, 10)
    with tracer.root("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    spans = tracer.spans
    assert [s.name for s in spans] == ["root", "a", "a1", "b"]
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert self_times(spans) == [3, 2, 1, 4]
    assert sum(self_times(spans)) == spans[0].duration


def test_overlapping_children_are_covered_once_and_clipped_to_the_parent():
    spans = [
        Span("p", 0.0, 10.0, None, 1),
        Span("c1", 1.0, 6.0, 0, 1),
        Span("c2", 4.0, 8.0, 0, 1),  # overlaps c1: [1, 8] covers 7
        Span("c3", 9.0, 12.0, 0, 1),  # runs past the parent: only [9, 10] counts
    ]
    assert self_times(spans)[0] == 2.0


def test_roots_start_invocations_and_idle_calls_are_not_recorded():
    tracer = _tracer(0, 1, 2, 3, 4, 5)
    wrapped = _wrap(tracer, Target("svddpeak.kernel", "f", lambda r, *a: {"rows": r}), lambda x: x)
    assert wrapped(5) == 5  # no root open: runs untraced
    assert tracer.spans == []
    with tracer.root("first"):
        pass
    with tracer.root("second"):
        assert wrapped(7) == 7
    assert [(s.name, s.invocation) for s in tracer.spans] == [
        ("first", 1), ("second", 2), ("kernel.f", 2)]
    assert tracer.spans[2].counts == {"rows": 7}
