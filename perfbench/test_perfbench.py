"""Self-tests for the benchmark's own arithmetic (``pytest perfbench``)."""

import sys
import types

import pytest

from attribution import AttributionError, Recorder, Span, _timed, attribute, patch
from measure import Tally, op_failed, results_digest, tail


# -- the tail percentile -------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    value, percentile, samples = tail([float(x) for x in range(100, 0, -1)])
    assert (value, percentile, samples) == (90.0, 90.0, 100)


def test_tail_of_eleven_samples_is_the_smallest():
    value, percentile, samples = tail([5.0] + [9.0] * 10)
    assert value == 5.0
    assert percentile == pytest.approx(100.0 / 11)
    assert samples == 11


def test_tail_refuses_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 10)


# -- self-time attribution -----------------------------------------------


def test_self_time_subtracts_nested_and_repeated_children():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0),    # child of a, parent of c
        Span("c", 2.0, 3.0),
        Span("b", 5.0, 7.0),    # a's second b
        Span("d", 11.0, 12.0),  # a second root
        Span("late", 20.0, 21.0),  # outside the window: ignored
    ]
    self_s, counts, _, unattributed, wall = attribute(spans, [(0.0, 13.0)])
    assert self_s == {"a": 5.0, "b": 4.0, "c": 1.0, "d": 1.0}
    assert counts["b"] == 2 and "late" not in counts
    assert unattributed == 2.0 and wall == 13.0
    assert sum(self_s.values()) + unattributed == wall


def test_overlap_without_nesting_fails():
    with pytest.raises(AttributionError):
        attribute([Span("a", 0.0, 2.0), Span("b", 1.0, 3.0)], [(0.0, 4.0)])


def test_wrapped_calls_add_up_to_the_window():
    class Layer:
        def inner(self):
            return sum(range(1000))

        def outer(self):
            return self.inner() + self.inner()

    module = types.ModuleType("perfbench_fake")
    module.Layer = Layer
    sys.modules[module.__name__] = module
    recorder = Recorder()
    restores = [
        patch(module.__name__, "Layer.outer", _timed(recorder, "outer", None, None)),
        patch(module.__name__, "Layer.inner", _timed(recorder, "inner", None, None)),
    ]
    try:
        with recorder.span("root"):
            Layer().outer()
            Layer().inner()
    finally:
        for restore in restores:
            restore()
        del sys.modules[module.__name__]
    root = next(s for s in recorder.spans if s.name == "root")
    window = (root.start - 1.0, root.end + 1.0)
    self_s, counts, _, unattributed, wall = attribute(recorder.spans, [window])
    assert counts == {"root": 1, "outer": 1, "inner": 3}
    assert unattributed == pytest.approx(2.0)
    assert sum(self_s.values()) + unattributed == pytest.approx(wall, abs=1e-12)
    assert Layer.outer.__name__ == "outer"   # the original is restored


# -- failure counting ------------------------------------------------------


def test_failed_fraction_counts_replies_exits_and_mismatches():
    tally = Tally()
    for outcome in (
        op_failed(status=200), op_failed(status=202), op_failed(status=404),
        op_failed(status=500), op_failed(exit_code=0), op_failed(exit_code=1),
        op_failed(matches=True), op_failed(status=200, matches=False),
    ):
        tally.record(outcome, "bad")
    assert (tally.attempted, tally.failed) == (8, 4)
    assert tally.failed_fraction == 0.5
    tally.fail("digest mismatch found later")
    assert tally.failed_fraction == 5 / 8


def test_digest_ignores_order_but_not_cycles():
    rows = [["conv1", "AxW", 10, 7, 100, 60, 0, 0, 0], ["fc", "AxG", 4, 4, 16, 16, 0, 0, 0]]
    assert results_digest(rows) == results_digest(rows[::-1])
    changed = [rows[0][:3] + [8] + rows[0][4:], rows[1]]
    assert results_digest(changed) != results_digest(rows)

