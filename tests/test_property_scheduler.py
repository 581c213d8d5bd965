"""Property-based tests (hypothesis) for the scheduler invariants.

These cover the correctness properties the paper's hardware relies on:

* every effectual pair is consumed exactly once over a stream,
* skipping ineffectual pairs never changes the accumulated output,
* the schedule is valid (no pair selected twice within a step, every
  selection points at a pending effectual pair),
* the cycle count is bounded below by ``rows / staging_depth`` and above
  by ``rows`` (never slower than the dense baseline),
* the bit-packed batch kernel is bit-identical to the per-cycle oracle,
  at every packable staging depth and refill limit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import PEConfig
from repro.core.pe import BaselinePE, TensorDashPE
from repro.core.scheduler import BatchScheduler, HardwareScheduler

from test_core_scheduler import assert_packed_matches_oracle


def effectual_windows(depth=3, lanes=16):
    return arrays(np.bool_, (depth, lanes), elements=st.booleans())


def effectual_streams(max_rows=20, lanes=16):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda rows: arrays(np.bool_, (rows, lanes), elements=st.booleans())
    )


@st.composite
def packed_schedule_cases(draw, lanes=16):
    """A window at a random packable depth (1-4) plus a refill limit."""
    depth = draw(st.integers(min_value=1, max_value=4))
    window = draw(arrays(np.bool_, (depth, lanes), elements=st.booleans()))
    limit = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=depth)))
    return window, limit


@st.composite
def value_stream_pairs(draw, max_rows=12, lanes=16):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    shape = (rows, lanes)
    a_zero = draw(arrays(np.bool_, shape, elements=st.booleans()))
    b_zero = draw(arrays(np.bool_, shape, elements=st.booleans()))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    a = rng.uniform(0.5, 2.0, size=shape)
    b = rng.uniform(0.5, 2.0, size=shape)
    a[a_zero] = 0.0
    b[b_zero] = 0.0
    return a, b


class TestSchedulerStepProperties:
    @settings(max_examples=200, deadline=None)
    @given(effectual_windows())
    def test_schedule_is_valid(self, window):
        scheduler = HardwareScheduler()
        schedule = scheduler.schedule_step(window)
        chosen = [s for s in schedule.selections if s is not None]
        # No duplicates, and every selection points at an effectual pair.
        assert len(chosen) == len(set(chosen))
        for step, lane in chosen:
            assert window[step, lane]

    @settings(max_examples=200, deadline=None)
    @given(effectual_windows())
    def test_row_zero_is_always_drained(self, window):
        scheduler = HardwareScheduler()
        schedule = scheduler.schedule_step(window)
        consumed_row0 = {
            lane for selection in schedule.selections
            if selection is not None and selection[0] == 0
            for lane in [selection[1]]
        }
        assert consumed_row0 == set(np.flatnonzero(window[0]))
        assert 1 <= schedule.advance <= 3

    @settings(max_examples=200, deadline=None)
    @given(packed_schedule_cases())
    def test_batch_scheduler_is_bit_identical(self, case):
        window, limit = case
        assert_packed_matches_oracle(window[None], advance_limit=limit)


class TestStreamProperties:
    @settings(max_examples=100, deadline=None)
    @given(effectual_streams())
    def test_every_effectual_pair_consumed_exactly_once(self, stream):
        scheduler = HardwareScheduler()
        cycles, schedules = scheduler.process_stream(stream)
        consumed = sum(s.busy_lanes for s in schedules)
        assert consumed == int(stream.sum())

    @settings(max_examples=100, deadline=None)
    @given(effectual_streams())
    def test_cycles_bounded_by_depth_and_rows(self, stream):
        scheduler = HardwareScheduler()
        cycles, _ = scheduler.process_stream(stream)
        rows = stream.shape[0]
        assert cycles <= rows
        assert cycles >= -(-rows // 3)

    @settings(max_examples=50, deadline=None)
    @given(effectual_streams(max_rows=15))
    def test_batch_stream_cycles_match_reference(self, stream):
        reference, _ = HardwareScheduler().process_stream(stream)
        assert BatchScheduler().stream_cycles(stream) == reference


class TestPEProperties:
    @settings(max_examples=50, deadline=None)
    @given(value_stream_pairs())
    def test_functional_equivalence_one_side(self, streams):
        a, b = streams
        baseline = BaselinePE().process(a, b)
        result, _ = TensorDashPE().process(a, b)
        assert np.isclose(result.output, baseline.output, rtol=1e-9, atol=1e-9)
        assert result.cycles <= baseline.cycles

    @settings(max_examples=50, deadline=None)
    @given(value_stream_pairs())
    def test_functional_equivalence_two_side(self, streams):
        a, b = streams
        config = PEConfig(two_side=True)
        baseline = BaselinePE(config).process(a, b)
        result, _ = TensorDashPE(config).process(a, b)
        assert np.isclose(result.output, baseline.output, rtol=1e-9, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(value_stream_pairs())
    def test_macs_performed_matches_nonzero_b(self, streams):
        a, b = streams
        result, _ = TensorDashPE().process(a, b)
        assert result.macs_performed == int(np.count_nonzero(b))
