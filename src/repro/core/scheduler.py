"""The TensorDash hardware scheduler (Fig. 10).

Given the zero bit-vectors of the two staging buffers, the scheduler picks,
for each multiplier lane, one of the lane's movement options so that every
*effectual* value pair (both operands non-zero) in the staging window is
consumed exactly once and as many lanes as possible are kept busy.

The hardware implementation is a cascade of per-lane 8-to-3 priority
encoders arranged in six levels; lanes within a level have disjoint option
sets so their selections can never conflict, and each level removes its
selections from the Z vector before passing it to the next level.  The
software model here processes lanes in the same level order, which produces
bit-identical schedules to the combinational circuit.

Cycles are counted in exactly two places, both here:

* :class:`HardwareScheduler` — the paper-faithful oracle: a readable model
  of one scheduling step (:meth:`~HardwareScheduler.schedule_step`) and
  the one per-cycle loop over a lockstep group of PE rows
  (:meth:`~HardwareScheduler.lockstep_schedules`), used by the PE, tile
  and pre-scheduler models, the ``oracle=True`` simulation reference and
  every equivalence test.
* :class:`BatchScheduler` — the fast kernel: the same decisions on
  bit-packed ``uint64`` windows (:meth:`~BatchScheduler.schedule_packed`)
  driven over ragged batches of groups
  (:meth:`~BatchScheduler.group_cycles_packed`), used by the cycle
  simulator to keep full-model experiments tractable.  Staging windows
  wider than 64 bits run on the oracle instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.interconnect import ConnectivityPattern


@dataclass
class Schedule:
    """The outcome of one scheduling step.

    Attributes
    ----------
    selections:
        Per lane, the selected ``(step, lane)`` staging-buffer position, or
        ``None`` if the lane is idle this cycle.
    select_signals:
        Per lane, the multiplexer select value (the option's rank in the
        lane's priority list), or ``None`` when idle.  These are the MS
        signals of Fig. 10.
    advance:
        The AS signal: how many staging-buffer rows were fully drained and
        can be refilled from the scratchpads (always at least 1 when the
        window is non-empty).
    busy_lanes:
        Number of lanes that perform an effectual MAC this cycle.
    """

    selections: List[Optional[Tuple[int, int]]]
    select_signals: List[Optional[int]]
    advance: int
    busy_lanes: int

    @property
    def utilization(self) -> float:
        """Fraction of lanes doing useful work this cycle."""
        if not self.selections:
            return 0.0
        return self.busy_lanes / len(self.selections)


def pack_stream_rows(streams: np.ndarray) -> np.ndarray:
    """Pack boolean stream rows into one ``uint64`` lane-bitmask per row.

    ``streams`` has shape ``(num_streams, rows, lanes)`` with
    ``lanes <= 64``; the result has shape ``(num_streams, rows)`` where
    bit ``l`` of word ``[s, r]`` is ``streams[s, r, l]``.  A window
    starting at row ``p`` for a ``depth``-deep staging buffer is then
    ``rows[p] | rows[p+1] << lanes | ...`` — the layout
    :meth:`BatchScheduler.schedule_packed` consumes.
    """
    num_streams, rows, lanes = streams.shape
    if lanes > 64:
        raise ValueError(f"cannot pack {lanes} lanes into a 64-bit word")
    packed_bytes = np.packbits(
        np.ascontiguousarray(streams, dtype=bool), axis=-1, bitorder="little"
    )
    words = np.zeros((num_streams, rows, 8), dtype=np.uint8)
    words[:, :, : packed_bytes.shape[-1]] = packed_bytes
    return words.view("<u8").reshape(num_streams, rows)


class HardwareScheduler:
    """Cycle-level model of the hierarchical scheduler for one PE row.

    Parameters
    ----------
    pattern:
        The sparse interconnect connectivity; defaults to the paper's
        16-lane, 3-deep configuration.
    """

    def __init__(self, pattern: Optional[ConnectivityPattern] = None):
        self.pattern = pattern or ConnectivityPattern()
        self.level_groups = self.pattern.level_groups()
        #: Lanes in the order the hardware levels evaluate them.
        self.lane_order: List[int] = [
            lane for group in self.level_groups for lane in group
        ]

    # -- single step --------------------------------------------------------
    def schedule_step(
        self, effectual: np.ndarray, advance_limit: Optional[int] = None
    ) -> Schedule:
        """Schedule one cycle over a staging window.

        Parameters
        ----------
        effectual:
            Boolean array of shape ``(staging_depth, lanes)``; ``True``
            marks a pending effectual pair (both operands non-zero and not
            yet consumed in a previous cycle).  This is the complement of
            the Z vector described in the paper (Z marks ineffectual
            pairs); the complement is used directly because it is what the
            priority encoders consume.
        advance_limit:
            Maximum rows the staging buffer can refill this cycle (the
            scratchpad banking limit the memory hierarchy imposes);
            ``None`` means unlimited — the legacy behaviour.  The AS
            signal is clamped to it, so drained rows beyond the refill
            bandwidth simply advance on a later cycle.

        Returns
        -------
        Schedule
            The selections, MS signals, AS advance count and lane
            occupancy for this cycle.
        """
        depth, lanes = effectual.shape
        if depth != self.pattern.staging_depth or lanes != self.pattern.lanes:
            raise ValueError(
                f"expected window of shape ({self.pattern.staging_depth}, "
                f"{self.pattern.lanes}), got {effectual.shape}"
            )
        remaining = effectual.copy()
        selections: List[Optional[Tuple[int, int]]] = [None] * lanes
        signals: List[Optional[int]] = [None] * lanes

        for lane in self.lane_order:
            for rank, (step, source_lane) in enumerate(
                self.pattern.options_for_lane(lane)
            ):
                if remaining[step, source_lane]:
                    remaining[step, source_lane] = False
                    selections[lane] = (step, source_lane)
                    signals[lane] = rank
                    break

        advance = self._advance_rows(remaining)
        if advance_limit is not None:
            if advance_limit < 1:
                raise ValueError(f"advance_limit must be >= 1, got {advance_limit}")
            advance = min(advance, advance_limit)
        busy = sum(1 for s in selections if s is not None)
        return Schedule(
            selections=selections,
            select_signals=signals,
            advance=advance,
            busy_lanes=busy,
        )

    @staticmethod
    def _advance_rows(remaining: np.ndarray) -> int:
        """How many leading staging rows are fully drained after this cycle.

        Row +0 always drains (its effectual pairs are first priority for
        their own lanes and no other lane can reach step +0), so the
        advance is at least 1; it grows while subsequent rows are empty.
        """
        depth = remaining.shape[0]
        advance = 0
        for step in range(depth):
            if remaining[step].any():
                break
            advance += 1
        return max(advance, 1)

    # -- lockstep groups ----------------------------------------------------
    def lockstep_schedules(
        self, group: np.ndarray, advance_limit: Optional[int] = None
    ) -> Iterator[Tuple[int, List[Schedule]]]:
        """The per-cycle oracle for one lockstep group of PE rows.

        This is the one readable loop every cycle count in the model is
        checked against.  Each cycle, every row of the group schedules
        its own staging window with :meth:`schedule_step`, its consumed
        pairs are cleared, and the group advances by the *minimum* per-row
        AS (the rows share A-side staging buffers, so they move through
        the dense schedule together).

        Parameters
        ----------
        group:
            Boolean array of shape ``(rows, stream_rows, lanes)``: per PE
            row, which positions of the dense schedule hold effectual
            pairs.  Not modified.
        advance_limit:
            Per-cycle staging refill limit forwarded to
            :meth:`schedule_step` (``None`` = unlimited).

        Yields
        ------
        (position, schedules):
            Per cycle, the dense-schedule row the window starts at and
            each PE row's :class:`Schedule`.
        """
        group = np.asarray(group, dtype=bool)
        if group.ndim != 3 or group.shape[2] != self.pattern.lanes:
            raise ValueError(
                f"expected a (rows, stream_rows, {self.pattern.lanes}) group, "
                f"got shape {group.shape}"
            )
        num_rows, stream_rows, lanes = group.shape
        depth = self.pattern.staging_depth
        pending = group.copy()
        position = 0
        while position < stream_rows:
            visible = min(depth, stream_rows - position)
            schedules: List[Schedule] = []
            for row in range(num_rows):
                window = np.zeros((depth, lanes), dtype=bool)
                window[:visible] = pending[row, position : position + visible]
                schedule = self.schedule_step(window, advance_limit=advance_limit)
                # Clear the consumed pairs from the pending stream.
                for selection in schedule.selections:
                    if selection is None:
                        continue
                    step, lane = selection
                    pending[row, position + step, lane] = False
                schedules.append(schedule)
            yield position, schedules
            position += min(
                min(schedule.advance, stream_rows - position)
                for schedule in schedules
            )

    def group_cycles(
        self, group: np.ndarray, advance_limit: Optional[int] = None
    ) -> int:
        """Cycles one lockstep group needs (see :meth:`lockstep_schedules`)."""
        return sum(1 for _ in self.lockstep_schedules(group, advance_limit))

    def process_stream(
        self,
        effectual_rows: np.ndarray,
        advance_limit: Optional[int] = None,
    ) -> Tuple[int, List[Schedule]]:
        """Process a whole stream of dense-schedule rows through one PE.

        Parameters
        ----------
        effectual_rows:
            Boolean array of shape ``(rows, lanes)``: which positions of the
            dense schedule hold effectual pairs.
        advance_limit:
            Per-cycle staging refill limit forwarded to
            :meth:`schedule_step` (``None`` = unlimited).

        Returns
        -------
        (cycles, schedules):
            Total cycles needed and the per-cycle schedules.
        """
        effectual_rows = np.asarray(effectual_rows, dtype=bool)
        if effectual_rows.ndim != 2 or effectual_rows.shape[1] != self.pattern.lanes:
            raise ValueError(
                f"stream has shape {effectual_rows.shape}, scheduler expects "
                f"{self.pattern.lanes} lanes"
            )
        schedules = [
            row_schedules[0]
            for _, row_schedules in self.lockstep_schedules(
                effectual_rows[None], advance_limit
            )
        ]
        return len(schedules), schedules


class BatchScheduler:
    """The fast kernel: the scheduler over many bit-packed windows at once.

    The hardware scheduler is combinational and stateless, so scheduling
    many independent staging windows is embarrassingly parallel.  Each
    window is one ``uint64`` word (bit ``step * lanes + lane`` is staging
    position ``(step, lane)``), so the kernel is only available when a
    whole window fits 64 bits (``staging_depth * lanes <= 64``, i.e.
    :attr:`packable`).  Per scheduling cycle it touches 8 bytes per window,
    which is what makes whole-layer batches cheap.

    Its decisions are bit-identical to the :class:`HardwareScheduler`
    oracle (property-tested); callers fall back to the oracle for wider
    windows instead of keeping a third implementation.
    """

    def __init__(self, pattern: Optional[ConnectivityPattern] = None):
        self.pattern = pattern or ConnectivityPattern()
        groups = self.pattern.level_groups()
        if not self.pattern.validate_level_groups(groups):  # pragma: no cover
            raise AssertionError("level groups overlap; scheduler invariant broken")
        depth, lanes = self.pattern.staging_depth, self.pattern.lanes
        #: Whether a whole staging window fits one uint64 word.
        self.packable = depth * lanes <= 64
        if self.packable:
            one = np.uint64(1)
            self._packed_opts = [
                [
                    one << np.uint64(step * lanes + src)
                    for step, src in self.pattern.options_for_lane(lane)
                ]
                for lane in range(lanes)
            ]
            self._packed_levels = groups
            self._row_masks = [
                np.uint64(((1 << lanes) - 1) << (lanes * row)) for row in range(depth)
            ]

    def _require_packable(self) -> None:
        if not self.packable:
            raise ValueError(
                f"pattern (depth={self.pattern.staging_depth}, "
                f"lanes={self.pattern.lanes}) does not fit a 64-bit window"
            )

    def schedule_packed(
        self, windows: np.ndarray, advance_limit: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Schedule a batch of bit-packed windows (one ``uint64`` each).

        Bit ``step * lanes + lane`` of a window word marks a pending
        effectual pair at staging position ``(step, lane)``.  Returns
        ``(claimed, advance, busy)``: a word per window holding the
        consumed bits, the per-window AS count (clamped to
        ``advance_limit`` like :meth:`HardwareScheduler.schedule_step`)
        and the per-window number of busy lanes.
        """
        self._require_packable()
        zero = np.uint64(0)
        remaining = windows.copy()
        claimed = np.zeros_like(windows)
        busy = np.zeros(windows.shape[0], dtype=np.int64)
        for group in self._packed_levels:
            # Lanes within a level reach disjoint positions, so their
            # selections are computed from the same `remaining` snapshot.
            for lane in group:
                masks = self._packed_opts[lane]
                selected = remaining & masks[0]
                for mask in masks[1:]:
                    # Branchless priority walk: keep the first hit.
                    candidate = remaining & mask
                    selected += candidate * (selected == zero)
                claimed |= selected
                busy += selected != zero
            remaining = windows & ~claimed
        # AS: leading fully-drained rows, at least 1.
        advance = np.zeros(windows.shape[0], dtype=np.int64)
        clear = np.ones(windows.shape[0], dtype=bool)
        for row_mask in self._row_masks:
            clear = clear & ((remaining & row_mask) == zero)
            advance += clear
        advance = np.maximum(advance, 1)
        if advance_limit is not None:
            if advance_limit < 1:
                raise ValueError(f"advance_limit must be >= 1, got {advance_limit}")
            advance = np.minimum(advance, advance_limit)
        return claimed, advance, busy

    def group_cycles_packed(
        self,
        packed_rows: np.ndarray,
        tile_rows: int,
        rows_per_group: np.ndarray,
        advance_limit: Optional[int] = None,
    ) -> np.ndarray:
        """Cycles of many ragged lockstep groups, scheduled together.

        The batched equivalent of :meth:`HardwareScheduler.group_cycles`:
        every active window of every group is scheduled in one
        :meth:`schedule_packed` call per cycle, so the per-cycle dispatch
        cost is paid once for the whole batch — typically every work group
        of every operation of a layer, or of many layers.

        Parameters
        ----------
        packed_rows:
            ``uint64`` array of shape ``(num_groups * tile_rows,
            max_rows + staging_depth)``; word ``[s, r]`` holds the lane
            bitmask of stream ``s``'s dense-schedule row ``r`` (see
            :func:`pack_stream_rows`).  Streams of one group are
            contiguous.  Rows at or beyond the group's ``rows_per_group``
            entry must be zero.  **Mutated in place** (consumed pairs are
            cleared) — pass a copy to reuse it.
        tile_rows:
            Streams per lockstep group.
        rows_per_group:
            Per-group dense-schedule lengths, shape ``(num_groups,)``.
        advance_limit:
            Per-cycle staging refill limit forwarded to
            :meth:`schedule_packed`.

        Returns
        -------
        numpy.ndarray
            Per-group cycle counts.
        """
        self._require_packable()
        rows_per_group = np.asarray(rows_per_group, dtype=np.int64)
        num_groups = rows_per_group.shape[0]
        cycles = np.zeros(num_groups, dtype=np.int64)
        if num_groups == 0:
            return cycles
        lanes = self.pattern.lanes
        depth = self.pattern.staging_depth
        width = packed_rows.shape[1]
        if packed_rows.shape[0] != num_groups * tile_rows:
            raise ValueError(
                f"expected {num_groups * tile_rows} packed streams, "
                f"got {packed_rows.shape[0]}"
            )
        flat = np.ascontiguousarray(packed_rows).reshape(-1)
        lane_mask = np.uint64((1 << lanes) - 1) if lanes < 64 else ~np.uint64(0)
        shifts = [np.uint64(lanes * k) for k in range(depth)]
        tile_offsets = np.arange(tile_rows, dtype=np.int64) * width

        position = np.zeros(num_groups, dtype=np.int64)
        active_idx = np.nonzero(position < rows_per_group)[0]
        while active_idx.size:
            # Streams of active groups are contiguous runs of tile_rows.
            base = (
                active_idx[:, None] * (tile_rows * width)
                + tile_offsets[None, :]
                + position[active_idx, None]
            ).reshape(-1)
            windows = flat[base]
            for k in range(1, depth):
                windows = windows | (flat[base + k] << shifts[k])
            claimed, advance, _ = self.schedule_packed(
                windows, advance_limit=advance_limit
            )
            flat[base] &= ~(claimed & lane_mask)
            for k in range(1, depth):
                flat[base + k] &= ~((claimed >> shifts[k]) & lane_mask)
            group_advance = advance.reshape(-1, tile_rows).min(axis=1)
            step = np.minimum(
                group_advance, rows_per_group[active_idx] - position[active_idx]
            )
            position[active_idx] += step
            cycles[active_idx] += 1
            active_idx = active_idx[
                position[active_idx] < rows_per_group[active_idx]
            ]
        return cycles

    def stream_cycles(
        self, effectual_rows: np.ndarray, advance_limit: Optional[int] = None
    ) -> int:
        """Cycles for a single ``(rows, lanes)`` stream.

        Runs :meth:`group_cycles_packed` with one single-row group, or the
        :class:`HardwareScheduler` oracle when the window does not fit 64
        bits.
        """
        effectual_rows = np.asarray(effectual_rows, dtype=bool)
        if not self.packable:
            cycles, _ = HardwareScheduler(self.pattern).process_stream(
                effectual_rows, advance_limit=advance_limit
            )
            return cycles
        if effectual_rows.ndim != 2 or effectual_rows.shape[1] != self.pattern.lanes:
            raise ValueError(
                f"stream has shape {effectual_rows.shape}, scheduler expects "
                f"{self.pattern.lanes} lanes"
            )
        rows = effectual_rows.shape[0]
        packed = np.zeros((1, rows + self.pattern.staging_depth), dtype=np.uint64)
        packed[:, :rows] = pack_stream_rows(effectual_rows[None])
        return int(
            self.group_cycles_packed(
                packed, 1, np.array([rows]), advance_limit=advance_limit
            )[0]
        )
