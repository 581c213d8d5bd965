"""Tiles: grids of PEs sharing operands spatially (Fig. 11).

PEs along a row share the same B operand stream (e.g. one filter per row)
and PEs along a column share the same A operand stream (e.g. one window per
column).  In the configuration the paper evaluates, sparsity is extracted
only from the B side: a single scheduler per row drives the multiplexer
select signals of every PE in that row, and a shared A-side staging buffer
per column supplies the values.

Because the A-side staging buffers are shared down the columns, every row
must advance through the dense schedule in lockstep: each cycle the tile
advances by the *minimum* AS across its rows.  Rows whose B stream is
sparser than the slowest row's simply idle (work-imbalance stalls), which
is the effect Figs. 17 and 18 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import PEConfig, TileConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import HardwareScheduler
from repro.core.pe import BaselinePE


@dataclass
class TileResult:
    """Outcome of processing one work assignment on a tile."""

    cycles: int
    outputs: np.ndarray          # (rows, columns) accumulated outputs
    macs_performed: int
    macs_total: int
    stall_cycles: int            # cycles in which at least one row was idle

    @property
    def utilization(self) -> float:
        """Fraction of MAC slots that did useful work."""
        if self.macs_total == 0:
            return 0.0
        return self.macs_performed / self.macs_total


def _stack_streams(streams: Sequence[np.ndarray], lanes: int) -> np.ndarray:
    stacked = np.stack([np.asarray(s, dtype=np.float64) for s in streams])
    if stacked.ndim != 3 or stacked.shape[2] != lanes:
        raise ValueError(
            f"each stream must be a (rows, {lanes}) array, got {stacked.shape[1:]}"
        )
    return stacked


class BaselineTile:
    """Dense tile: one dense-schedule row per cycle regardless of content."""

    def __init__(
        self,
        tile_config: Optional[TileConfig] = None,
        pe_config: Optional[PEConfig] = None,
    ):
        self.tile_config = tile_config or TileConfig()
        self.pe_config = pe_config or PEConfig()

    def process(
        self, a_streams: Sequence[np.ndarray], b_streams: Sequence[np.ndarray]
    ) -> TileResult:
        """Process per-column A streams against per-row B streams."""
        lanes = self.pe_config.lanes
        a = _stack_streams(a_streams, lanes)   # (columns, rows_len, lanes)
        b = _stack_streams(b_streams, lanes)   # (rows, rows_len, lanes)
        if a.shape[1] != b.shape[1]:
            raise ValueError("A and B streams must cover the same dense schedule length")
        outputs = np.einsum("ctl,rtl->rc", a, b)
        rows_len = a.shape[1]
        total = rows_len * lanes * a.shape[0] * b.shape[0]
        return TileResult(
            cycles=rows_len,
            outputs=outputs,
            macs_performed=total,
            macs_total=total,
            stall_cycles=0,
        )


class TensorDashTile:
    """TensorDash tile with B-side sparsity extraction and shared A buffers."""

    def __init__(
        self,
        tile_config: Optional[TileConfig] = None,
        pe_config: Optional[PEConfig] = None,
    ):
        self.tile_config = tile_config or TileConfig()
        self.pe_config = pe_config or PEConfig()
        self.pattern = ConnectivityPattern(
            lanes=self.pe_config.lanes, staging_depth=self.pe_config.staging_depth
        )
        self.scheduler = HardwareScheduler(self.pattern)

    def process(
        self,
        a_streams: Sequence[np.ndarray],
        b_streams: Sequence[np.ndarray],
        compute_outputs: bool = True,
    ) -> TileResult:
        """Process per-column A streams against per-row B streams.

        Runs the :meth:`~repro.core.scheduler.HardwareScheduler.lockstep_schedules`
        oracle over the rows' B-side zero patterns and replays each
        cycle's selections functionally.

        Parameters
        ----------
        a_streams:
            One ``(rows_len, lanes)`` stream per tile column.
        b_streams:
            One ``(rows_len, lanes)`` stream per tile row; sparsity is
            extracted from these.
        compute_outputs:
            When False, skip the functional accumulation and only count
            cycles.
        """
        lanes = self.pe_config.lanes
        a = _stack_streams(a_streams, lanes)
        b = _stack_streams(b_streams, lanes)
        if a.shape[1] != b.shape[1]:
            raise ValueError("A and B streams must cover the same dense schedule length")
        num_columns = a.shape[0]
        num_rows = b.shape[0]
        rows_len = a.shape[1]

        outputs = np.zeros((num_rows, num_columns), dtype=np.float64)
        cycles = 0
        stall_cycles = 0
        effectual_macs = 0
        for position, schedules in self.scheduler.lockstep_schedules(b != 0):
            cycles += 1
            advances = {min(s.advance, rows_len - position) for s in schedules}
            # A stall: some row idles, or rows could have advanced unevenly.
            if len(advances) > 1 or any(s.busy_lanes == 0 for s in schedules):
                stall_cycles += 1
            for row, schedule in enumerate(schedules):
                for selection in schedule.selections:
                    if selection is None:
                        continue
                    step, lane = selection
                    stream_row = position + step
                    effectual_macs += num_columns
                    if compute_outputs:
                        outputs[row] += (
                            a[:, stream_row, lane] * b[row, stream_row, lane]
                        )

        total = rows_len * lanes * num_rows * num_columns
        return TileResult(
            cycles=cycles,
            outputs=outputs,
            macs_performed=effectual_macs,
            macs_total=total,
            stall_cycles=stall_cycles,
        )

    def speedup_over_baseline(
        self,
        a_streams: Sequence[np.ndarray],
        b_streams: Sequence[np.ndarray],
    ) -> float:
        """Cycles of the dense tile divided by this tile's cycles."""
        baseline = BaselineTile(self.tile_config, self.pe_config).process(
            a_streams, b_streams
        )
        result = self.process(a_streams, b_streams, compute_outputs=False)
        if result.cycles == 0:
            return 1.0
        return baseline.cycles / result.cycles
