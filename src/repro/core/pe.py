"""Processing elements: the dense baseline PE and the TensorDash PE.

Both PEs perform ``lanes`` MAC operations per cycle, all accumulating into
a single output value (Fig. 6).  The TensorDash PE (Fig. 8) adds staging
buffers, the sparse interconnect and the hardware scheduler, letting it
retire up to ``staging_depth`` dense rows per cycle when sparsity allows.

The PE models are *functional*: they compute the actual accumulated dot
product as well as the cycle count, so tests can verify that skipping
ineffectual MACs never changes the result (the paper's "does not affect
numerical fidelity" property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import PEConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import HardwareScheduler, Schedule


@dataclass
class PEResult:
    """Outcome of processing one operand-stream pair through a PE."""

    cycles: int
    output: float
    macs_performed: int
    macs_total: int

    @property
    def skipped_macs(self) -> int:
        """MAC slots eliminated relative to the dense schedule."""
        return self.macs_total - self.macs_performed


def _validate_streams(a_stream: np.ndarray, b_stream: np.ndarray, lanes: int) -> None:
    if a_stream.shape != b_stream.shape:
        raise ValueError(
            f"operand streams must have identical shapes, got "
            f"{a_stream.shape} and {b_stream.shape}"
        )
    if a_stream.ndim != 2 or a_stream.shape[1] != lanes:
        raise ValueError(
            f"streams must be (rows, {lanes}) arrays, got shape {a_stream.shape}"
        )


class BaselinePE:
    """The dense baseline PE: one dense-schedule row per cycle."""

    def __init__(self, config: Optional[PEConfig] = None):
        self.config = config or PEConfig()

    def process(self, a_stream: np.ndarray, b_stream: np.ndarray) -> PEResult:
        """Process aligned operand streams; cycles equal the number of rows."""
        a_stream = np.asarray(a_stream, dtype=np.float64)
        b_stream = np.asarray(b_stream, dtype=np.float64)
        _validate_streams(a_stream, b_stream, self.config.lanes)
        rows = a_stream.shape[0]
        output = float(np.sum(a_stream * b_stream))
        total = rows * self.config.lanes
        return PEResult(cycles=rows, output=output, macs_performed=total, macs_total=total)


class TensorDashPE:
    """The TensorDash PE: staging buffers + sparse interconnect + scheduler.

    Parameters
    ----------
    config:
        PE geometry.  ``config.two_side`` selects whether the scheduler sees
        zeros on both operands (per-PE scheduling, Section 3.1) or only on
        the B operand (the tile configuration of Section 3.3).
    """

    def __init__(self, config: Optional[PEConfig] = None):
        self.config = config or PEConfig()
        self.pattern = ConnectivityPattern(
            lanes=self.config.lanes, staging_depth=self.config.staging_depth
        )
        self.scheduler = HardwareScheduler(self.pattern)

    def process(
        self, a_stream: np.ndarray, b_stream: np.ndarray
    ) -> Tuple[PEResult, List[Schedule]]:
        """Process aligned operand streams, skipping ineffectual pairs.

        Returns the functional/cycle result plus the per-cycle schedules
        (useful for inspecting MS/AS signal behaviour in tests).  The
        cycles come from the scheduler oracle run as a one-row lockstep
        group; the PE adds the MAC accumulate for each selection.
        """
        a_stream = np.asarray(a_stream, dtype=np.float64)
        b_stream = np.asarray(b_stream, dtype=np.float64)
        _validate_streams(a_stream, b_stream, self.config.lanes)
        if self.config.two_side:
            effectual = (a_stream != 0) & (b_stream != 0)
        else:
            effectual = b_stream != 0

        output = 0.0
        macs_performed = 0
        schedules: List[Schedule] = []
        for position, (schedule,) in self.scheduler.lockstep_schedules(
            effectual[None]
        ):
            for selection in schedule.selections:
                if selection is None:
                    continue
                step, lane = selection
                row = position + step
                output += float(a_stream[row, lane]) * float(b_stream[row, lane])
                macs_performed += 1
            schedules.append(schedule)

        result = PEResult(
            cycles=len(schedules),
            output=output,
            macs_performed=macs_performed,
            macs_total=a_stream.shape[0] * self.config.lanes,
        )
        return result, schedules

    def speedup_over_baseline(
        self, a_stream: np.ndarray, b_stream: np.ndarray
    ) -> float:
        """Convenience: cycles of the baseline PE divided by this PE's cycles."""
        baseline = BaselinePE(self.config).process(a_stream, b_stream)
        result, _ = self.process(a_stream, b_stream)
        if result.cycles == 0:
            return 1.0
        return baseline.cycles / result.cycles
