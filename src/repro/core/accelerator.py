"""The multi-tile accelerator model.

An accelerator is a grid of tiles (16 by default) fed from shared on-chip
AM/BM/CM memories.  Work is distributed across tiles at the granularity of
(filter-group, window-group) assignments; the accelerator's latency for an
operation is the maximum latency across its tiles (they operate in
lockstep on a layer), matching how the paper's simulator accounts for
inter-tile imbalance.

For large workloads the per-value functional simulation in
:class:`repro.core.tile.TensorDashTile` is too slow, so the accelerator
counts cycles only, through the bit-packed
:class:`repro.core.scheduler.BatchScheduler` kernel; its cycle counts are
identical to the per-cycle :class:`~repro.core.scheduler.HardwareScheduler`
oracle (verified by tests) because the scheduler decisions only depend on
the operand zero patterns.  Configurations whose staging window is wider
than 64 bits run on the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler, HardwareScheduler, pack_stream_rows


@dataclass
class OperationResult:
    """Cycle accounting for one operation (one of the three convolutions).

    ``baseline_cycles`` / ``tensordash_cycles`` are *total* cycles: the
    compute cycles the schedulers produce plus any stall cycles the memory
    hierarchy imposed (zero with the default unbounded hierarchy, so the
    totals equal the legacy compute-only counts bit-exactly).  ``bound``
    records the hierarchy's verdict for the TensorDash design:
    ``"compute"`` when the operation ran at its compute rate, ``"dram"`` /
    ``"sram"`` when that level's bandwidth set the pace.
    """

    name: str
    baseline_cycles: int
    tensordash_cycles: int
    macs_total: int
    macs_effectual: int
    #: Memory-stall cycles included in the totals above.
    baseline_stall_cycles: int = 0
    tensordash_stall_cycles: int = 0
    #: Cycles the memory hierarchy demands for this operation's traffic
    #: (the ``ceil(bytes / bytes-per-cycle)`` floor both designs share).
    memory_cycles: int = 0
    #: Effective DRAM bytes charged (compressed traffic plus capacity spill).
    dram_bytes: int = 0
    #: Compute-bound / memory-bound verdict for the TensorDash design.
    bound: str = "compute"

    @property
    def baseline_compute_cycles(self) -> int:
        """Baseline cycles excluding memory stalls."""
        return self.baseline_cycles - self.baseline_stall_cycles

    @property
    def tensordash_compute_cycles(self) -> int:
        """TensorDash cycles excluding memory stalls."""
        return self.tensordash_cycles - self.tensordash_stall_cycles

    @property
    def memory_bound(self) -> bool:
        """True when the hierarchy's bandwidth set this operation's pace."""
        return self.bound != "compute"

    @property
    def stall_fraction(self) -> float:
        """Share of TensorDash's total cycles spent stalled on memory."""
        if self.tensordash_cycles == 0:
            return 0.0
        return self.tensordash_stall_cycles / self.tensordash_cycles

    @property
    def speedup(self) -> float:
        """Baseline cycles divided by TensorDash cycles (stalls included)."""
        if self.tensordash_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.tensordash_cycles

    @property
    def compute_speedup(self) -> float:
        """Speedup on compute cycles alone (memory stalls excluded).

        Matches the unbounded-hierarchy figure except when the
        staging-refill clamp binds (``staging_depth > scratchpad_banks``
        under a bandwidth-limited hierarchy), which inflates the compute
        cycles themselves.
        """
        if self.tensordash_compute_cycles == 0:
            return 1.0
        return self.baseline_compute_cycles / self.tensordash_compute_cycles

    @property
    def potential_speedup(self) -> float:
        """Work-reduction upper bound: total MACs over effectual MACs."""
        if self.macs_effectual == 0:
            return float(self.macs_total) if self.macs_total else 1.0
        return self.macs_total / self.macs_effectual


class Accelerator:
    """Cycle-level model of the full TensorDash accelerator.

    Parameters
    ----------
    config:
        Accelerator configuration; ``config.power_gated`` turns the model
        into the dense baseline (TensorDash components disabled).
    """

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.config = config or AcceleratorConfig()
        self.pattern = ConnectivityPattern(
            lanes=self.config.pe.lanes,
            staging_depth=self.config.pe.staging_depth,
        )
        self.scheduler = HardwareScheduler(self.pattern)
        self.batch_scheduler = BatchScheduler(self.pattern)
        # With a bandwidth-limited memory hierarchy the staging buffers can
        # refill at most ``scratchpad_banks`` rows per cycle (one row per
        # bank); without one — including capacity-only hierarchies, whose
        # sole effect is extra DRAM bytes — the legacy unlimited-refill
        # behaviour keeps cycle counts reproduced bit-exactly.  Table 2
        # banks the scratchpads as deep as the staging buffers, so the
        # limit only binds for exotic geometries (staging depth > banks).
        if self.config.hierarchy.has_bandwidth_limit:
            self.refill_limit: Optional[int] = self.config.memory.scratchpad_banks
        else:
            self.refill_limit = None

    # ------------------------------------------------------------------
    def group_cycles(self, groups, oracle: bool = False) -> np.ndarray:
        """Cycles per lockstep work group of one operation.

        Parameters
        ----------
        groups:
            Boolean array of shape ``(num_groups, tile_rows, stream_rows,
            lanes)`` — or a sequence of equal-shape ``(tile_rows,
            stream_rows, lanes)`` groups — of effectual positions.  Each
            group's rows advance in lockstep (shared A-side staging
            buffers); different groups are independent.
        oracle:
            Count with the per-cycle
            :meth:`~repro.core.scheduler.HardwareScheduler.group_cycles`
            oracle instead of the packed kernel.  Configurations whose
            staging window exceeds 64 bits always use the oracle.

        Returns
        -------
        numpy.ndarray
            Per-group cycle counts.  Summing them gives the operation's
            TensorDash cycles; summing the per-group row counts gives the
            baseline's.
        """
        groups = _as_groups(groups)
        num_groups, tile_rows, stream_rows, lanes = groups.shape
        if self.config.power_gated:
            return np.full(num_groups, stream_rows, dtype=np.int64)
        if oracle or not self.batch_scheduler.packable:
            return np.array(
                [self.scheduler.group_cycles(g, self.refill_limit) for g in groups],
                dtype=np.int64,
            )
        streams = num_groups * tile_rows
        packed = np.zeros(
            (streams, stream_rows + self.config.pe.staging_depth), dtype=np.uint64
        )
        packed[:, :stream_rows] = pack_stream_rows(
            groups.reshape(streams, stream_rows, lanes)
        )
        return self.batch_scheduler.group_cycles_packed(
            packed, tile_rows, np.full(num_groups, stream_rows),
            advance_limit=self.refill_limit,
        )

    def run_operation(
        self, name: str, groups, oracle: bool = False
    ) -> OperationResult:
        """Run one operation expressed as per-tile row groups.

        Parameters
        ----------
        name:
            Operation label (``"AxW"``, ``"AxG"`` or ``"WxG"``).
        groups:
            As for :meth:`group_cycles`.  Groups are processed back to
            back (or on parallel tiles — the relative speedup is
            unaffected because the baseline is scaled identically).
        oracle:
            Forwarded to :meth:`group_cycles`.
        """
        groups = _as_groups(groups)
        return self._result(
            name, groups, int(self.group_cycles(groups, oracle=oracle).sum())
        )

    def _result(
        self, name: str, groups: np.ndarray, tensordash_cycles: int
    ) -> OperationResult:
        num_groups, tile_rows, stream_rows, lanes = groups.shape
        return OperationResult(
            name=name,
            baseline_cycles=num_groups * stream_rows,
            tensordash_cycles=tensordash_cycles,
            macs_total=num_groups * tile_rows * stream_rows * lanes,
            macs_effectual=int(groups.sum()),
        )

    #: Upper bound on the ``uint64`` words one merged scheduling bucket may
    #: hold (~64 MiB).  Units are packed greedily in ascending stream-row
    #: order, so each bucket mixes similar lengths and padding stays small.
    BATCH_WORD_BUDGET = 8_000_000

    def run_operations_batched(
        self, units: Sequence[Tuple[str, np.ndarray]]
    ) -> List[OperationResult]:
        """Run many operations through shared ragged scheduling batches.

        ``units`` is a sequence of ``(name, groups)`` pairs as accepted by
        :meth:`run_operation`; the units may come from different
        operations *and different layers* — each work group is an
        independent lockstep unit, so fusing them into one batch changes
        nothing about the schedule while amortising the per-cycle
        dispatch cost over the whole batch.  Results are returned in
        input order and are bit-identical to calling :meth:`run_operation`
        per unit.

        Units are sorted by stream-row count and merged into buckets of
        at most :data:`BATCH_WORD_BUDGET` packed words *after padding*,
        with padding capped at half a bucket — this bounds peak memory
        and keeps the first-touch cost of fresh allocations proportional
        to the useful data.  Configurations whose staging window exceeds
        64 bits run each unit on the oracle.
        """
        units = [(name, _as_groups(groups)) for name, groups in units]
        if not self.batch_scheduler.packable or self.config.power_gated:
            return [self.run_operation(name, groups) for name, groups in units]
        results: List[Optional[OperationResult]] = [None] * len(units)
        tile_rows = {groups.shape[1] for _, groups in units if groups.shape[0]}
        if len(tile_rows) > 1:
            raise ValueError(f"units mix tile_rows values: {sorted(tile_rows)}")

        depth = self.config.pe.staging_depth
        order = sorted(range(len(units)), key=lambda i: units[i][1].shape[2])
        bucket: List[int] = []
        bucket_streams = 0
        bucket_words = 0
        for index in order:
            num_groups, rows_in_tile, stream_rows, _ = units[index][1].shape
            if num_groups == 0 or stream_rows == 0:
                results[index] = self.run_operation(*units[index])
                continue
            streams = num_groups * rows_in_tile
            words = streams * (stream_rows + depth)
            # Ascending sort makes the candidate's stream_rows the bucket
            # maximum, so this is the exact post-padding allocation size.
            padded = (bucket_streams + streams) * (stream_rows + depth)
            if bucket and (
                padded > self.BATCH_WORD_BUDGET
                or padded > 2 * (bucket_words + words)
            ):
                self._run_bucket(bucket, units, results)
                bucket, bucket_streams, bucket_words = [], 0, 0
            bucket.append(index)
            bucket_streams += streams
            bucket_words += words
        if bucket:
            self._run_bucket(bucket, units, results)
        return results

    def _run_bucket(
        self,
        bucket: List[int],
        units: List[Tuple[str, np.ndarray]],
        results: List[Optional[OperationResult]],
    ) -> None:
        """Schedule one merged bucket and scatter its per-unit results."""
        depth = self.config.pe.staging_depth
        lanes = self.config.pe.lanes
        shapes = [units[i][1].shape for i in bucket]
        tile_rows = shapes[0][1]
        width = max(shape[2] for shape in shapes) + depth
        total_groups = sum(shape[0] for shape in shapes)
        packed = np.zeros((total_groups * tile_rows, width), dtype=np.uint64)
        rows_per_group = np.empty(total_groups, dtype=np.int64)
        offset = 0
        for index, (num_groups, _, stream_rows, _) in zip(bucket, shapes):
            packed[
                offset * tile_rows : (offset + num_groups) * tile_rows, :stream_rows
            ] = pack_stream_rows(units[index][1].reshape(-1, stream_rows, lanes))
            rows_per_group[offset : offset + num_groups] = stream_rows
            offset += num_groups
        cycles = self.batch_scheduler.group_cycles_packed(
            packed, tile_rows, rows_per_group, advance_limit=self.refill_limit
        )
        offset = 0
        for index, (num_groups, *_) in zip(bucket, shapes):
            name, groups = units[index]
            results[index] = self._result(
                name, groups, int(cycles[offset : offset + num_groups].sum())
            )
            offset += num_groups

    def describe(self) -> str:
        """Summary string for reports."""
        return self.config.describe()


def _as_groups(groups) -> np.ndarray:
    """An operation's work groups as one boolean 4D array."""
    groups = np.asarray(groups, dtype=bool)
    if groups.ndim != 4:
        raise ValueError(
            f"groups must be 4D (groups, tile_rows, stream_rows, lanes), got {groups.shape}"
        )
    return groups
