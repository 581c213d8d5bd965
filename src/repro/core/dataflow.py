"""Work distribution across tiles (the accelerator-level dataflow).

The accelerator has 16 tiles that process a layer cooperatively: work
groups (filter-group x window-group assignments) are distributed across the
tiles, and the layer finishes when the last tile finishes.  Because
TensorDash tiles finish early when their operands are sparse, imbalance in
how sparse each tile's share is adds a second-order synchronisation loss on
top of the intra-tile row imbalance of Fig. 17.  This module models that
assignment and accounts for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.accelerator import Accelerator
from repro.core.config import AcceleratorConfig


@dataclass
class MultiTileResult:
    """Cycle accounting for one operation spread over all tiles."""

    name: str
    per_tile_tensordash_cycles: List[int]
    per_tile_baseline_cycles: List[int]

    @property
    def tensordash_cycles(self) -> int:
        """Latency of the operation: the slowest tile's cycle count."""
        return max(self.per_tile_tensordash_cycles) if self.per_tile_tensordash_cycles else 0

    @property
    def baseline_cycles(self) -> int:
        """Baseline latency under the same work assignment."""
        return max(self.per_tile_baseline_cycles) if self.per_tile_baseline_cycles else 0

    @property
    def speedup(self) -> float:
        if self.tensordash_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.tensordash_cycles

    @property
    def imbalance(self) -> float:
        """Slowest-over-average tile cycles (1.0 = perfectly balanced)."""
        cycles = self.per_tile_tensordash_cycles
        if not cycles or np.mean(cycles) == 0:
            return 1.0
        return float(max(cycles) / np.mean(cycles))


class TileWorkPartitioner:
    """Assigns work groups to tiles and computes accelerator-level latency."""

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.config = config or AcceleratorConfig()
        self.accelerator = Accelerator(self.config)

    def partition(self, num_groups: int) -> List[np.ndarray]:
        """Round-robin group indices per tile (the paper's window/filter split)."""
        assignments = [
            np.arange(tile, num_groups, self.config.num_tiles)
            for tile in range(self.config.num_tiles)
        ]
        return [a for a in assignments if a.size > 0] or [np.arange(0)]

    def run_operation(self, name: str, groups: np.ndarray) -> MultiTileResult:
        """Distribute ``groups`` over the tiles and account per-tile latency.

        ``groups`` is the usual ``(num_groups, tile_rows, stream_rows,
        lanes)`` boolean array of effectual positions.
        """
        per_group_cycles = self.accelerator.group_cycles(groups)
        num_groups, _, stream_rows, _ = np.shape(groups)
        tensordash: List[int] = []
        baseline: List[int] = []
        for assignment in self.partition(num_groups):
            tensordash.append(int(per_group_cycles[assignment].sum()))
            baseline.append(int(assignment.size * stream_rows))
        return MultiTileResult(
            name=name,
            per_tile_tensordash_cycles=tensordash,
            per_tile_baseline_cycles=baseline,
        )
