"""The TensorDash hardware model: the paper's primary contribution.

The package models, at cycle level, the components described in Sections 3
and 3.1-3.7 of the paper:

* :mod:`repro.core.interconnect` — the sparse per-lane multiplexer
  connectivity (lookahead / lookaside movement options).
* :mod:`repro.core.scheduler` — the hierarchical combinational hardware
  scheduler: the per-cycle oracle and its bit-packed batch kernel.
* :mod:`repro.core.pe` — baseline (dense) and TensorDash processing elements.
* :mod:`repro.core.tile` — grids of PEs with shared B-side scheduling and
  inter-PE synchronisation stalls.
* :mod:`repro.core.accelerator` — the 16-tile accelerator.
* :mod:`repro.core.backside` — pre-scheduling (compressed, scheduled-form
  storage) and the back-side scheduler.
* :mod:`repro.core.power_gating` — per-layer sparsity monitoring and
  power-gating decisions for models with no sparsity.
* :mod:`repro.core.config` — Table 2 default configurations.
"""

from repro.core.config import AcceleratorConfig, PEConfig, TileConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import HardwareScheduler, Schedule, BatchScheduler
from repro.core.pe import BaselinePE, TensorDashPE
from repro.core.tile import BaselineTile, TensorDashTile
from repro.core.accelerator import Accelerator
from repro.core.backside import PreScheduler, ScheduledTensor, BacksideScheduler
from repro.core.dataflow import TileWorkPartitioner, MultiTileResult
from repro.core.power_gating import SparsityMonitor, PowerGateController

__all__ = [
    "AcceleratorConfig",
    "PEConfig",
    "TileConfig",
    "ConnectivityPattern",
    "HardwareScheduler",
    "Schedule",
    "BatchScheduler",
    "BaselinePE",
    "TensorDashPE",
    "BaselineTile",
    "TensorDashTile",
    "Accelerator",
    "PreScheduler",
    "ScheduledTensor",
    "BacksideScheduler",
    "TileWorkPartitioner",
    "MultiTileResult",
    "SparsityMonitor",
    "PowerGateController",
]
