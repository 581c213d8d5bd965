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
  storage).
* :mod:`repro.core.dataflow` — work partitioning across tiles.
* :mod:`repro.core.config` — Table 2 default configurations.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AcceleratorConfig": "repro.core.config",
    "PEConfig": "repro.core.config",
    "TileConfig": "repro.core.config",
    "ConnectivityPattern": "repro.core.interconnect",
    "HardwareScheduler": "repro.core.scheduler",
    "Schedule": "repro.core.scheduler",
    "BatchScheduler": "repro.core.scheduler",
    "BaselinePE": "repro.core.pe",
    "TensorDashPE": "repro.core.pe",
    "BaselineTile": "repro.core.tile",
    "TensorDashTile": "repro.core.tile",
    "Accelerator": "repro.core.accelerator",
    "PreScheduler": "repro.core.backside",
    "ScheduledTensor": "repro.core.backside",
    "TileWorkPartitioner": "repro.core.dataflow",
    "MultiTileResult": "repro.core.dataflow",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
