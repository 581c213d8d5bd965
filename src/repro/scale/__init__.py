"""Multi-device scaling: partition a workload across simulated accelerators.

The rest of the repository models *one* accelerator; this package models
a fleet of them.  A workload's traced epoch is partitioned across N
simulated devices — ``"data"`` (batch sharding plus a weight-gradient
ring all-reduce) or ``"pipeline"`` (contiguous MAC-balanced layer
stages exchanging boundary activations/gradients) — each shard is
simulated through the ordinary :class:`~repro.engine.SimulationEngine`
(so caching applies per device), communication is
priced by a bandwidth/latency :class:`Interconnect` model reusing the
memory hierarchy's bytes-per-cycle machinery, and everything rolls up
into a :class:`ScalingReport` (per-device cycles, communication stalls,
scaling efficiency against ideal linear, bound verdicts).

Entry points: the :class:`ScaleRunner` here, the ``repro scale`` CLI
subcommand, ``ScaleRequest``/``ScaleResult`` in :mod:`repro.api`, and
the ``num_devices`` / ``partition`` / ``link_gbps`` knobs of
:mod:`repro.explore` studies.  See ``docs/scaling.md`` for the model's
assumptions and a worked 1-to-8-device example.
"""

from repro.scale.interconnect import (
    DEFAULT_HOP_LATENCY_CYCLES,
    DEFAULT_LINK_GBPS,
    Interconnect,
)
from repro.scale.partition import (
    PARTITIONS,
    check_partition,
    partition_data,
    partition_pipeline,
    stage_boundary_bytes,
    weight_gradient_bytes,
)
from repro.scale.report import (
    DeviceResult,
    ScalingReport,
    format_scaling_report,
)
from repro.scale.runner import ScaleRunner

__all__ = [
    "DEFAULT_LINK_GBPS",
    "DEFAULT_HOP_LATENCY_CYCLES",
    "Interconnect",
    "PARTITIONS",
    "check_partition",
    "partition_data",
    "partition_pipeline",
    "weight_gradient_bytes",
    "stage_boundary_bytes",
    "DeviceResult",
    "ScalingReport",
    "format_scaling_report",
    "ScaleRunner",
]
