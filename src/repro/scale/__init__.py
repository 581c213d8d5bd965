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

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_LINK_GBPS": "repro.scale.interconnect",
    "DEFAULT_HOP_LATENCY_CYCLES": "repro.scale.interconnect",
    "Interconnect": "repro.scale.interconnect",
    "PARTITIONS": "repro.scale.partition",
    "check_partition": "repro.scale.partition",
    "partition_data": "repro.scale.partition",
    "partition_pipeline": "repro.scale.partition",
    "weight_gradient_bytes": "repro.scale.partition",
    "stage_boundary_bytes": "repro.scale.partition",
    "DeviceResult": "repro.scale.report",
    "ScalingReport": "repro.scale.report",
    "format_scaling_report": "repro.scale.report",
    "ScaleRunner": "repro.scale.runner",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
