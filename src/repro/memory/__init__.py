"""Memory-hierarchy models: DRAM, zero compression, traffic counting, and
the bandwidth/capacity performance model (:mod:`repro.memory.hierarchy`)
the cycle simulator enforces.

The 16-channel grouped tensor layout is implemented by
:mod:`repro.simulation.streams`; SRAM bytes and energy are counted by
:class:`~repro.memory.traffic.MemoryTraffic` and
:class:`~repro.energy.accounting.EnergyAccountant`."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DRAMModel": "repro.memory.dram",
    "CompressingDMA": "repro.memory.compression",
    "run_length_encode": "repro.memory.compression",
    "run_length_decode": "repro.memory.compression",
    "TrafficCounter": "repro.memory.traffic",
    "MemoryTraffic": "repro.memory.traffic",
    "MemoryHierarchy": "repro.memory.hierarchy",
    "MemoryVerdict": "repro.memory.hierarchy",
    "bytes_per_cycle": "repro.memory.hierarchy",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
