"""Layer-level cycle simulation of the three training convolutions.

The :class:`LayerSimulator` turns a traced layer (operand non-zero masks
plus convolution hyper-parameters) into operand streams, runs them through
the accelerator model and returns baseline / TensorDash cycle counts, MAC
counts and memory traffic for each of the paper's three operations.

There is one execution path.  :meth:`LayerSimulator.simulate_layers`
fuses the work groups of every layer and operation into shared ragged
batches of the bit-packed :class:`~repro.core.scheduler.BatchScheduler`
kernel (staging windows wider than 64 bits run on the per-cycle oracle).
:meth:`LayerSimulator.simulate_layer` runs one layer on its own and, with
``oracle=True``, through the oracle loop
(:meth:`~repro.core.scheduler.HardwareScheduler.lockstep_schedules`) —
the readable reference the fused path is tested and benchmarked against.
The scheduler decides only from operand zero patterns, so both give
bit-identical cycle counts, MAC counts and traffic.  For cross-run reuse,
wrap the simulator in a :class:`repro.engine.SimulationEngine` with a
``cache_dir`` — results are then cached on disk keyed by (config hash,
trace hash) and invalidated structurally whenever either input changes
(the memory-hierarchy parameters are part of the config hash, so
differing hierarchies can never collide in the cache).

Memory awareness: after the scheduler returns an operation's compute
cycles, the simulator consults ``config.hierarchy``
(:class:`repro.memory.hierarchy.MemoryHierarchy`) with the operation's
byte counts and records the bandwidth-constrained totals —
``max(compute_cycles, ceil(bytes / bytes_per_cycle))`` per level — plus
stall cycles and a compute/memory-bound verdict in each
:class:`OperationResult`.  The default hierarchy is unbounded, which
leaves every cycle count bit-identical to the compute-only model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.accelerator import Accelerator, OperationResult
from repro.core.config import AcceleratorConfig
from repro.memory.traffic import MemoryTraffic, TrafficCounter
from repro.simulation.streams import OperandStreams, StreamExtractor
from repro.training.tracing import LayerTrace


def traced_layers(traces: Sequence[LayerTrace]) -> List[LayerTrace]:
    """The subset of ``traces`` that carries operand masks to simulate.

    The single definition of the skip rule shared by the simulator and by
    the engine's cache partitioning, so they can never disagree on which
    layers are simulated.
    """
    return [t for t in traces if t.activation_mask is not None]


class OperationKind(str, Enum):
    """The three per-layer training operations."""

    FORWARD = "AxW"
    INPUT_GRADIENT = "AxG"
    WEIGHT_GRADIENT = "WxG"


@dataclass
class LayerResult:
    """Simulation outcome of one traced layer."""

    layer_name: str
    operations: Dict[str, OperationResult] = field(default_factory=dict)
    traffic: Dict[str, MemoryTraffic] = field(default_factory=dict)

    def speedup(self, operation: Optional[str] = None) -> float:
        """Speedup for one operation, or overall when ``operation`` is None."""
        if operation is not None:
            return self.operations[operation].speedup
        baseline = sum(op.baseline_cycles for op in self.operations.values())
        tensordash = sum(op.tensordash_cycles for op in self.operations.values())
        return baseline / tensordash if tensordash else 1.0

    @property
    def baseline_cycles(self) -> int:
        return sum(op.baseline_cycles for op in self.operations.values())

    @property
    def tensordash_cycles(self) -> int:
        return sum(op.tensordash_cycles for op in self.operations.values())

    @property
    def stall_cycles(self) -> int:
        """TensorDash memory-stall cycles summed across operations."""
        return sum(op.tensordash_stall_cycles for op in self.operations.values())

    @property
    def baseline_stall_cycles(self) -> int:
        """Baseline memory-stall cycles summed across operations."""
        return sum(op.baseline_stall_cycles for op in self.operations.values())

    def stall_fraction(self) -> float:
        """Share of TensorDash's total cycles spent stalled on memory."""
        total = self.tensordash_cycles
        return self.stall_cycles / total if total else 0.0

    def memory_bound_operations(self) -> List[str]:
        """Names of the operations whose pace memory bandwidth set."""
        return [name for name, op in self.operations.items() if op.memory_bound]

    def effective_dram_bytes(self) -> int:
        """DRAM bytes the bandwidth model charged (incl. capacity spill)."""
        return sum(op.dram_bytes for op in self.operations.values())

    def total_traffic(self) -> MemoryTraffic:
        """Summed memory traffic across operations."""
        total = MemoryTraffic()
        for traffic in self.traffic.values():
            total = total + traffic
        return total


class LayerSimulator:
    """Simulates traced layers on the baseline and TensorDash accelerators."""

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = 256,
        max_batch: Optional[int] = 4,
    ):
        self.config = config or AcceleratorConfig()
        self.accelerator = Accelerator(self.config)
        self.max_groups = max_groups
        self.max_batch = max_batch
        self.extractor = StreamExtractor(
            tile_rows=self.config.tile.rows,
            lanes=self.config.pe.lanes,
            max_groups=max_groups,
            max_batch=max_batch,
        )
        value_bytes = self.config.pe.value_bits // 8
        self.traffic_counter = TrafficCounter(
            value_bytes=value_bytes,
            compress_offchip=self.config.memory.compress_offchip,
        )

    # ------------------------------------------------------------------
    def streams_for_trace(self, trace: LayerTrace) -> Dict[str, OperandStreams]:
        """Operand streams per traced operation (empty if nothing traced).

        :meth:`simulate_layers` extracts every layer's streams up front,
        fuses them into large scheduling batches, and then hands the raw
        per-operation results back to :meth:`finalize_layer`.
        """
        if trace.activation_mask is None:
            return {}
        if trace.layer_type == "conv":
            return self.extractor.conv_streams(
                trace.activation_mask,
                trace.output_gradient_mask,
                kernel=trace.kernel,
                stride=trace.stride,
                padding=trace.padding,
            )
        return self.extractor.fc_streams(
            trace.activation_mask, trace.output_gradient_mask
        )

    def _traffic_for_trace(self, trace: LayerTrace) -> Dict[str, MemoryTraffic]:
        """Approximate memory traffic per operation from the traced masks."""
        traffic: Dict[str, MemoryTraffic] = {}
        activations = trace.activation_mask
        gradients = trace.output_gradient_mask
        weights = trace.weight_mask
        if activations is None or weights is None:
            return traffic
        act = activations.astype(np.float32)
        wts = weights.astype(np.float32)
        out_size = int(act.shape[0]) * int(weights.shape[0])
        traffic["AxW"] = self.traffic_counter.operation_traffic(
            {"A": act, "W": wts}, out_size
        )
        if gradients is not None:
            grd = gradients.astype(np.float32)
            traffic["AxG"] = self.traffic_counter.operation_traffic(
                {"GO": grd, "W": wts}, int(act.size)
            )
            traffic["WxG"] = self.traffic_counter.operation_traffic(
                {"GO": grd, "A": act}, int(weights.size)
            )
        return traffic

    def _constrain(
        self, op_result: OperationResult, traffic: Optional[MemoryTraffic]
    ) -> OperationResult:
        """Impose the configured memory hierarchy on one operation.

        Both designs share the hierarchy (and the byte counts), so the
        baseline and TensorDash compute cycles are constrained by the same
        per-level memory-cycle floor; the recorded verdict and effective
        DRAM bytes describe the TensorDash design.  With the default
        unbounded hierarchy the totals are returned unchanged (zero
        stalls), keeping the legacy cycle counts bit-exact.
        """
        if traffic is None:
            return op_result
        hierarchy = self.config.hierarchy
        frequency = self.config.frequency_mhz
        base = hierarchy.constrain(op_result.baseline_cycles, traffic, frequency)
        dash = hierarchy.constrain(op_result.tensordash_cycles, traffic, frequency)
        return OperationResult(
            name=op_result.name,
            baseline_cycles=base.total_cycles,
            tensordash_cycles=dash.total_cycles,
            macs_total=op_result.macs_total,
            macs_effectual=op_result.macs_effectual,
            baseline_stall_cycles=base.stall_cycles,
            tensordash_stall_cycles=dash.stall_cycles,
            memory_cycles=max(dash.dram_cycles, dash.sram_cycles),
            dram_bytes=dash.dram_bytes,
            bound=dash.bound,
        )

    def finalize_layer(
        self,
        trace: LayerTrace,
        op_results: Dict[str, OperationResult],
        sampling_factors: Dict[str, float],
    ) -> LayerResult:
        """Assemble a :class:`LayerResult` from raw per-operation results.

        When the stream extractor subsamples work groups, the measured
        cycle and MAC counts are scaled back up by the sampling factor so
        that they stay commensurate with the (unsampled) memory-traffic
        estimates used by the energy accounting.  Speedups are ratios and
        are unaffected by the scaling.  The memory hierarchy is consulted
        *after* scaling, so the bandwidth constraint sees full-operation
        compute cycles against full-operation byte counts.
        """
        result = LayerResult(layer_name=trace.layer_name)
        result.traffic = self._traffic_for_trace(trace)
        for operation, op_result in op_results.items():
            factor = sampling_factors.get(operation, 1.0)
            if factor > 1.0:
                op_result = OperationResult(
                    name=op_result.name,
                    baseline_cycles=int(round(op_result.baseline_cycles * factor)),
                    tensordash_cycles=int(round(op_result.tensordash_cycles * factor)),
                    macs_total=int(round(op_result.macs_total * factor)),
                    macs_effectual=int(round(op_result.macs_effectual * factor)),
                )
            result.operations[operation] = self._constrain(
                op_result, result.traffic.get(operation)
            )
        return result

    def simulate_layer(self, trace: LayerTrace, oracle: bool = False) -> LayerResult:
        """Simulate all traced operations of one layer on its own.

        ``oracle=True`` counts cycles with the per-cycle oracle loop
        instead of the packed kernel (see
        :meth:`repro.core.accelerator.Accelerator.run_operation`): the
        reference :meth:`simulate_layers` is checked against.
        """
        streams = self.streams_for_trace(trace)
        op_results = {
            operation: self.accelerator.run_operation(
                operation, operand_streams.groups, oracle=oracle
            )
            for operation, operand_streams in streams.items()
        }
        factors = {
            operation: operand_streams.sampling_factor
            for operation, operand_streams in streams.items()
        }
        return self.finalize_layer(trace, op_results, factors)

    def simulate_layers(self, traces: Sequence[LayerTrace]) -> List[LayerResult]:
        """Simulate every traced layer; layers without masks are skipped.

        Stream extraction runs per layer, but the extracted work groups of
        *all* layers and operations are handed to
        :meth:`repro.core.accelerator.Accelerator.run_operations_batched`
        in one go, so the per-cycle scheduling cost is amortised across
        the whole trace rather than per operation.  Sampling scaling and
        the memory-hierarchy constraint still run per layer in
        :meth:`finalize_layer`, keeping results bit-identical to
        :meth:`simulate_layer`.  Results come back in trace order.
        """
        layers = traced_layers(traces)
        layer_streams = [self.streams_for_trace(trace) for trace in layers]
        units = [
            (index, operation, operand_streams)
            for index, streams in enumerate(layer_streams)
            for operation, operand_streams in streams.items()
        ]
        op_results = self.accelerator.run_operations_batched(
            [(operation, s.groups) for _, operation, s in units]
        )
        per_layer: List[Dict[str, OperationResult]] = [{} for _ in layers]
        for (index, operation, _), op_result in zip(units, op_results):
            per_layer[index][operation] = op_result
        return [
            self.finalize_layer(
                trace,
                per_layer[index],
                {op: s.sampling_factor for op, s in layer_streams[index].items()},
            )
            for index, trace in enumerate(layers)
        ]
