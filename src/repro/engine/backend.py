"""Simulation backends: pluggable execution strategies for the cycle model.

Every backend consumes the same work unit — the boolean operand row groups
produced by :mod:`repro.simulation.streams` — and returns the same
:class:`repro.core.accelerator.OperationResult`.  Backends differ only in
*how* they execute the hierarchical scheduler, never in *what* it decides,
so all of them are bit-identical by construction (and by test):

``reference``
    The readable oracle: advances one tile-row group at a time, one cycle
    at a time, through
    :meth:`repro.core.scheduler.HardwareScheduler.lockstep_schedules` —
    one scheduler step per PE row.  This is the per-PE loop the rest of
    the codebase is validated against.

``vectorized``
    The fast path: packs staging windows into ``uint64`` words and runs
    the :class:`repro.core.scheduler.BatchScheduler` kernel over whole
    batches — every work group of every operation of every layer being
    simulated is scheduled together, amortising the Python interpreter
    over the batch dimension.  Staging windows wider than 64 bits run on
    the oracle.

Memory awareness: backends produce *compute* cycles.  The per-window
staging-refill clamp a finite :class:`~repro.memory.hierarchy.MemoryHierarchy`
imposes lives in the schedulers (every backend path forwards
``Accelerator.refill_limit``), and the operation-level bandwidth
constraint — stall cycles and the compute/memory-bound verdict — is
applied uniformly above this layer by
:meth:`repro.simulation.cycle_sim.LayerSimulator.simulate_layer`.  Backend
choice therefore can never affect memory-aware results either.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.accelerator import Accelerator, OperationResult


def traced_layers(traces: Sequence) -> List:
    """The subset of ``traces`` that carries operand masks to simulate.

    The single definition of the skip rule shared by every backend and by
    the engine's cache partitioning, so they can never disagree on which
    layers are simulated.
    """
    return [t for t in traces if t.activation_mask is not None]


class SimulationBackend:
    """Strategy interface the simulation stack executes through.

    Subclasses must implement :meth:`run_operation`; layer-level
    orchestration (:meth:`simulate_layers`) defaults to a serial loop and
    is overridden by backends that fuse whole layers (``vectorized``).
    """

    #: Backend name (the ``--backend`` value); subclasses override.
    name: str = "abstract"

    def run_operation(
        self, accelerator: Accelerator, op_name: str, groups: np.ndarray
    ) -> OperationResult:
        """Execute one operation's row groups on ``accelerator``.

        ``groups`` is a boolean array of shape ``(num_groups, tile_rows,
        stream_rows, lanes)`` of effectual positions.
        """
        raise NotImplementedError

    def simulate_layers(self, simulator, traces: Sequence) -> List:
        """Simulate many traced layers; default is an in-process loop.

        ``simulator`` is a :class:`repro.simulation.cycle_sim.LayerSimulator`
        bound to this backend; layers without operand masks are skipped,
        mirroring ``LayerSimulator.simulate_layers``.
        """
        return [simulator.simulate_layer(trace) for trace in traced_layers(traces)]

    def describe(self) -> str:
        """One-line summary used by reports."""
        return self.name


class ReferenceBackend(SimulationBackend):
    """Bit-exact oracle: per-PE-row Python loop over the hardware scheduler.

    Deliberately unoptimised — it exists so every faster backend has a
    readable ground truth to be compared against.
    """

    name = "reference"

    def run_operation(
        self, accelerator: Accelerator, op_name: str, groups: np.ndarray
    ) -> OperationResult:
        return accelerator.run_operation(op_name, groups, oracle=True)


class VectorizedBackend(SimulationBackend):
    """Fast path: schedules all of an operation's groups at once via numpy.

    Delegates to :meth:`repro.core.accelerator.Accelerator.run_operation`,
    which drives the packed :class:`repro.core.scheduler.BatchScheduler`
    kernel over the whole ``(groups * tile_rows)`` batch of staging
    windows per cycle.
    """

    name = "vectorized"

    def run_operation(
        self, accelerator: Accelerator, op_name: str, groups: np.ndarray
    ) -> OperationResult:
        return accelerator.run_operation(op_name, groups)

    def simulate_layers(self, simulator, traces: Sequence) -> List:
        """Layer-batched execution: fuse every layer's operations into
        shared ragged scheduling batches.

        Stream extraction runs per layer as usual, but the extracted
        work groups of *all* layers and operations are handed to
        :meth:`repro.core.accelerator.Accelerator.run_operations_batched`
        in one go, so the per-cycle scheduling cost is amortised across
        the whole trace rather than per operation.  Sampling scaling and
        the memory-hierarchy constraint still run per layer in
        ``finalize_layer``, keeping results bit-identical to the serial
        loop.
        """
        layers = traced_layers(traces)
        layer_streams = [simulator.streams_for_trace(trace) for trace in layers]
        units = []
        for index, streams in enumerate(layer_streams):
            for operation, operand_streams in streams.items():
                units.append((index, operation, operand_streams))
        op_results = simulator.accelerator.run_operations_batched(
            [(operation, s.groups) for _, operation, s in units]
        )
        per_layer: List[Dict[str, OperationResult]] = [{} for _ in layers]
        for (index, operation, _), op_result in zip(units, op_results):
            per_layer[index][operation] = op_result
        return [
            simulator.finalize_layer(
                trace,
                per_layer[index],
                {op: s.sampling_factor for op, s in layer_streams[index].items()},
            )
            for index, trace in enumerate(layers)
        ]


#: The execution backends, by name (the CLI ``--backend`` choices).
_BACKENDS: Dict[str, type] = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}


def available_backends() -> List[str]:
    """Names of the execution backends (the CLI ``--backend`` choices)."""
    return sorted(_BACKENDS)


def get_backend(backend: Union[str, SimulationBackend, None]) -> SimulationBackend:
    """Resolve a backend name (or pass through an instance)."""
    if backend is None:
        backend = "vectorized"
    if isinstance(backend, SimulationBackend):
        return backend
    factory = _BACKENDS.get(backend)
    if factory is None:
        raise KeyError(
            f"unknown simulation backend {backend!r}; known: {available_backends()}"
        )
    return factory()
