"""Workload partitioning strategies for multi-device scaling.

A partition turns one traced epoch (:class:`~repro.training.tracing.EpochTrace`)
into per-device *shards* — smaller ``EpochTrace`` objects that the
:class:`~repro.engine.SimulationEngine` can simulate exactly like any
other trace, so the result cache and the session memo both apply per
shard.

Two strategies cover the common training layouts:

``"data"``
    Batch sharding.  Every device holds the full model; the traced batch
    dimension of the activation and output-gradient masks is split
    contiguously across devices (``numpy.array_split`` semantics: sizes
    differ by at most one sample).  Weight masks are replicated and the
    per-layer MAC counts are scaled by the assigned sample share.
    Devices left without samples for a layer simply skip it — the
    resulting load imbalance is real, and is what the scaling report's
    efficiency number surfaces.  Synchronising the model requires a
    weight-gradient all-reduce, priced by the interconnect model.

``"pipeline"``
    Layer pipelining.  The traced layers are cut into contiguous stages,
    balanced by per-layer MAC counts, one stage per device.  Each stage
    keeps its layers' full traced batch; the activations crossing each
    stage boundary (forward) and the matching activation gradients
    (backward) are priced as point-to-point transfers.

Both strategies return the original trace object untouched for
``num_devices == 1``, so the single-device degenerate case produces the
same trace fingerprints — and therefore the same engine cache keys and
bit-identical cycle counts — as plain simulation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.training.tracing import EpochTrace, LayerTrace

#: The supported partitioning strategies, in documentation order.
PARTITIONS: Tuple[str, ...] = ("data", "pipeline")


def check_partition(name: str) -> str:
    """Validate a partition-strategy name and return it unchanged."""
    if name not in PARTITIONS:
        raise ValueError(
            f"unknown partition strategy {name!r}; known: {list(PARTITIONS)}"
        )
    return name


def _sparsity(mask: Optional[np.ndarray]) -> float:
    if mask is None or mask.size == 0:
        return 0.0
    return 1.0 - np.count_nonzero(mask) / mask.size


def _slice_batch(
    mask: Optional[np.ndarray], indices: np.ndarray
) -> Optional[np.ndarray]:
    """One mask restricted to the assigned batch samples (``None`` safe)."""
    if mask is None:
        return None
    valid = indices[indices < mask.shape[0]]
    if valid.size == 0:
        return None
    return mask[valid]


def _shard_layer(
    layer: LayerTrace, device: int, num_devices: int
) -> Optional[LayerTrace]:
    """The slice of one traced layer assigned to ``device``, or ``None``.

    The batch dimension (the leading axis of the activation mask) is
    split contiguously; a device whose slice is empty does not hold this
    layer.  Layers without an activation mask carry nothing to simulate
    and are dropped from every shard (matching the engine's skip rule).
    """
    mask = layer.activation_mask
    if mask is None:
        return None
    batch = int(mask.shape[0])
    indices = np.array_split(np.arange(batch), num_devices)[device]
    if indices.size == 0:
        return None
    activation = _slice_batch(mask, indices)
    gradient = _slice_batch(layer.output_gradient_mask, indices)
    share = indices.size / batch
    return replace(
        layer,
        activation_mask=activation,
        output_gradient_mask=gradient,
        activation_sparsity=_sparsity(activation),
        gradient_sparsity=(
            _sparsity(gradient)
            if gradient is not None
            else layer.gradient_sparsity
        ),
        macs=int(round(layer.macs * share)),
    )


def partition_data(epoch: EpochTrace, num_devices: int) -> List[EpochTrace]:
    """Batch-shard one traced epoch across ``num_devices`` devices.

    Returns one shard per device.  ``num_devices == 1`` returns the
    original trace object itself, keeping fingerprints (and engine cache
    keys) identical to plain simulation.
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if num_devices == 1:
        return [epoch]
    shards = []
    for device in range(num_devices):
        layers = [
            shard
            for layer in epoch.layers
            if (shard := _shard_layer(layer, device, num_devices)) is not None
        ]
        shards.append(EpochTrace(epoch=epoch.epoch, layers=layers))
    return shards


def partition_pipeline(epoch: EpochTrace, num_devices: int) -> List[EpochTrace]:
    """Cut one traced epoch into contiguous, MAC-balanced pipeline stages.

    Every layer lands in exactly one stage, stages preserve layer order,
    and the cut points are chosen so each stage's cumulative MAC count is
    as close as possible to its ideal share.  With more devices than
    layers the trailing stages are empty (and idle — visible in the
    report).  ``num_devices == 1`` returns the original trace object.
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if num_devices == 1:
        return [epoch]
    layers = epoch.layers
    costs = [max(int(layer.macs), 1) for layer in layers]
    total = sum(costs)
    stages: List[List[LayerTrace]] = [[] for _ in range(num_devices)]
    cumulative = 0
    stage = 0
    for layer, cost in zip(layers, costs):
        # Advance to the next stage when this layer starts past the
        # current stage's ideal end — never past the last stage, and
        # never leaving more layers than stages behind.
        while (
            stage < num_devices - 1
            and cumulative >= total * (stage + 1) / num_devices
        ):
            stage += 1
        stages[stage].append(layer)
        cumulative += cost
    return [EpochTrace(epoch=epoch.epoch, layers=stage) for stage in stages]


# ----------------------------------------------------------------------
# communication volumes

def weight_gradient_bytes(epoch: EpochTrace, value_bytes: int) -> int:
    """Bytes of weight gradients one data-parallel device must all-reduce.

    The full (dense) parameter gradient is exchanged, one value per
    traced weight — the standard synchronous data-parallel cost.
    """
    return sum(
        layer.weight_mask.size
        for layer in epoch.layers
        if layer.weight_mask is not None
    ) * value_bytes


def stage_boundary_bytes(
    stages: List[EpochTrace], value_bytes: int
) -> List[int]:
    """Activation bytes crossing each pipeline-stage boundary.

    Entry ``i`` is the transfer between stage ``i`` and stage ``i + 1``:
    the input activations of the downstream stage's first traced layer
    (the same volume travels backward as activation gradients).  Empty
    downstream stages receive nothing.
    """
    boundaries = []
    for downstream in stages[1:]:
        nbytes = 0
        for layer in downstream.layers:
            if layer.activation_mask is not None:
                nbytes = int(layer.activation_mask.size) * value_bytes
                break
        boundaries.append(nbytes)
    return boundaries
