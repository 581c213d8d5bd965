"""Simulation layer: operand-stream extraction, cycle simulation, the
inference (pre-scheduling) model and the experiment runner.

The potential speedup of Fig. 1 is
:meth:`~repro.simulation.runner.ExperimentRunner.potential_speedups_from_trace`.
"""

from repro.simulation.streams import (
    StreamExtractor,
    forward_streams,
    input_gradient_streams,
    weight_gradient_streams,
)
from repro.simulation.cycle_sim import LayerSimulator, LayerResult
from repro.simulation.inference import FullyConnectedInference, conv_activation_groups
from repro.simulation.runner import ExperimentRunner, ModelResult, simulate_model_training

__all__ = [
    "StreamExtractor",
    "forward_streams",
    "input_gradient_streams",
    "weight_gradient_streams",
    "LayerSimulator",
    "LayerResult",
    "FullyConnectedInference",
    "conv_activation_groups",
    "ExperimentRunner",
    "ModelResult",
    "simulate_model_training",
]
