"""Simulation layer: operand-stream extraction, cycle simulation, the
inference (pre-scheduling) model and the experiment runner.

The potential speedup of Fig. 1 is
:meth:`~repro.simulation.runner.ExperimentRunner.potential_speedups_from_trace`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "StreamExtractor": "repro.simulation.streams",
    "forward_streams": "repro.simulation.streams",
    "input_gradient_streams": "repro.simulation.streams",
    "weight_gradient_streams": "repro.simulation.streams",
    "LayerSimulator": "repro.simulation.cycle_sim",
    "LayerResult": "repro.simulation.cycle_sim",
    "FullyConnectedInference": "repro.simulation.inference",
    "conv_activation_groups": "repro.simulation.inference",
    "ExperimentRunner": "repro.simulation.runner",
    "ModelResult": "repro.simulation.runner",
    "simulate_model_training": "repro.simulation.runner",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
