"""A small, from-scratch numpy neural-network training framework.

The framework exists to generate realistic operand sparsity traces
(activations, weights and gradients) for the TensorDash hardware model.  It
implements forward and backward passes for the layer types used by the
paper's model zoo: 2D convolutions, fully-connected layers, ReLU, 2D batch
normalisation, pooling, dropout and embeddings.

Every layer caches the operands that participate in the three training
convolutions described in the paper:

* ``O = W * A``   (forward pass),
* ``GA = GO * W`` (input-gradient computation), and
* ``GW = GO * A`` (weight-gradient computation),

so that :mod:`repro.training.tracing` can snapshot them without re-running
the math.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Module": "repro.nn.module",
    "Parameter": "repro.nn.module",
    "Conv2D": "repro.nn.layers.conv",
    "Linear": "repro.nn.layers.linear",
    "ReLU": "repro.nn.layers.activation",
    "BatchNorm2D": "repro.nn.layers.normalization",
    "MaxPool2D": "repro.nn.layers.pooling",
    "AvgPool2D": "repro.nn.layers.pooling",
    "GlobalAvgPool2D": "repro.nn.layers.pooling",
    "Flatten": "repro.nn.layers.shape",
    "Concat": "repro.nn.layers.shape",
    "Add": "repro.nn.layers.shape",
    "Dropout": "repro.nn.layers.dropout",
    "Embedding": "repro.nn.layers.embedding",
    "Sequential": "repro.nn.model",
    "Graph": "repro.nn.model",
    "CrossEntropyLoss": "repro.nn.losses",
    "softmax": "repro.nn.losses",
    "SGD": "repro.nn.optim",
    "MomentumSGD": "repro.nn.optim",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
