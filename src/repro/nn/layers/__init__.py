"""Layer implementations for the numpy training substrate."""

from repro._lazy import lazy_exports

_EXPORTS = {
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
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
