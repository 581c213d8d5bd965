"""Training loop, synthetic datasets and operand-trace collection."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SyntheticImageDataset": "repro.training.data",
    "SyntheticSequenceDataset": "repro.training.data",
    "LayerTrace": "repro.training.tracing",
    "EpochTrace": "repro.training.tracing",
    "TrainingTrace": "repro.training.tracing",
    "TraceCollector": "repro.training.tracing",
    "Trainer": "repro.training.trainer",
    "TrainingConfig": "repro.training.trainer",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
