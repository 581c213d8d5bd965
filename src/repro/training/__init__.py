"""Training loop, synthetic datasets and operand-trace collection."""

from repro.training.data import SyntheticImageDataset, SyntheticSequenceDataset
from repro.training.tracing import LayerTrace, EpochTrace, TrainingTrace, TraceCollector
from repro.training.trainer import Trainer, TrainingConfig

__all__ = [
    "SyntheticImageDataset",
    "SyntheticSequenceDataset",
    "LayerTrace",
    "EpochTrace",
    "TrainingTrace",
    "TraceCollector",
    "Trainer",
    "TrainingConfig",
]
