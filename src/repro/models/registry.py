"""Model registry: the paper's workload list, ready to train and trace.

Each entry knows how to build the model, which synthetic dataset feeds it,
and (for the DS90 / SM90 variants) which pruning-during-training method to
attach.  The benchmark harness iterates over this registry to produce the
per-model series of Figs. 1 and 13-16.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.models.alexnet import build_alexnet
from repro.models.densenet import build_densenet121
from repro.models.gcn import build_gcn
from repro.models.img2txt import build_img2txt
from repro.models.resnet import build_resnet50
from repro.models.snli import build_snli
from repro.models.squeezenet import build_squeezenet
from repro.models.vgg import build_vgg16
from repro.training.data import SyntheticImageDataset, SyntheticSequenceDataset


@dataclass
class ModelSpec:
    """One workload: model factory, dataset factory and optional pruning."""

    name: str
    build: Callable[..., object]
    dataset: Callable[..., object]
    pruning: Optional[str] = None           # None, "dynamic_sparse" or "sparse_momentum"
    description: str = ""
    #: Classes the synthetic dataset should expose for this model's head.
    num_classes: int = 10


def _image_dataset(num_classes: int = 10, seed: int = 0) -> SyntheticImageDataset:
    return SyntheticImageDataset(num_classes=num_classes, channels=3, size=32, seed=seed)


def _sequence_dataset(num_classes: int, vocab: int = 512, length: int = 20, seed: int = 0):
    return SyntheticSequenceDataset(
        vocab_size=vocab, sequence_length=length, num_classes=num_classes, seed=seed
    )


MODEL_REGISTRY: Dict[str, ModelSpec] = {
    "alexnet": ModelSpec(
        name="alexnet",
        build=build_alexnet,
        dataset=_image_dataset,
        description="Scaled AlexNet, ImageNet-classification stand-in",
    ),
    "vgg16": ModelSpec(
        name="vgg16",
        build=build_vgg16,
        dataset=_image_dataset,
        description="Scaled VGG-16, ImageNet-classification stand-in",
    ),
    "resnet50": ModelSpec(
        name="resnet50",
        build=build_resnet50,
        dataset=_image_dataset,
        description="Scaled ResNet-50 (dense training)",
    ),
    "resnet50_DS90": ModelSpec(
        name="resnet50_DS90",
        build=build_resnet50,
        dataset=_image_dataset,
        pruning="dynamic_sparse",
        description="ResNet-50 trained with dynamic sparse reparameterization (90% target)",
    ),
    "resnet50_SM90": ModelSpec(
        name="resnet50_SM90",
        build=build_resnet50,
        dataset=_image_dataset,
        pruning="sparse_momentum",
        description="ResNet-50 trained with sparse momentum (90% target)",
    ),
    "densenet121": ModelSpec(
        name="densenet121",
        build=build_densenet121,
        dataset=_image_dataset,
        description="Scaled DenseNet-121 (BN between conv and ReLU)",
    ),
    "squeezenet": ModelSpec(
        name="squeezenet",
        build=build_squeezenet,
        dataset=_image_dataset,
        description="Scaled SqueezeNet (fire modules)",
    ),
    "img2txt": ModelSpec(
        name="img2txt",
        build=build_img2txt,
        dataset=lambda num_classes=128, seed=0: _image_dataset(num_classes=num_classes, seed=seed),
        description="Image-captioning stand-in (conv encoder + FC decoder)",
        num_classes=128,
    ),
    "snli": ModelSpec(
        name="snli",
        build=build_snli,
        dataset=lambda num_classes=3, seed=0: _sequence_dataset(num_classes=3, seed=seed),
        description="SNLI natural-language-inference stand-in",
        num_classes=3,
    ),
    "gcn": ModelSpec(
        name="gcn",
        build=build_gcn,
        dataset=lambda num_classes=512, seed=0: _sequence_dataset(num_classes=512, seed=seed),
        description="Gated convolutional language model (virtually no sparsity)",
        num_classes=512,
    ),
}

#: The models the paper's headline figures sweep over, in figure order.
PAPER_MODELS: List[str] = [
    "alexnet",
    "densenet121",
    "squeezenet",
    "vgg16",
    "img2txt",
    "resnet50_DS90",
    "resnet50_SM90",
    "snli",
]


def available_models() -> List[str]:
    """Names of every registered workload."""
    return sorted(MODEL_REGISTRY)


def build_model(name: str, seed: int = 0, **kwargs):
    """Instantiate a registered model by name."""
    spec = MODEL_REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown model {name!r}; known: {available_models()}")
    builder_kwargs = dict(kwargs)
    if spec.name in ("snli", "gcn"):
        return spec.build(seed=seed, **builder_kwargs)
    if spec.name == "img2txt":
        return spec.build(vocab_size=spec.num_classes, seed=seed, **builder_kwargs)
    return spec.build(num_classes=spec.num_classes, seed=seed, **builder_kwargs)


def build_dataset(name: str, seed: int = 0):
    """Instantiate the synthetic dataset matching a registered model."""
    spec = MODEL_REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown model {name!r}; known: {available_models()}")
    return spec.dataset(num_classes=spec.num_classes, seed=seed)


def trace_workload(
    name: str,
    epochs: int = 2,
    batches_per_epoch: int = 2,
    batch_size: int = 8,
    seed: int = 0,
    learning_rate: float = 0.01,
    trace_max_batch: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
):
    """Train a registered workload briefly and return its operand traces.

    The one shared train-and-trace path: builds the model, its synthetic
    dataset and any pruning hook the workload requires, runs the short
    training loop, and returns the resulting
    :class:`~repro.training.tracing.TrainingTrace`.  The CLI, the
    benchmark harness and the design-space study runner all call this, so
    tracing defaults cannot drift between entry points.

    ``trace_max_batch`` caps the samples kept per traced convolutional
    layer (``None`` keeps the trainer's default of 4).  Multi-device
    scaling runs raise it to the device count so data-parallel shards
    stay balanced; everything else leaves it alone.

    With a ``cache_dir`` the trace is looked up in the content-addressed
    trace store under it (:mod:`repro.training.store`) and the model is
    trained only on a miss, which then stores the trace.  The innermost
    open telemetry span (the session's ``session.trace``) records where
    the trace came from as ``source="store"`` or ``source="trained"``.
    """
    # Imported lazily: repro.training imports this module's datasets, so a
    # top-level import would be circular.
    from repro.nn.optim import MomentumSGD
    from repro.telemetry.tracing import get_tracer
    from repro.training.store import TraceStore, trace_key
    from repro.training.trainer import Trainer, TrainingConfig

    span = get_tracer().current_span()
    store = key = None
    if cache_dir is not None:
        store = TraceStore(cache_dir)
        key = trace_key(name, epochs, batches_per_epoch, batch_size, seed,
                        learning_rate, trace_max_batch)
        trace = store.load(key)
        if trace is not None:
            if span is not None:
                span.set(source="store")
            return trace

    model = build_model(name, seed=seed)
    dataset = build_dataset(name, seed=seed)
    optimizer = MomentumSGD(model.parameters(), lr=learning_rate)
    trainer = Trainer(
        model,
        optimizer,
        config=TrainingConfig(
            epochs=epochs,
            batches_per_epoch=batches_per_epoch,
            batch_size=batch_size,
            learning_rate=learning_rate,
            **(
                {}
                if trace_max_batch is None
                else {"trace_max_batch": int(trace_max_batch)}
            ),
        ),
        pruning_hook=build_pruning_hook(name, optimizer),
    )
    trace = trainer.train(dataset, model_name=name)
    if store is not None:
        store.store(key, trace)
    if span is not None:
        span.set(source="trained")
    return trace


def build_pruning_hook(name: str, optimizer=None):
    """Instantiate the pruning method a registered workload requires, if any."""
    spec = MODEL_REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown model {name!r}; known: {available_models()}")
    if spec.pruning is None:
        return None
    if spec.pruning == "dynamic_sparse":
        from repro.pruning import DynamicSparseReparameterization

        return DynamicSparseReparameterization(target_sparsity=0.9)
    if spec.pruning == "sparse_momentum":
        from repro.pruning import SparseMomentumPruner

        pruner = SparseMomentumPruner(target_sparsity=0.9)
        if optimizer is not None:
            pruner.bind_optimizer(optimizer)
        return pruner
    raise ValueError(f"unknown pruning method {spec.pruning!r}")
