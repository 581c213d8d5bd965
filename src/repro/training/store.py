"""Content-addressed on-disk store of training traces.

Every simulated number depends only on the operand masks that a short,
seeded training run traces, and that run is a pure function of its
inputs: the workload, its training parameters and the training-side
code.  This store keys a finished
:class:`~repro.training.tracing.TrainingTrace` on exactly those inputs,
so a new process loads the trace instead of retraining the model
(:func:`repro.models.registry.trace_workload` looks it up first).

**Key** — a SHA-256 over the workload name, ``epochs``,
``batches_per_epoch``, ``batch_size``, ``seed``, ``learning_rate``,
``trace_max_batch`` (``None`` normalised to the trainer default),
:data:`TRACE_SCHEMA_VERSION`, the numpy version and :func:`source_hash`
of the training-side packages.  Editing any file that can change a trace
changes the key, so a stale trace is never looked up again.

**Layout** — ``<cache_dir>/traces/<key[:2]>/<key>.npz``: one uncompressed
``np.savez`` archive per trace.  Each operand mask is one
``np.packbits`` member; the scalar fields, mask shapes, schema version
and key sit in a JSON ``meta`` member.  Nothing is pickled, and archives
load with ``allow_pickle=False``.

**Crash contract** — a store writes a temporary file and renames it into
place without ``fsync``: concurrent readers see a whole archive or none,
and a file torn by a crash or damaged later fails the archive's CRC or
shape checks.  Any unreadable, truncated, CRC-failing or inconsistent
file is a *corrupt* miss; the caller retrains and overwrites it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro._atomic import atomic_write
from repro.telemetry import metrics as _metrics
from repro.training.tracing import (
    DEFAULT_TRACE_MAX_BATCH,
    EpochTrace,
    LayerTrace,
    TrainingTrace,
)

#: Bump to orphan every stored trace after a format change.
TRACE_SCHEMA_VERSION = 1

#: Packages (under ``repro``) whose source shapes a trace.  The DS90/SM90
#: workloads train through ``repro.pruning``.
TRACED_PACKAGES = ("nn", "models", "training", "pruning")

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_MASK_FIELDS = tuple(
    f.name for f in dataclasses.fields(LayerTrace) if f.name.endswith("_mask")
)
_SCALAR_FIELDS = frozenset(
    f.name for f in dataclasses.fields(LayerTrace)
) - frozenset(_MASK_FIELDS)


@functools.lru_cache(maxsize=None)
def source_hash(root: Path = _PACKAGE_ROOT) -> str:
    """SHA-256 over every ``.py`` file of :data:`TRACED_PACKAGES` under ``root``."""
    digest = hashlib.sha256()
    for package in TRACED_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def trace_key(
    model: str,
    epochs: int,
    batches_per_epoch: int,
    batch_size: int,
    seed: int,
    learning_rate: float,
    trace_max_batch: Optional[int],
) -> str:
    """Content address of the trace these training inputs produce."""
    if trace_max_batch is None:
        trace_max_batch = DEFAULT_TRACE_MAX_BATCH
    parts = {
        "model": model,
        "epochs": int(epochs),
        "batches_per_epoch": int(batches_per_epoch),
        "batch_size": int(batch_size),
        "seed": int(seed),
        "learning_rate": repr(float(learning_rate)),
        "trace_max_batch": int(trace_max_batch),
        "schema": TRACE_SCHEMA_VERSION,
        "numpy": np.__version__,
        "source": source_hash(),
    }
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _member(epoch: int, layer: int, field: str) -> str:
    return f"e{epoch}.l{layer}.{field}"


def _encode(key: str, trace: TrainingTrace) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    epochs = []
    for e, epoch in enumerate(trace.epochs):
        layers = []
        for j, layer in enumerate(epoch.layers):
            record = {name: getattr(layer, name) for name in sorted(_SCALAR_FIELDS)}
            shapes = {}
            for name in _MASK_FIELDS:
                mask = getattr(layer, name)
                if mask is None:
                    shapes[name] = None
                    continue
                shapes[name] = list(mask.shape)
                arrays[_member(e, j, name)] = np.packbits(mask, axis=None)
            record["shapes"] = shapes
            layers.append(record)
        epochs.append({"epoch": epoch.epoch, "layers": layers})
    meta = {
        "schema": TRACE_SCHEMA_VERSION,
        "key": key,
        "model_name": trace.model_name,
        "epochs": epochs,
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return arrays


def _unpack(packed: np.ndarray, shape) -> np.ndarray:
    shape = tuple(int(n) for n in shape)
    count = int(np.prod(shape, dtype=np.int64))
    if packed.dtype != np.uint8 or packed.ndim != 1 or packed.size != (count + 7) // 8:
        raise ValueError("packed mask does not match its recorded shape")
    return np.unpackbits(packed, count=count).view(bool).reshape(shape)


def _decode(key: str, archive) -> TrainingTrace:
    meta = json.loads(archive["meta"].tobytes())
    if meta["schema"] != TRACE_SCHEMA_VERSION or meta["key"] != key:
        raise ValueError("archive belongs to another key or schema")
    trace = TrainingTrace(model_name=meta["model_name"])
    for e, epoch in enumerate(meta["epochs"]):
        layers = []
        for j, record in enumerate(epoch["layers"]):
            shapes = record.pop("shapes")
            if set(record) != _SCALAR_FIELDS or set(shapes) != set(_MASK_FIELDS):
                raise ValueError("layer record has the wrong fields")
            masks = {
                name: None if shape is None else _unpack(archive[_member(e, j, name)], shape)
                for name, shape in shapes.items()
            }
            layers.append(LayerTrace(**record, **masks))
        trace.epochs.append(EpochTrace(epoch=epoch["epoch"], layers=layers))
    return trace


class TraceStore:
    """One directory of content-addressed training traces."""

    def __init__(self, cache_dir: Union[str, Path]):
        self.root = Path(cache_dir) / "traces"

    def path_for(self, key: str) -> Path:
        """File backing a trace key (sharded by the first two hex chars)."""
        return self.root / key[:2] / f"{key}.npz"

    def load(self, key: str) -> Optional[TrainingTrace]:
        """The stored trace for ``key``, or ``None``.

        Counts the outcome on ``repro_trace_store_total``: ``hit``,
        ``miss`` (no file) or ``corrupt`` (a file that does not decode
        to a whole, consistent trace — never an error).
        """
        path = self.path_for(key)
        try:
            # Open the file here: np.load leaks its own handle when the
            # zip directory fails to parse.
            with open(path, "rb") as handle, \
                    np.load(handle, allow_pickle=False) as archive:
                trace = _decode(key, archive)
        except FileNotFoundError:
            _metrics.TRACE_STORE.inc(outcome="miss")
            return None
        except Exception:
            # A damaged archive fails in zipfile, numpy's .npy reader or
            # the JSON/shape checks above, each with its own exception
            # types (BadZipFile, EOFError, ValueError, KeyError,
            # RuntimeError for a flipped "encrypted" flag, ...).  Every one
            # means "no usable trace here": retraining is always correct.
            _metrics.TRACE_STORE.inc(outcome="corrupt")
            return None
        _metrics.TRACE_STORE.inc(outcome="hit")
        return trace

    def store(self, key: str, trace: TrainingTrace) -> None:
        """Persist one trace (atomic rename, last writer wins)."""
        buffer = io.BytesIO()
        np.savez(buffer, **_encode(key, trace))
        atomic_write(self.path_for(key), buffer.getvalue())
