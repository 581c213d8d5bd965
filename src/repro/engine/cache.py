"""Content-addressed on-disk cache of per-layer simulation results.

Sweeps and repeated benchmark runs re-simulate the same (configuration,
layer trace) pairs over and over; this cache makes the second and later
runs free.  Entries are keyed by a SHA-256 over two fingerprints and a
fixed label:

* the **configuration fingerprint** — every field of the
  :class:`~repro.core.config.AcceleratorConfig` (including the
  memory-hierarchy bandwidth/capacity parameters, so results produced
  under different hierarchies can never collide) plus the stream-sampling
  parameters (``max_groups``, ``max_batch``) that shape the simulated work;
* the **trace fingerprint** — the layer's hyper-parameters and the raw
  bytes of its boolean operand masks;
* :data:`ENGINE_LABEL`, the name of the one execution path.  It is kept
  in the key (and in reports) so caches written when the engine still
  had a choice of backends keep hitting.

Invalidation is purely structural: change any input and the key changes,
so a stale entry can never be returned — it is simply never looked up
again.  Old entries are inert files; delete the cache directory (or any
subset of it) at any time to reclaim space.  A bump of
:data:`CACHE_SCHEMA_VERSION` orphans every existing entry, which is how
format changes are rolled out.

Values are stored as small JSON documents (one file per layer, sharded by
key prefix to keep directories shallow), so caches are portable and
inspectable with standard tools.  Corrupt or truncated files are treated
as misses.
Stores write a temporary file and rename it into place, so several
processes may share one cache directory: a reader sees a whole entry or
none.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

#: Bump to invalidate every existing cache entry after a format change.
#: Version 2 added the memory-hierarchy fields (stall cycles, effective
#: DRAM bytes, bound verdict) to the per-operation payload.
CACHE_SCHEMA_VERSION = 2

#: The engine's label: part of every cache key, reported as
#: ``EngineStats.as_dict()["backend"]``, the ``engine: backend=...`` report
#: line and the ``backend`` label of ``repro_layers_simulated_total``.
#: Changing it orphans every existing cache entry.
ENGINE_LABEL = "vectorized"


def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def _update_mask(digest, name: str, mask: Optional[np.ndarray]) -> None:
    digest.update(name.encode())
    if mask is None:
        digest.update(b"<none>")
        return
    arr = np.ascontiguousarray(mask, dtype=bool)
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())


def config_fingerprint(config, max_groups, max_batch) -> str:
    """Fingerprint of everything configuration-side that shapes a result.

    ``AcceleratorConfig`` is a frozen dataclass tree, so its ``repr`` is a
    complete, stable serialisation of every field.
    """
    digest = _hasher()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    digest.update(repr(config).encode())
    digest.update(f"|max_groups={max_groups}|max_batch={max_batch}".encode())
    return digest.hexdigest()


def trace_fingerprint(trace) -> str:
    """Fingerprint of one :class:`~repro.training.tracing.LayerTrace`."""
    digest = _hasher()
    digest.update(
        f"{trace.layer_name}|{trace.layer_type}|k{trace.kernel}"
        f"|s{trace.stride}|p{trace.padding}|m{trace.macs}".encode()
    )
    _update_mask(digest, "W", trace.weight_mask)
    _update_mask(digest, "A", trace.activation_mask)
    _update_mask(digest, "G", trace.output_gradient_mask)
    return digest.hexdigest()


def layer_key(config_fp: str, trace_fp: str) -> str:
    """Content address of one (config, trace) simulation."""
    digest = _hasher()
    digest.update(f"{config_fp}|{trace_fp}|{ENGINE_LABEL}".encode())
    return digest.hexdigest()


def _result_to_payload(result) -> dict:
    return {
        "version": CACHE_SCHEMA_VERSION,
        "layer_name": result.layer_name,
        "operations": {
            name: {
                "baseline_cycles": int(op.baseline_cycles),
                "tensordash_cycles": int(op.tensordash_cycles),
                "macs_total": int(op.macs_total),
                "macs_effectual": int(op.macs_effectual),
                "baseline_stall_cycles": int(op.baseline_stall_cycles),
                "tensordash_stall_cycles": int(op.tensordash_stall_cycles),
                "memory_cycles": int(op.memory_cycles),
                "dram_bytes": int(op.dram_bytes),
                "bound": str(op.bound),
            }
            for name, op in result.operations.items()
        },
        "traffic": {
            name: {
                "dram_bytes": int(traffic.dram_bytes),
                "sram_bytes": int(traffic.sram_bytes),
                "scratchpad_bytes": int(traffic.scratchpad_bytes),
            }
            for name, traffic in result.traffic.items()
        },
    }


def _payload_to_result(payload: dict):
    from repro.core.accelerator import OperationResult
    from repro.memory.traffic import MemoryTraffic
    from repro.simulation.cycle_sim import LayerResult

    if payload.get("version") != CACHE_SCHEMA_VERSION:
        return None
    result = LayerResult(layer_name=payload["layer_name"])
    for name, op in payload["operations"].items():
        result.operations[name] = OperationResult(name=name, **op)
    for name, traffic in payload["traffic"].items():
        result.traffic[name] = MemoryTraffic(**traffic)
    return result


class ResultCache:
    """One directory of content-addressed per-layer simulation results."""

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise NotADirectoryError(
                f"cache directory {self.cache_dir} exists but is not a directory"
            ) from exc

    def path_for(self, key: str) -> Path:
        """File backing a cache key (sharded by the first two hex chars)."""
        return self.cache_dir / key[:2] / f"{key}.json"

    def load(self, key: str):
        """The cached :class:`LayerResult` for ``key``, or ``None`` on miss.

        Unreadable or schema-mismatched files are misses, never errors.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            return _payload_to_result(payload)
        except (KeyError, TypeError):
            return None

    def store(self, key: str, result) -> None:
        """Persist one layer result (atomic rename, last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(_result_to_payload(result))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))
