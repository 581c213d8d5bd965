"""Pluggable simulation engine: backends and result cache.

This package is the execution layer between the accelerator model
(:mod:`repro.core`) and everything that drives whole-model experiments
(:mod:`repro.simulation.runner`, the CLI, the benchmark harness).  It
separates *what* is simulated (the bit-exact hierarchical-scheduler
semantics) from *how* it is executed:

* :mod:`repro.engine.backend` — the :class:`SimulationBackend` protocol,
  the ``reference`` oracle and the bit-packed ``vectorized`` fast path;
* :mod:`repro.engine.cache` — the content-addressed on-disk result cache;
* :mod:`repro.engine.engine` — :class:`SimulationEngine`, which composes a
  backend with the cache stack (disk and/or in-process memo) and tracks
  :class:`EngineStats`;
* :mod:`repro.engine.options` — :func:`resolve_engine_options`, the single
  place the backend/cache-dir precedence (argument > ``REPRO_*`` env
  var > default) is decided for every entry point.
"""

from repro.engine.backend import (
    ReferenceBackend,
    SimulationBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_fingerprint,
    layer_key,
    trace_fingerprint,
)
from repro.engine.engine import EngineStats, SimulationEngine
from repro.engine.options import (
    DEFAULT_BACKEND,
    EngineOptions,
    resolve_engine_options,
)

__all__ = [
    "SimulationBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "config_fingerprint",
    "trace_fingerprint",
    "layer_key",
    "EngineStats",
    "SimulationEngine",
    "DEFAULT_BACKEND",
    "EngineOptions",
    "resolve_engine_options",
]
