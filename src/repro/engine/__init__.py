"""The simulation engine: result caching over the cycle simulator.

This package is the execution layer between the accelerator model
(:mod:`repro.core`, driven through
:class:`repro.simulation.cycle_sim.LayerSimulator`) and everything that
drives whole-model experiments (:mod:`repro.simulation.runner`, the CLI,
the benchmark harness):

* :mod:`repro.engine.cache` — the content-addressed on-disk result cache;
* :mod:`repro.engine.engine` — :class:`SimulationEngine`, which puts the
  cache stack (disk and/or in-process memo) in front of the simulator and
  tracks :class:`EngineStats`;
* :mod:`repro.engine.options` — :func:`resolve_engine_options`, the single
  place the cache-dir/telemetry/study-jobs precedence (argument >
  ``REPRO_*`` env var > default) is decided for every entry point.
"""

from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_fingerprint,
    layer_key,
    trace_fingerprint,
)
from repro.engine.engine import EngineStats, SimulationEngine
from repro.engine.options import EngineOptions, resolve_engine_options

__all__ = [
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "config_fingerprint",
    "trace_fingerprint",
    "layer_key",
    "EngineStats",
    "SimulationEngine",
    "EngineOptions",
    "resolve_engine_options",
]
