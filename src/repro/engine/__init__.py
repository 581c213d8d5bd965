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

from repro._lazy import lazy_exports

_EXPORTS = {
    "ResultCache": "repro.engine.cache",
    "CACHE_SCHEMA_VERSION": "repro.engine.cache",
    "config_fingerprint": "repro.engine.cache",
    "trace_fingerprint": "repro.engine.cache",
    "layer_key": "repro.engine.cache",
    "EngineStats": "repro.engine.engine",
    "SimulationEngine": "repro.engine.engine",
    "EngineOptions": "repro.engine.options",
    "resolve_engine_options": "repro.engine.options",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
