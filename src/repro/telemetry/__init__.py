"""``repro.telemetry``: structured tracing and metrics for every layer.

The instrumentation plane of the reproduction — zero new dependencies,
two halves:

* :mod:`repro.telemetry.tracing` — a :class:`Tracer` producing nested
  spans (trace/span/parent ids, wall time, attributes) exported to an
  append-only JSONL event log with size-based rotation.  Disabled by
  default; enabled via ``--telemetry-dir`` / ``REPRO_TELEMETRY_DIR``.
  When disabled every instrumentation site costs one no-op call, so all
  simulation outputs stay bit-identical (property-tested).
* :mod:`repro.telemetry.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms (request latency, layers simulated,
  cache hits per tier, stall fractions) fed by the same code paths that
  maintain :class:`~repro.engine.EngineStats`, rendered in Prometheus
  text format or structured JSON by ``GET /v1/metrics``.

:mod:`repro.telemetry.schema` validates emitted JSONL records (the CI
telemetry smoke step runs it over a real run's log) and
:mod:`repro.telemetry.view` renders a recorded log as a span tree with
self/total times — the ``repro trace`` subcommand.

See ``docs/observability.md`` for the span model and metrics catalogue.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Counter": "repro.telemetry.metrics",
    "Gauge": "repro.telemetry.metrics",
    "Histogram": "repro.telemetry.metrics",
    "MetricsRegistry": "repro.telemetry.metrics",
    "Span": "repro.telemetry.tracing",
    "TelemetryRecordError": "repro.telemetry.schema",
    "Tracer": "repro.telemetry.tracing",
    "configure": "repro.telemetry.tracing",
    "get_registry": "repro.telemetry.metrics",
    "get_tracer": "repro.telemetry.tracing",
    "traced": "repro.telemetry.tracing",
    "validate_record": "repro.telemetry.schema",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
