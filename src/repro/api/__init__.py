"""Unified programmatic API: typed requests, one warm session, a service.

This package is the single front door to every workflow the repository
supports:

* :mod:`repro.api.schema` — versioned, JSON-serialisable request/result
  dataclasses (``SimulateRequest``, ``RooflineRequest``, ``SweepRequest``,
  ``ExploreRequest`` and their results, wrapped in ``ApiResult``
  envelopes with schema version, timing and per-request engine stats);
* :mod:`repro.api.session` — :class:`Session`, the facade that owns
  exactly one :class:`~repro.engine.SimulationEngine` and keeps traces,
  runners and layer results warm across calls;
* :mod:`repro.api.service` — the ``repro serve`` batch service
  (stdlib ``ThreadingHTTPServer``) dispatching POSTed request documents
  into a shared session.

The CLI subcommands are thin clients of this layer: they build a
request, call :meth:`Session.submit` and format the result.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SCHEMA_VERSION": "repro.api.schema",
    "SchemaError": "repro.api.schema",
    "SimulateRequest": "repro.api.schema",
    "RooflineRequest": "repro.api.schema",
    "ScaleRequest": "repro.api.schema",
    "SweepRequest": "repro.api.schema",
    "ExploreRequest": "repro.api.schema",
    "SimulateResult": "repro.api.schema",
    "RooflineResult": "repro.api.schema",
    "ScaleResult": "repro.api.schema",
    "SweepResult": "repro.api.schema",
    "ExploreResult": "repro.api.schema",
    "ApiResult": "repro.api.schema",
    "request_from_dict": "repro.api.schema",
    "Session": "repro.api.session",
    "ApiServer": "repro.api.service",
    "create_server": "repro.api.service",
    "serve": "repro.api.service",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
