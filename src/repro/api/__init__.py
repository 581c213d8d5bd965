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

from repro.api.schema import (
    SCHEMA_VERSION,
    ApiResult,
    ExploreRequest,
    ExploreResult,
    RooflineRequest,
    RooflineResult,
    ScaleRequest,
    ScaleResult,
    SchemaError,
    SimulateRequest,
    SimulateResult,
    SweepRequest,
    SweepResult,
    request_from_dict,
)
from repro.api.session import Session

#: Names served by :mod:`repro.api.service`, imported on first access so
#: that clients which never serve (``repro simulate``) skip ``http.server``.
_SERVICE_EXPORTS = ("ApiServer", "create_server", "serve")


def __getattr__(name):
    if name in _SERVICE_EXPORTS:
        from repro.api import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "SimulateRequest",
    "RooflineRequest",
    "ScaleRequest",
    "SweepRequest",
    "ExploreRequest",
    "SimulateResult",
    "RooflineResult",
    "ScaleResult",
    "SweepResult",
    "ExploreResult",
    "ApiResult",
    "request_from_dict",
    "Session",
    "ApiServer",
    "create_server",
    "serve",
]
