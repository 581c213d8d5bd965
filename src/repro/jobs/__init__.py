"""``repro.jobs``: asynchronous job execution over one shared session.

The missing layer between the request/response service (``repro serve``)
and the long-running work it fronts: a thread-safe in-memory
:class:`JobStore` accepts any :mod:`repro.api.schema` request, queues it
for a bounded pool of worker threads, records per-job progress events
(the ``/v1/jobs/<id>/events`` SSE feed), honours cooperative
cancellation at study-point boundaries, evicts finished jobs after a
retention TTL, and appends every submission and state transition to a
persistent JSONL audit log validated by :mod:`repro.telemetry.schema`.

Jobs move ``queued -> running -> succeeded | failed | cancelled``;
:data:`~repro.api.schema.JOB_STATES` is the wire contract.  See
``docs/jobs.md`` for the lifecycle walkthrough.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "JobCancelled": "repro.jobs.store",
    "JobStore": "repro.jobs.store",
    "JobStoreClosed": "repro.jobs.store",
    "UnknownJob": "repro.jobs.store",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
