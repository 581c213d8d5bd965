"""``repro serve``: a batch simulation service over one shared session.

A deliberately small HTTP layer — stdlib :mod:`http.server` only, no new
dependencies — that exposes the :class:`~repro.api.Session` facade to
concurrent clients:

* ``POST /v1/simulate`` / ``/v1/roofline`` / ``/v1/scale`` /
  ``/v1/sweep`` / ``/v1/explore`` — body is the matching request document from
  :mod:`repro.api.schema` (the ``kind`` tag may be omitted; the path
  implies it).  Responds with the :class:`~repro.api.schema.ApiResult`
  envelope as JSON — *blocking*: the connection is held for the
  request's full wall-clock.
* ``POST /v1/jobs`` — the asynchronous alternative: the body is any
  request document (``kind`` required — the path implies nothing) and
  the response is an immediate ``202`` with a
  :class:`~repro.api.schema.JobRecord`.  The job executes on the
  server's :class:`~repro.jobs.JobStore` worker pool; observe it via
  ``GET /v1/jobs`` (list), ``GET /v1/jobs/<id>`` (one record),
  ``GET /v1/jobs/<id>/events`` (a Server-Sent-Events stream of per-point
  progress; ``?since=SEQ`` resumes after a dropped connection),
  ``GET /v1/jobs/<id>/result`` (the finished job's envelope) and
  ``POST /v1/jobs/<id>/cancel`` (cooperative, stops at the next study
  point).  See ``docs/jobs.md``.
* ``GET /v1/health`` — liveness: package version, schema version,
  uptime, telemetry status, endpoints, job-store summary and registered
  workloads — enough for a load balancer or job supervisor to
  introspect a worker.
* ``GET /v1/stats`` — session counters: requests served, cached
  traces/runners and engine cache hit/miss totals.
* ``GET /v1/metrics`` — the process-wide metrics registry
  (:mod:`repro.telemetry.metrics`) in Prometheus text exposition format:
  request-latency histograms, per-tier cache hit counters, layers
  simulated, HTTP traffic, job states and queue depth.
  ``?format=json`` returns the structured JSON variant instead.

Access logging is structured: pass ``access_log`` (the ``--access-log``
flag) and every response appends one JSON line — method, path, status,
duration and request/response sizes — to that file; the default is off
(tests and quiet deployments log nothing).  ``audit_log`` additionally
records every job submission and state transition as ``type: "job"``
records (:mod:`repro.telemetry.schema` validates them).

Requests are served by a :class:`~http.server.ThreadingHTTPServer`; the
session serialises simulation under its lock, so many clients safely
share one engine — the second client POSTing a workload the first already
ran gets pure cache hits, visible both in its own envelope's ``engine``
delta and in ``/v1/stats``.

Study requests (``/v1/sweep`` / ``/v1/explore``) may carry a
``study_jobs`` field to fan their points across worker processes; it
passes straight through to the session (``--study-jobs`` /
``REPRO_STUDY_JOBS`` set the server-wide default), and each worker's
engine joins the server's shared cache tier when one is configured —
see ``docs/performance.md``.

HTTP semantics are strict: invalid documents return ``400`` with
``{"error": ..., "field": ...}`` naming the offending field; unknown
paths return ``404`` listing the routes; a known path hit with the
wrong method returns ``405`` with an ``Allow`` header; bodies over the
``--max-body-mb`` limit return ``413``; submissions during shutdown
return ``503``.  Unexpected faults return ``500`` with the exception
text.

Shutdown is graceful: SIGTERM or SIGINT (Ctrl-C) stops accepting
connections, cancels queued jobs, drains running ones up to the
``--drain-seconds`` deadline, and flushes/closes the access and audit
logs before the process exits.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.api.schema import (
    SCHEMA_VERSION,
    JOB_STATES,
    JOB_TERMINAL_STATES,
    REQUEST_TYPES,
    ExploreRequest,
    SchemaError,
    request_from_dict,
)
from repro.api.session import Session
from repro.jobs import JobStore, JobStoreClosed, UnknownJob
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import get_tracer

#: Blocking POST routes: URL path -> request kind.
POST_ROUTES: Dict[str, str] = {
    f"/v1/{kind}": kind for kind in sorted(REQUEST_TYPES)
}

#: Every fixed route the service answers, for health payloads and 404 bodies.
ENDPOINTS = tuple(sorted(POST_ROUTES)) + (
    "/v1/health", "/v1/jobs", "/v1/metrics", "/v1/stats",
)

#: Per-job sub-routes: ``/v1/jobs/<id>`` plus an optional action suffix.
JOB_ROUTE = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)(?:/(events|result|cancel))?$")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default request-body cap (``--max-body-mb``); a spec document is KBs.
DEFAULT_MAX_BODY_MB = 8.0

#: Seconds between SSE keep-alive comments on an idle event stream.
SSE_KEEPALIVE_SECONDS = 15.0


class _ShutdownRequest(Exception):
    """Raised out of ``serve_forever`` by the SIGTERM/SIGINT handlers."""


class ApiRequestHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/*`` traffic into the server's shared session."""

    server_version = f"repro/{__version__}"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: a client declaring a Content-Length it never sends
    #: parks this thread for at most this long, not forever.
    timeout = 120

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:   # noqa: A002
        # The stdlib's Apache-style stderr line is replaced by the
        # structured JSONL access log (``--access-log``); without one,
        # per-request logging is off — health-check spam stays out of
        # operator terminals and test output alike.
        pass

    def _log_access(self, status: int, response_bytes: int) -> None:
        """One structured access record per response (plus HTTP metrics)."""
        _metrics.HTTP_REQUESTS.inc(method=self.command or "?", status=str(status))
        started = getattr(self, "_began", None)
        duration_ms = (
            round((time.perf_counter() - started) * 1e3, 3)
            if started is not None else None
        )
        try:
            request_bytes = int(self.headers.get("Content-Length") or 0)
        except (ValueError, AttributeError):
            request_bytes = 0
        self.server.write_access_record({
            "time_s": round(time.time(), 6),
            "method": self.command,
            "path": self.path,
            "status": status,
            "duration_ms": duration_ms,
            "request_bytes": request_bytes,
            "response_bytes": response_bytes,
            "client": self.client_address[0] if self.client_address else None,
        })

    def _send_body(
        self, status: int, body: bytes, content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # Count and log before the body hits the socket: a client that
        # pipelines its next request the instant this response lands must
        # already see this one reflected in ``/v1/metrics``.
        self._log_access(status, len(body))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: Dict,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self._send_body(status, body, "application/json", headers=headers)

    def _read_body(self) -> Tuple[Optional[Dict], Optional[str], int]:
        """``(parsed body, None, 0)``, or ``(None, problem, status)``."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None, "invalid Content-Length header", 400
        if length <= 0:
            return None, "request body required (a JSON request document)", 400
        limit = self.server.max_body_bytes
        if length > limit:
            return None, (
                f"request body of {length} bytes exceeds this server's limit "
                f"of {limit} bytes (raise --max-body-mb)"
            ), 413
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return None, f"invalid JSON body: {exc}", 400
        if not isinstance(payload, dict):
            return None, (
                f"request body must be a JSON object, got {type(payload).__name__}"
            ), 400
        return payload, None, 0

    def _check_study_dir(self, request) -> Optional[str]:
        """Why a client-supplied ``study_dir`` is unacceptable, or ``None``.

        ``study_dir`` makes the server create directories and write
        manifest/cache files wherever the path points, so over HTTP it is
        only honoured inside the operator-chosen ``--study-root``; with
        no root configured, requests carrying a ``study_dir`` are
        refused outright.
        """
        if not isinstance(request, ExploreRequest) or not request.study_dir:
            return None
        root = getattr(self.server, "study_root", None)
        if root is None:
            return ("study_dir is disabled on this server; start it with "
                    "--study-root DIR to allow study directories under DIR")
        requested = Path(request.study_dir)
        if not requested.is_absolute():
            requested = root / requested
        resolved = requested.resolve()
        if resolved != root and root not in resolved.parents:
            return f"study_dir must resolve under the server's study root {root}"
        request.study_dir = str(resolved)
        return None

    def _parse_request_body(self, implied_kind: Optional[str] = None):
        """The validated request object from the body, or ``None`` (sent).

        Shared by the blocking routes (``implied_kind`` from the path)
        and the job submission route (``kind`` must be explicit).  Sends
        the error response itself when the body is unusable.
        """
        payload, problem, status = self._read_body()
        if problem is not None:
            # The body may be partly or wholly unread; on a keep-alive
            # connection its bytes would be parsed as the next request
            # line, so drop the connection after answering.
            self.close_connection = True
            self._send_json(status, {"error": problem})
            return None
        if implied_kind is not None:
            payload.setdefault("kind", implied_kind)
            if payload["kind"] != implied_kind:
                self._send_json(400, {
                    "error": f"request kind {payload['kind']!r} does not match "
                             f"endpoint {urlsplit(self.path).path!r}",
                    "field": "kind",
                })
                return None
        try:
            request = request_from_dict(payload)
        except SchemaError as exc:
            self._send_json(400, {"error": str(exc), "field": exc.field})
            return None
        problem = self._check_study_dir(request)
        if problem is not None:
            self._send_json(403, {"error": problem, "field": "study_dir"})
            return None
        return request

    # ------------------------------------------------------------------
    # routing

    def do_GET(self) -> None:   # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:   # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self._began = time.perf_counter()
        parts = urlsplit(self.path)
        path = parts.path
        query = parse_qs(parts.query)
        handlers = self._route(path, query)
        if handlers is None:
            self._send_json(404, {
                "error": f"unknown path {path!r}",
                "endpoints": list(ENDPOINTS),
            })
            return
        handler = handlers.get(method)
        if handler is None:
            allowed = ", ".join(sorted(handlers))
            self._send_json(405, {
                "error": f"method {method} is not allowed for {path!r}",
                "allow": sorted(handlers),
            }, headers={"Allow": allowed})
            return
        handler()

    def _route(self, path: str, query: Dict) -> Optional[Dict[str, Callable]]:
        """The ``{method: handler}`` table for ``path`` (``None`` = 404)."""
        kind = POST_ROUTES.get(path)
        if kind is not None:
            return {"POST": lambda: self._handle_blocking(kind)}
        if path == "/v1/health":
            return {"GET": self._handle_health}
        if path == "/v1/stats":
            return {"GET": lambda: self._send_json(200, self.server.session.stats())}
        if path == "/v1/metrics":
            return {"GET": lambda: self._handle_metrics(query)}
        if path == "/v1/jobs":
            return {
                "GET": lambda: self._handle_jobs_list(query),
                "POST": self._handle_jobs_submit,
            }
        match = JOB_ROUTE.match(path)
        if match:
            job_id, action = match.group(1), match.group(2)
            if action is None:
                return {"GET": lambda: self._handle_job_show(job_id)}
            if action == "events":
                return {"GET": lambda: self._handle_job_events(job_id, query)}
            if action == "result":
                return {"GET": lambda: self._handle_job_result(job_id)}
            return {"POST": lambda: self._handle_job_cancel(job_id)}
        return None

    # ------------------------------------------------------------------
    # fixed GET routes

    def _handle_health(self) -> None:
        from repro.models.registry import available_models

        self._send_json(200, {
            "status": "ok",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "uptime_seconds": round(
                time.time() - self.server.session.started_at, 3
            ),
            "telemetry": get_tracer().describe(),
            "endpoints": list(ENDPOINTS),
            "models": available_models(),
            "jobs": self.server.jobs.describe(),
        })

    def _handle_metrics(self, query: Dict) -> None:
        registry = _metrics.get_registry()
        if "json" in query.get("format", []):
            self._send_json(200, registry.as_dict())
        else:
            self._send_body(
                200, registry.render_prometheus().encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )

    # ------------------------------------------------------------------
    # blocking request routes

    def _handle_blocking(self, kind: str) -> None:
        request = self._parse_request_body(implied_kind=kind)
        if request is None:
            return
        try:
            result = self.server.session.submit(request)
        except SchemaError as exc:
            self._send_json(400, {"error": str(exc), "field": exc.field})
            return
        except Exception as exc:   # noqa: BLE001 - keep the server alive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send_json(200, result.to_dict())

    # ------------------------------------------------------------------
    # job routes

    def _handle_jobs_submit(self) -> None:
        request = self._parse_request_body()
        if request is None:
            return
        try:
            job_id = self.server.jobs.submit(request)
        except JobStoreClosed as exc:
            self._send_json(503, {"error": str(exc)})
            return
        self._send_json(202, self.server.jobs.get(job_id).to_dict())

    def _handle_jobs_list(self, query: Dict) -> None:
        state = (query.get("state") or [None])[0]
        if state is not None and state not in JOB_STATES:
            self._send_json(400, {
                "error": f"unknown state {state!r}; known: {list(JOB_STATES)}",
                "field": "state",
            })
            return
        records = self.server.jobs.list(state=state)
        summary = self.server.jobs.describe()
        self._send_json(200, {
            "jobs": [record.to_dict() for record in records],
            "queue_depth": summary["queue_depth"],
            "workers": summary["workers"],
            "accepting": summary["accepting"],
        })

    def _handle_job_show(self, job_id: str) -> None:
        try:
            record = self.server.jobs.get(job_id)
        except UnknownJob as exc:
            self._send_json(404, {"error": str(exc)})
            return
        self._send_json(200, record.to_dict())

    def _handle_job_result(self, job_id: str) -> None:
        try:
            record = self.server.jobs.get(job_id)
        except UnknownJob as exc:
            self._send_json(404, {"error": str(exc)})
            return
        if record.state not in JOB_TERMINAL_STATES:
            self._send_json(409, {
                "error": f"job {job_id!r} is {record.state}; its result is "
                         f"available once it finishes",
                "state": record.state,
            })
            return
        self._send_json(200, self.server.jobs.result(job_id).to_dict())

    def _handle_job_cancel(self, job_id: str) -> None:
        try:
            record = self.server.jobs.cancel(job_id)
        except UnknownJob as exc:
            self._send_json(404, {"error": str(exc)})
            return
        self._send_json(200, record.to_dict())

    def _handle_job_events(self, job_id: str, query: Dict) -> None:
        """Stream a job's events as Server-Sent Events until it finishes.

        Each event is ``id: <seq>`` / ``event: <type>`` / ``data:
        <json>``; idle periods emit comment keep-alives.  ``?since=SEQ``
        replays only events after SEQ (reconnect support).  The stream
        has no Content-Length, so the connection closes when it ends.
        """
        store = self.server.jobs
        try:
            store.get(job_id)
        except UnknownJob as exc:
            self._send_json(404, {"error": str(exc)})
            return
        try:
            last = int((query.get("since") or ["0"])[0])
        except ValueError:
            self._send_json(400, {
                "error": "since must be an integer event sequence number",
                "field": "since",
            })
            return
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        try:
            while True:
                try:
                    events, state = store.wait_events(
                        job_id, last, timeout=SSE_KEEPALIVE_SECONDS
                    )
                except UnknownJob:
                    break   # evicted mid-stream; nothing more will come
                for event in events:
                    data = json.dumps(event, sort_keys=True)
                    chunk = (f"id: {event['seq']}\n"
                             f"event: {event['type']}\n"
                             f"data: {data}\n\n").encode("utf-8")
                    self.wfile.write(chunk)
                    sent += len(chunk)
                    last = event["seq"]
                if events:
                    self.wfile.flush()
                    if state in JOB_TERMINAL_STATES:
                        break
                elif state in JOB_TERMINAL_STATES:
                    break
                else:
                    keepalive = b": keep-alive\n\n"
                    self.wfile.write(keepalive)
                    self.wfile.flush()
                    sent += len(keepalive)
        except (BrokenPipeError, ConnectionResetError):
            pass   # client went away; the job keeps running
        finally:
            self._log_access(200, sent)


class ApiServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one shared :class:`Session`."""

    daemon_threads = True

    def __init__(
        self,
        address,
        session: Session,
        quiet: bool = False,
        study_root: Optional[Union[str, Path]] = None,
        access_log: Optional[Union[str, Path]] = None,
        job_workers: int = 2,
        job_retention: float = 3600.0,
        audit_log: Optional[Union[str, Path]] = None,
        max_body_mb: float = DEFAULT_MAX_BODY_MB,
    ):
        super().__init__(address, ApiRequestHandler)
        self.session = session
        self.quiet = quiet
        #: Directory client-supplied explore ``study_dir`` paths must
        #: resolve under; ``None`` refuses them entirely.
        self.study_root = Path(study_root).resolve() if study_root else None
        #: Request bodies above this many bytes are refused with 413.
        self.max_body_bytes = int(float(max_body_mb) * 1024 * 1024)
        if self.max_body_bytes < 1:
            raise ValueError(f"max_body_mb must be positive, got {max_body_mb}")
        #: The asynchronous job layer every ``/v1/jobs*`` route drives.
        self.jobs = JobStore(
            session,
            workers=job_workers,
            retention_seconds=job_retention,
            audit_log=audit_log,
        )
        #: Structured JSONL access log; ``None`` (the default) logs nothing.
        self.access_log = str(access_log) if access_log else None
        self._access_lock = threading.Lock()
        self._access_handle = None
        self._serving = False
        if self.access_log:
            Path(self.access_log).parent.mkdir(parents=True, exist_ok=True)
            self._access_handle = open(self.access_log, "a", encoding="utf-8")

    def write_access_record(self, record: Dict) -> None:
        """Append one access-log line (no-op without ``access_log``)."""
        if self._access_handle is None:
            return
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._access_lock:
            if self._access_handle is None:
                return
            self._access_handle.write(line)
            self._access_handle.flush()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        # Track whether the accept loop is live so shutdown_gracefully
        # can skip socketserver.shutdown() when it never started (that
        # call would otherwise block forever waiting for the loop).
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def shutdown_gracefully(self, drain_seconds: float = 10.0) -> None:
        """Stop accepting, drain jobs up to the deadline, close the logs.

        Safe to call from the thread that ran ``serve_forever`` (after
        it returned) or from another thread while it is still running.
        Idempotent — a second call finds everything already closed.
        """
        if self._serving:
            self.shutdown()
        self.jobs.shutdown(drain_seconds=drain_seconds)
        self.server_close()

    def server_close(self) -> None:
        super().server_close()
        # Servers torn down without the graceful path (tests, context
        # managers) still must not leak the store's audit handle or its
        # worker threads' queue sentinels.  socketserver.__init__ calls
        # server_close on bind failure, before these attributes exist —
        # let the original OSError surface instead of an AttributeError.
        jobs = getattr(self, "jobs", None)
        if jobs is not None:
            jobs.shutdown(drain_seconds=0.0)
        if getattr(self, "_access_handle", None) is not None:
            with self._access_lock:
                self._access_handle.close()
                self._access_handle = None


def create_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    session: Optional[Session] = None,
    quiet: bool = False,
    study_root: Optional[Union[str, Path]] = None,
    access_log: Optional[Union[str, Path]] = None,
    job_workers: int = 2,
    job_retention: float = 3600.0,
    audit_log: Optional[Union[str, Path]] = None,
    max_body_mb: float = DEFAULT_MAX_BODY_MB,
) -> ApiServer:
    """Build (but do not start) the batch service.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``; tests use this to avoid collisions.
    """
    return ApiServer(
        (host, port), session or Session(), quiet=quiet,
        study_root=study_root, access_log=access_log,
        job_workers=job_workers, job_retention=job_retention,
        audit_log=audit_log, max_body_mb=max_body_mb,
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    session: Optional[Session] = None,
    quiet: bool = False,
    study_root: Optional[Union[str, Path]] = None,
    access_log: Optional[Union[str, Path]] = None,
    job_workers: int = 2,
    job_retention: float = 3600.0,
    audit_log: Optional[Union[str, Path]] = None,
    max_body_mb: float = DEFAULT_MAX_BODY_MB,
    drain_seconds: float = 10.0,
) -> int:
    """Run the service until interrupted (the ``repro serve`` entry point).

    SIGTERM and SIGINT both trigger the graceful path: stop accepting,
    cancel queued jobs, drain running ones up to ``drain_seconds``, and
    flush the access/audit logs before returning.
    """
    server = create_server(
        host=host, port=port, session=session, quiet=quiet,
        study_root=study_root, access_log=access_log,
        job_workers=job_workers, job_retention=job_retention,
        audit_log=audit_log, max_body_mb=max_body_mb,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"repro {__version__} serving on http://{bound_host}:{bound_port}  "
          f"(POST {', '.join(sorted(POST_ROUTES))}, /v1/jobs; "
          f"GET /v1/health, /v1/jobs, /v1/metrics, /v1/stats)")

    def _raise_shutdown(signum, frame):
        raise _ShutdownRequest(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _raise_shutdown)
        except ValueError:
            # Not the main thread (embedded/test use); Ctrl-C still
            # lands as KeyboardInterrupt below.
            pass
    try:
        server.serve_forever()
    except _ShutdownRequest as exc:
        print(f"\n{exc.args[0]}: draining jobs (up to {drain_seconds:g}s) "
              f"and shutting down")
    except KeyboardInterrupt:
        print(f"\nSIGINT: draining jobs (up to {drain_seconds:g}s) "
              f"and shutting down")
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        server.shutdown_gracefully(drain_seconds=drain_seconds)
    return 0
