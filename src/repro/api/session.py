"""The :class:`Session` facade: one engine, warm caches, typed requests.

Before this layer existed every entry point hand-assembled its own
``AcceleratorConfig`` + ``ExperimentRunner``/``StudyRunner`` +
``SimulationEngine`` stack.  A session resolves the engine knobs exactly
once (explicit argument > ``REPRO_*`` env var > default, via
:func:`repro.engine.resolve_engine_options`), builds exactly one
:class:`~repro.engine.SimulationEngine` with the in-process result memo
enabled, and serves every workflow through it:

* ``simulate()`` / ``roofline()`` / ``scale()`` / ``sweep()`` /
  ``explore()`` — typed convenience wrappers that build the matching
  request;
* ``submit(request)`` — the single dispatch point the CLI, the
  ``repro serve`` batch service and programmatic callers all use.

Everything expensive is cached across calls: training traces (keyed by
workload + trace parameters), per-configuration runners, and — through
the engine memo — every simulated layer result.  Two identical requests
therefore train once and simulate once; the second is pure cache hits,
which the per-request :class:`~repro.engine.EngineStats` delta in the
:class:`~repro.api.schema.ApiResult` envelope makes visible.

Sessions are thread-safe: ``submit`` serialises execution under a lock,
so a multi-threaded server shares one warm cache safely.

Quickstart::

    from repro.api import Session

    session = Session(cache_dir="/tmp/repro-cache")   # knobs optional
    first = session.simulate("snli", epochs=1)
    again = session.simulate("snli", epochs=1)        # no retrain, no resim
    print(first.result.speedups["Total"], again.engine["cache_hits"])
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.api.schema import (
    SCHEMA_VERSION,
    ApiResult,
    DiffRequest,
    DiffResult,
    ExploreRequest,
    ExploreResult,
    SchemaError,
    RooflineRequest,
    RooflineResult,
    ScaleRequest,
    ScaleResult,
    SimulateRequest,
    SimulateResult,
    SweepRequest,
    SweepResult,
    _ApiModel,
)
from repro.core.config import AcceleratorConfig
from repro.engine.engine import SimulationEngine
from repro.engine.options import EngineOptions, resolve_engine_options
from repro.models.registry import trace_workload
from repro.simulation.runner import ExperimentRunner
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import configure as configure_telemetry
from repro.telemetry.tracing import get_tracer

Progress = Optional[Callable[[str], None]]

#: Structured per-unit-of-work hook: receives one dict per completed
#: study point (or scale reference/device pass).  Unlike ``progress``
#: (human-readable lines), events are machine-shaped — the job layer
#: forwards them verbatim onto each job's SSE stream.
EventHook = Optional[Callable[[Dict], None]]


class Session:
    """A long-lived facade over one simulation engine.

    Parameters
    ----------
    cache_dir / telemetry_dir:
        Engine knobs; ``None`` falls back to the ``REPRO_CACHE_DIR`` /
        ``REPRO_TELEMETRY_DIR`` environment
        variables, then the defaults.  Several processes may share one
        ``cache_dir``, which holds both the layer-result cache and the
        trace store (:mod:`repro.training.store`), so a new session on a
        warm directory neither retrains nor re-simulates;
        ``telemetry_dir`` enables the
        process-wide span tracer (:mod:`repro.telemetry`) and every
        ``submit`` then records a ``session.submit`` span tree plus a
        metrics snapshot to the JSONL event log there.
    study_jobs:
        Default worker-process count for study execution (``repro
        explore`` / ``repro sweep``); ``None`` falls back to
        ``REPRO_STUDY_JOBS``, then serial.  Per-request ``study_jobs``
        fields override it.
    seed:
        Default model/dataset seed for requests that leave ``seed``
        unset (the CLI default is 0, so identical invocations produce
        identical traces and therefore cache hits).
    environ:
        Environment mapping for option resolution (tests pass a dict).
    max_cached_traces:
        Training traces kept warm, least-recently-used first out.
        Traces hold full operand masks — by far the largest cached
        object — so a long-lived server facing many distinct
        (model, trace-parameter) combinations stays bounded.  The layer
        result memo keeps only small per-layer cycle/traffic records and
        is left unbounded.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
        study_jobs: Optional[int] = None,
        seed: int = 0,
        environ: Optional[Dict[str, str]] = None,
        max_cached_traces: int = 16,
    ):
        self.options: EngineOptions = resolve_engine_options(
            cache_dir=cache_dir,
            telemetry_dir=telemetry_dir,
            study_jobs=study_jobs, environ=environ,
        )
        if self.options.telemetry_dir:
            # Enable (or reuse) the process-wide tracer; sessions built
            # without a telemetry_dir leave the global state alone.
            configure_telemetry(self.options.telemetry_dir)
        self.seed = 0 if seed is None else int(seed)
        self.engine = SimulationEngine(
            cache_dir=self.options.cache_dir, memory_cache=True
        )
        self._traces: "OrderedDict[Tuple, object]" = OrderedDict()
        self._max_cached_traces = max(1, int(max_cached_traces))
        self._runners: Dict[Tuple[str, int], ExperimentRunner] = {}
        self._lock = threading.RLock()
        #: Cache label for the in-flight request's engine-stats delta
        #: (handlers attaching a request-scoped disk cache update it).
        self._request_cache_dir: Optional[str] = self.options.cache_dir
        self._started = time.time()
        self.requests_served = 0
        self._handlers = {
            SimulateRequest.kind: self._run_simulate,
            RooflineRequest.kind: self._run_roofline,
            ScaleRequest.kind: self._run_scale,
            SweepRequest.kind: self._run_sweep,
            ExploreRequest.kind: self._run_explore,
            DiffRequest.kind: self._run_diff,
        }

    # ------------------------------------------------------------------
    # caches

    def _trace(
        self, model: str, epochs: int, batches_per_epoch: int,
        batch_size: int, seed: int, trace_max_batch: Optional[int] = None,
    ):
        """Train-and-trace one workload, memoised with LRU eviction.

        The LRU sits above the on-disk trace store of the session's
        ``cache_dir``; the ``session.trace`` span's ``source`` attribute
        names the tier that served the trace (memo, store or trained).
        """
        key = (model, epochs, batches_per_epoch, batch_size, seed,
               trace_max_batch)
        with get_tracer().span(
            "session.trace", model=model, epochs=epochs,
            batches_per_epoch=batches_per_epoch, batch_size=batch_size,
        ) as span:
            if key in self._traces:
                self._traces.move_to_end(key)
                span.set(source="memo")
            else:
                self._traces[key] = trace_workload(
                    model, epochs=epochs, batches_per_epoch=batches_per_epoch,
                    batch_size=batch_size, seed=seed,
                    trace_max_batch=trace_max_batch,
                    cache_dir=self.options.cache_dir,
                )
                while len(self._traces) > self._max_cached_traces:
                    self._traces.popitem(last=False)
        _metrics.CACHED_TRACES.set(len(self._traces))
        return self._traces[key]

    def _runner(self, config: AcceleratorConfig, max_groups: int) -> ExperimentRunner:
        """A per-configuration runner sharing the session engine."""
        key = (repr(config), max_groups)
        if key not in self._runners:
            self._runners[key] = ExperimentRunner(
                config, max_groups=max_groups, engine=self.engine
            )
        return self._runners[key]

    def _seed_for(self, request) -> int:
        return self.seed if request.seed is None else request.seed

    # ------------------------------------------------------------------
    # public API

    def submit(
        self, request: _ApiModel, progress: Progress = None,
        on_event: EventHook = None,
    ) -> ApiResult:
        """Execute any request and return its :class:`ApiResult` envelope.

        ``progress`` receives human-readable status lines (training
        banners, per-point study progress); pass ``print`` for CLI-style
        output, ``None`` for silence.  ``on_event`` receives one
        structured dict per completed study point or scale device pass —
        the hook the job layer (:mod:`repro.jobs`) turns into SSE
        events; either callback may raise to abort the request at that
        boundary (how cooperative job cancellation works).  The
        envelope's ``engine`` field is the stats *delta* for this
        request alone, so cache effectiveness stays observable on a
        shared warm engine.
        """
        handler = self._handlers.get(getattr(request, "kind", None))
        if handler is None:
            raise TypeError(
                f"unsupported request type {type(request).__name__!r}; "
                f"expected one of {sorted(self._handlers)}"
            )
        tracer = get_tracer()
        with self._lock:
            request.validate()
            before = self.engine.stats.snapshot()
            self._request_cache_dir = before.cache_dir
            start = time.perf_counter()
            with tracer.span(
                "session.submit", kind=request.kind,
                model=getattr(request, "model", None),
            ) as span:
                result = handler(request, progress, on_event)
                elapsed = time.perf_counter() - start
                delta = self.engine.stats.since(before)
                span.set(
                    elapsed_seconds=round(elapsed, 6),
                    layers_simulated=delta.layers_simulated,
                    cache_hits=delta.cache_hits,
                )
            _metrics.REQUESTS_TOTAL.inc(kind=request.kind)
            _metrics.REQUEST_SECONDS.observe(elapsed, kind=request.kind)
            if tracer.enabled:
                tracer.emit_metrics(_metrics.get_registry())
            # A handler may have attached a request-scoped disk cache
            # (explore's <study_dir>/cache); the delta's metadata must
            # name the cache the work actually ran against, not the
            # already-detached state.
            delta.cache_dir = self._request_cache_dir
            # Study documents embed engine stats; make them the
            # per-request delta so a warm session reports this call's
            # work, not the engine's lifetime totals.
            if isinstance(result, (SweepResult, ExploreResult)):
                result.study["engine"] = delta.as_dict()
            self.requests_served += 1
            return ApiResult(
                kind=request.kind,
                result=result,
                engine=delta.as_dict(),
                elapsed_seconds=elapsed,
            )

    def simulate(self, model: str, progress: Progress = None, **params) -> ApiResult:
        """Build and submit a :class:`SimulateRequest` for ``model``."""
        return self.submit(SimulateRequest(model=model, **params), progress=progress)

    def roofline(self, model: str, progress: Progress = None, **params) -> ApiResult:
        """Build and submit a :class:`RooflineRequest` for ``model``."""
        return self.submit(RooflineRequest(model=model, **params), progress=progress)

    def scale(self, model: str, progress: Progress = None, **params) -> ApiResult:
        """Build and submit a :class:`ScaleRequest` for ``model``."""
        return self.submit(ScaleRequest(model=model, **params), progress=progress)

    def sweep(
        self, model: str, knob: str = "rows", values: Optional[List] = None,
        progress: Progress = None, **params,
    ) -> ApiResult:
        """Build and submit a :class:`SweepRequest` for ``model``."""
        request = SweepRequest(
            model=model, knob=knob,
            **({"values": list(values)} if values is not None else {}),
            **params,
        )
        return self.submit(request, progress=progress)

    def explore(self, spec, progress: Progress = None, **params) -> ApiResult:
        """Build and submit an :class:`ExploreRequest` for a spec/dict."""
        payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        return self.submit(ExploreRequest(spec=payload, **params), progress=progress)

    def diff(self, a: Dict, b: Dict, progress: Progress = None, **params) -> ApiResult:
        """Build and submit a :class:`DiffRequest` for two documents."""
        return self.submit(DiffRequest(a=dict(a), b=dict(b), **params), progress=progress)

    def stats(self) -> Dict[str, object]:
        """Session-lifetime counters (the ``/v1/stats`` payload).

        Deliberately lock-free: it reads a handful of counters, and the
        stats endpoint must answer while a long ``submit`` holds the
        session lock — that is exactly when an operator wants to look.
        """
        return {
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "uptime_seconds": time.time() - self._started,
            "requests_served": self.requests_served,
            "options": self.options.as_dict(),
            "default_seed": self.seed,
            "cached_traces": len(self._traces),
            "cached_runners": len(self._runners),
            "engine": self.engine.stats.as_dict(),
            "telemetry": get_tracer().describe(),
        }

    @property
    def started_at(self) -> float:
        """Unix time this session was built (for uptime reporting)."""
        return self._started

    # ------------------------------------------------------------------
    # request handlers

    def _run_simulate(
        self, request: SimulateRequest, progress: Progress,
        on_event: EventHook = None,
    ) -> SimulateResult:
        emit = progress or (lambda message: None)
        config = AcceleratorConfig().with_pe(datatype=request.datatype)
        emit(f"Accelerator: {config.describe()}")
        emit(f"Training {request.model} for {request.epochs} epoch(s)...")
        trace = self._trace(
            request.model, request.epochs, request.batches_per_epoch,
            request.batch_size, self._seed_for(request),
        )
        runner = self._runner(config, request.max_groups)
        model_result = runner.run_final_epoch(trace)
        potentials = ExperimentRunner.potential_speedups_from_trace(trace.final_epoch())
        report = runner.energy_report(model_result)
        return SimulateResult(
            model=request.model,
            config=config.describe(),
            potentials=potentials,
            speedups=model_result.per_operation_speedups(),
            core_energy_efficiency=report.core_efficiency,
            overall_energy_efficiency=report.overall_efficiency,
        )

    def _run_roofline(
        self, request: RooflineRequest, progress: Progress,
        on_event: EventHook = None,
    ) -> RooflineResult:
        from repro.analysis.roofline import roofline_report

        emit = progress or (lambda message: None)
        config = AcceleratorConfig().with_pe(datatype=request.datatype)
        dram_bandwidth = request.dram_bandwidth_gbps
        if dram_bandwidth is None:
            dram_bandwidth = config.memory.peak_dram_bandwidth_gbps
        config = config.with_hierarchy(
            dram_bandwidth_gbps=dram_bandwidth,
            sram_bandwidth_gbps=request.sram_bandwidth_gbps,
            sram_kb=request.sram_kb,
        )
        emit(f"Accelerator: {config.describe()}")
        emit(f"Training {request.model} for {request.epochs} epoch(s)...")
        trace = self._trace(
            request.model, request.epochs, request.batches_per_epoch,
            request.batch_size, self._seed_for(request),
        )
        runner = self._runner(config, request.max_groups)
        model_result = runner.run_final_epoch(trace)
        report = roofline_report(model_result, config)
        bound_counts = model_result.bound_counts()
        stalls = model_result.stall_cycles()
        cycles = model_result.cycles()
        compute_speedup = 1.0
        compute_tensordash = cycles["tensordash"] - stalls["tensordash"]
        if compute_tensordash:
            compute_speedup = (
                cycles["baseline"] - stalls["baseline"]
            ) / compute_tensordash
        return RooflineResult(
            model=request.model,
            config=config.describe(),
            roofline=report.as_dict(),
            memory_bound_operations=sum(
                n for bound, n in bound_counts.items() if bound != "compute"
            ),
            total_operations=sum(bound_counts.values()),
            stall_fraction=model_result.stall_fraction(),
            speedup=model_result.speedup(),
            compute_speedup=compute_speedup,
        )

    def _run_scale(
        self, request: ScaleRequest, progress: Progress,
        on_event: EventHook = None,
    ) -> ScaleResult:
        from repro.scale import Interconnect, ScaleRunner

        emit = progress or (lambda message: None)
        config = AcceleratorConfig().with_pe(datatype=request.datatype)
        interconnect = Interconnect(
            link_gbps=request.link_gbps,
            hop_latency_cycles=request.hop_latency_cycles,
        )
        emit(f"Accelerator: {config.describe()}")
        emit(f"Scaling: {request.num_devices} device(s), "
             f"{request.partition} partition, {interconnect.describe()}")
        emit(f"Training {request.model} for {request.epochs} epoch(s)...")
        trace = self._trace(
            request.model, request.epochs, request.batches_per_epoch,
            request.batch_size, self._seed_for(request),
            trace_max_batch=request.trace_max_batch,
        )
        # The simulator's own batch clip must not undo a raised trace
        # cap, or data-parallel shards collapse back onto the default.
        from repro.training.trainer import DEFAULT_TRACE_MAX_BATCH

        max_batch = (
            DEFAULT_TRACE_MAX_BATCH
            if request.trace_max_batch is None
            else max(DEFAULT_TRACE_MAX_BATCH, request.trace_max_batch)
        )
        runner = ScaleRunner(
            config=config,
            engine=self.engine,
            max_groups=request.max_groups,
            max_batch=max_batch,
        )
        report = runner.run(
            trace.final_epoch(),
            workload=request.model,
            num_devices=request.num_devices,
            partition=request.partition,
            interconnect=interconnect,
            on_event=on_event,
        )
        return ScaleResult(
            model=request.model,
            config=config.describe(),
            partition=request.partition,
            num_devices=request.num_devices,
            link=interconnect.describe(),
            speedup=report.speedup,
            efficiency=report.efficiency,
            comm_fraction=report.comm_fraction,
            single_device_cycles=report.single_device_cycles,
            scaled_cycles=report.scaled_cycles,
            report=report.as_dict(),
        )

    def _study_runner(self, spec, study_dir=None, emit_trace=True,
                      study_jobs=None):
        """A study runner wired onto the session engine and trace cache.

        ``study_jobs`` (a per-request override, else the session's
        resolved option) fans point groups across worker processes.
        """
        from repro.explore.runner import StudyRunner

        def trace_fn(workload: str):
            return self._trace(
                workload, spec.epochs, spec.batches_per_epoch,
                spec.batch_size, spec.seed,
                trace_max_batch=spec.trace_max_batch,
            )

        if study_jobs is None:
            study_jobs = self.options.study_jobs
        return StudyRunner(
            spec,
            study_dir=study_dir,
            cache_dir=self.options.cache_dir,
            engine=self.engine,
            study_jobs=study_jobs,
            trace_fn=trace_fn,
        )

    def _run_sweep(
        self, request: SweepRequest, progress: Progress,
        on_event: EventHook = None,
    ) -> SweepResult:
        from repro.explore.report import study_to_dict
        from repro.explore.spec import SCALE_KNOBS, StudySpec

        emit = progress or (lambda message: None)
        values = list(request.values)
        objectives = ["speedup", "core_energy_efficiency", "energy_efficiency"]
        if request.knob in SCALE_KNOBS:
            # Scaling sweeps table the scaling curve, not the energy one.
            objectives = ["scaled_speedup", "scaling_efficiency", "comm_fraction"]
        spec = StudySpec(
            name=f"{request.model}-{request.knob}-sweep",
            workloads=[request.model],
            knobs={request.knob: values},
            epochs=request.epochs,
            batches_per_epoch=request.batches_per_epoch,
            batch_size=request.batch_size,
            max_groups=request.max_groups,
            trace_max_batch=request.trace_max_batch,
            seed=self._seed_for(request),
            objectives=objectives,
        )
        emit(f"Training {request.model} once; sweeping {request.knob} over {values}...")
        runner = self._study_runner(spec, study_jobs=request.study_jobs)
        study = runner.run(on_event=on_event)
        # Points executed in study worker processes never touched this
        # engine's counters; fold the exact per-worker deltas in so the
        # request envelope and /v1/stats stay truthful under --study-jobs.
        for delta in runner.worker_stats:
            self.engine.stats.absorb(delta)
        return SweepResult(
            model=request.model,
            knob=request.knob,
            values=values,
            study=study_to_dict(study),
        )

    def _run_explore(
        self, request: ExploreRequest, progress: Progress,
        on_event: EventHook = None,
    ) -> ExploreResult:
        from repro.explore.report import study_to_dict

        spec = request.resolved_spec()
        runner = self._study_runner(
            spec, study_dir=request.study_dir, study_jobs=request.study_jobs
        )
        # Studies with a study_dir persist layer results on disk (the
        # PR 2 contract: a killed study resumes in a *new process* with
        # layer-level cache hits).  The shared engine normally has no
        # disk cache, so attach the study's for the duration of the run;
        # an engine-level cache_dir, when configured, wins inside.
        study_cache = Path(request.study_dir) / "cache" if request.study_dir else None
        with self.engine.disk_cache(study_cache) as engine:
            self._request_cache_dir = engine.stats.cache_dir
            study = runner.run(
                resume=request.resume, progress=progress, on_event=on_event
            )
        # As in _run_sweep: worker-process simulation is invisible to the
        # session engine until its exact deltas are absorbed.
        for delta in runner.worker_stats:
            self.engine.stats.absorb(delta)
        return ExploreResult(study=study_to_dict(study, request.objectives))

    def _run_diff(
        self, request: DiffRequest, progress: Progress,
        on_event: EventHook = None,
    ) -> DiffResult:
        """Lineage diff of two embedded documents; pure computation.

        No training or simulation happens here — the handler exists so
        diffs flow through the same session/service plumbing (telemetry,
        metrics, ``/v1/diff``) as every other request kind.
        """
        from repro.lineage.bench import (
            DEFAULT_BENCH_TOLERANCE,
            diff_bench,
            load_bench_side,
        )
        from repro.lineage.diff import HELD, REGRESSED, diff_snapshots
        from repro.lineage.snapshot import ManifestSnapshot, SnapshotError

        emit = progress or (lambda message: None)
        if request.mode == "bench":
            tolerance = (
                request.tolerance
                if request.tolerance is not None
                else DEFAULT_BENCH_TOLERANCE
            )
            try:
                a_label, a_docs = load_bench_side(request.a, request.a_label or "a")
                b_label, b_docs = load_bench_side(request.b, request.b_label or "b")
            except ValueError as exc:
                raise SchemaError("DiffRequest", str(exc)) from exc
            diff = diff_bench(
                a_docs, b_docs, tolerance=tolerance,
                a_source=a_label, b_source=b_label,
            )
            summary = diff.summary()
            emit(
                f"Watched {summary['watched']} BENCH metric(s): "
                f"{summary['regressed']} regressed, "
                f"{summary['improved']} improved"
            )
            return DiffResult(
                mode="bench",
                a=diff.a_source,
                b=diff.b_source,
                tolerance=tolerance,
                identical=diff.identical,
                regressions=diff.regressions,
                changed=sum(
                    1 for row in diff.rows if row["classification"] != HELD
                ),
                summary=summary,
                deltas=[dict(row) for row in diff.rows],
                warnings=list(diff.warnings),
            )
        tolerance = request.tolerance if request.tolerance is not None else 0.0
        ignore = tuple(request.ignore or ())
        snapshots = []
        for side in ("a", "b"):
            label = getattr(request, f"{side}_label") or side
            try:
                snapshots.append(
                    ManifestSnapshot.from_payload(
                        getattr(request, side), source=label, ignore=ignore
                    )
                )
            except SnapshotError as exc:
                raise SchemaError(f"DiffRequest.{side}", str(exc)) from exc
        diff = diff_snapshots(
            snapshots[0], snapshots[1],
            tolerance=tolerance, objectives=request.objectives,
        )
        emit(
            f"Matched {diff.matched} point(s): "
            f"{diff.count(REGRESSED)} regressed, {len(diff.deltas)} delta(s)"
        )
        return DiffResult(
            mode="study",
            a=diff.a_source,
            b=diff.b_source,
            tolerance=tolerance,
            identical=diff.identical,
            regressions=(
                diff.count(REGRESSED)
                + len(diff.removed)
                + len(diff.frontier.get("left", []))
            ),
            changed=len(diff.deltas) + len(diff.added) + len(diff.removed),
            summary=diff.summary(),
            deltas=[delta.to_dict() for delta in diff.deltas],
            added=list(diff.added),
            removed=list(diff.removed),
            frontier=dict(diff.frontier),
            attribution=[dict(entry) for entry in diff.attribution],
            warnings=list(diff.warnings),
        )
