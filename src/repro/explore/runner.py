"""Study execution: expand a spec, simulate every point, checkpoint, resume.

:class:`StudyRunner` is the engine-room of the exploration subsystem.  It
trains/traces each workload once, imposes the spec's sparsity scenarios,
and dispatches every design point through the same
:class:`~repro.engine.SimulationEngine` substrate the rest of the repo
uses — including the content-addressed result cache, so warm points cost
zero re-simulation.  Points sharing an accelerator configuration are
batched into one engine pass (:meth:`ExperimentRunner.run_batch`), which
fuses layers across workloads into shared scheduling batches.

Studies are resumable: with a ``study_dir`` the runner appends one
fsync'd JSONL record per completed point to a manifest *segment*
(checkpoint cost is O(N) over the study, not O(N²) of rewriting a
manifest per point) and defaults the engine cache into the same
directory.  The segment is compacted into the manifest at study end
and on resume; a killed study restarted with ``resume=True`` reloads
the union of compacted + appended records and skips every finished
point, and layers simulated before the kill come back as cache hits —
nothing is ever simulated twice.  An unreadable or foreign-version
checkpoint is refused with :class:`StudyResumeError` and left as it
is.  The on-disk format lives in :mod:`repro.explore.manifest`.

Every point runs through the study's one engine, and
:attr:`StudyResult.stats` is that engine's activity during the run.
With ``study_jobs > 1`` the remaining point groups fan out across a
pool of worker processes (:class:`~repro.explore.executor.StudyExecutor`),
each owning an engine on the same disk cache; results merge
deterministically in point order and each worker's exact engine-stats
delta is absorbed into the study's engine as its results merge.
``study_jobs=1`` (the default) is byte-for-byte today's serial path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.frontier import Objective, best_per_objective, pareto_frontier
from repro.energy.area_model import AreaModel
from repro.engine.engine import EngineStats, SimulationEngine
from repro.memory.hierarchy import bytes_per_cycle
from repro.explore import manifest
from repro.explore.scenarios import apply_scenario
from repro.explore.spec import DesignPoint, StudySpec, parse_objectives
from repro.simulation.runner import ExperimentRunner, simulation_max_batch
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import get_tracer
from repro.training.tracing import EpochTrace


class StudyResumeError(ValueError):
    """Raised when a manifest cannot be resumed: the spec changed, or a
    checkpoint file is unreadable or from another format version."""


@dataclass
class PointResult:
    """Recorded outcome of one design point."""

    point_id: str
    workload: str
    scenario: str
    knobs: List[List]
    label: str
    config_label: str
    metrics: Dict[str, float]

    def to_dict(self) -> Dict:
        return {
            "point_id": self.point_id,
            "workload": self.workload,
            "scenario": self.scenario,
            "knobs": [list(pair) for pair in self.knobs],
            "label": self.label,
            "config_label": self.config_label,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PointResult":
        return cls(
            point_id=payload["point_id"],
            workload=payload["workload"],
            scenario=payload["scenario"],
            knobs=[list(pair) for pair in payload["knobs"]],
            label=payload["label"],
            config_label=payload["config_label"],
            metrics={k: float(v) for k, v in payload["metrics"].items()},
        )


def _metric_key(point: PointResult, objective: Objective) -> float:
    try:
        return point.metrics[objective.name]
    except KeyError:
        raise ValueError(
            f"objective {objective.name!r} is not a recorded metric; "
            f"this study records: {sorted(point.metrics)}"
        ) from None


@dataclass
class StudyResult:
    """A completed (or resumed-to-completion) study."""

    spec: StudySpec
    points: List[PointResult]
    stats: EngineStats
    #: Points restored from the manifest instead of being simulated.
    resumed_points: int = 0

    def objectives(self, names: Optional[Sequence[str]] = None) -> List[Objective]:
        """Oriented objectives — the spec's, unless ``names`` overrides."""
        return parse_objectives(list(names) if names else self.spec.objectives)

    def frontier(self, names: Optional[Sequence[str]] = None) -> List[PointResult]:
        """The Pareto-optimal points under the chosen objectives."""
        return pareto_frontier(self.points, self.objectives(names), key=_metric_key)

    def best_per_objective(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, PointResult]:
        """The single best point for each objective."""
        return best_per_objective(self.points, self.objectives(names), key=_metric_key)


class StudyRunner:
    """Expands and executes a :class:`StudySpec`, checkpointing as it goes.

    Parameters
    ----------
    spec:
        The validated study specification.
    study_dir:
        Directory for the study manifest and (by default) the engine's
        result cache.  ``None`` runs fully in memory with no
        checkpointing — fine for small sweeps, required for ``resume``.
    cache_dir:
        Engine flag, identical to every other entry point.  With a
        ``study_dir`` and no explicit ``cache_dir`` the cache lands in
        ``<study_dir>/cache`` so resumed studies get layer-level hits.
    engine:
        The one :class:`~repro.engine.SimulationEngine` every point runs
        through — how :class:`repro.api.Session` makes studies share
        its warm cache.  ``None`` builds one on ``cache_dir``.  An
        engine without a disk cache of its own gets ``cache_dir``
        attached for each :meth:`run`.  Either way the study's stats
        count only the run's own work on it.
    study_jobs:
        Worker processes to fan point groups across; ``None`` or ``1``
        runs serially in this process.
    trace_fn:
        Optional ``workload name -> TrainingTrace`` provider overriding
        the built-in train-and-trace step — e.g. a session-level trace
        cache.  The provider must honour the spec's trace parameters.
    """

    def __init__(
        self,
        spec: StudySpec,
        study_dir: Optional[Union[str, Path]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        engine=None,
        study_jobs: Optional[int] = None,
        trace_fn: Optional[Callable[[str], object]] = None,
    ):
        if study_jobs is not None and study_jobs < 1:
            raise ValueError(f"study_jobs must be >= 1, got {study_jobs}")
        self.spec = spec
        self.study_dir = Path(study_dir) if study_dir else None
        self.study_jobs = study_jobs or 1
        self._trace_fn = trace_fn
        if self.study_dir is not None:
            try:
                self.study_dir.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise NotADirectoryError(
                    f"study directory {self.study_dir} exists but is not a directory"
                ) from exc
            if cache_dir is None:
                cache_dir = self.study_dir / "cache"
        self.cache_dir = str(cache_dir) if cache_dir else None
        if engine is None:
            engine = SimulationEngine(
                cache_dir=self.cache_dir, max_groups=spec.max_groups
            )
        self.engine = engine
        self._traces: Dict[str, object] = {}
        self._scenario_traces: Dict[tuple, EpochTrace] = {}
        self._segment: Optional[manifest.SegmentWriter] = None

    # ------------------------------------------------------------------
    def _load_checkpoint(self) -> Dict[str, PointResult]:
        """Every checkpointed record: compacted manifest ∪ appended segment.

        An unreadable or foreign-version file is refused, not skipped,
        and left untouched for the user to inspect.
        """
        records: Dict[str, PointResult] = {}
        for path in manifest.checkpoint_files(self.study_dir):
            try:
                checkpoint = manifest.read_checkpoint(path)
                loaded = [PointResult.from_dict(r) for r in checkpoint.records]
            except manifest.CheckpointError as exc:
                raise StudyResumeError(f"cannot resume: {exc}") from None
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise StudyResumeError(
                    f"cannot resume: {path}: malformed point record ({exc!r})"
                ) from None
            # A segment killed before its header landed holds nothing.
            fingerprint = checkpoint.spec_fingerprint
            if checkpoint.version is not None and (
                fingerprint != self.spec.fingerprint()
            ):
                raise StudyResumeError(
                    f"study manifest {path} was written for a different spec "
                    f"(fingerprint {fingerprint!r} != "
                    f"{self.spec.fingerprint()!r}); use a fresh --study-dir "
                    f"or rerun without --resume"
                )
            records.update((record.point_id, record) for record in loaded)
        return records

    def _close_segment(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def _compact(self, completed: Dict[str, PointResult]) -> None:
        """One atomic manifest rewrite; the segment is folded in.

        Runs at study end and when a resume finds appended records, so
        steady state is always a single compact manifest — and per-point
        checkpoint cost stays an O(1) append in between.
        """
        if self.study_dir is None:
            return
        self._close_segment()
        records = [record.to_dict() for record in completed.values()]
        manifest.compact(self.study_dir, self.spec.to_dict(),
                         self.spec.fingerprint(), records)

    # ------------------------------------------------------------------
    def _trace(self, workload: str):
        """Train (or load from the trace store) one workload, once per study."""
        if workload not in self._traces:
            if self._trace_fn is not None:
                self._traces[workload] = self._trace_fn(workload)
            else:
                from repro.models.registry import trace_workload

                spec = self.spec
                self._traces[workload] = trace_workload(
                    workload,
                    epochs=spec.epochs,
                    batches_per_epoch=spec.batches_per_epoch,
                    batch_size=spec.batch_size,
                    seed=spec.seed,
                    trace_max_batch=spec.trace_max_batch,
                    cache_dir=self.cache_dir,
                )
        return self._traces[workload]

    def _scenario_trace(self, workload: str, scenario: str) -> EpochTrace:
        key = (workload, scenario)
        if key not in self._scenario_traces:
            trace = self._trace(workload)
            self._scenario_traces[key] = apply_scenario(
                trace.final_epoch(), scenario, seed=self.spec.seed
            )
        return self._scenario_traces[key]

    def _runner_for(self, point: DesignPoint) -> ExperimentRunner:
        return ExperimentRunner(
            point.config(),
            max_groups=self.spec.max_groups,
            max_batch=simulation_max_batch(self.spec.trace_max_batch),
            engine=self.engine,
        )

    def _measure(self, point: DesignPoint, runner: ExperimentRunner, model_result) -> PointResult:
        config = point.config()
        report = runner.energy_report(model_result, power_gated=config.power_gated)
        area = AreaModel(config)
        dram_bytes = model_result.effective_dram_bytes()
        metrics = {
            "speedup": model_result.speedup(),
            "energy_efficiency": report.overall_efficiency,
            "core_energy_efficiency": report.core_efficiency,
            "area_overhead": area.compute_overhead(),
            "chip_area_overhead": area.chip_overhead(),
            "baseline_energy_pj": report.baseline.total_pj,
            "tensordash_energy_pj": report.tensordash.total_pj,
            # Memory-hierarchy metrics: zero stalls / compute-bound under
            # the default unbounded hierarchy, meaningful whenever the
            # point sweeps dram_bandwidth_gbps or sram_kb.
            "stall_fraction": model_result.stall_fraction(),
            "dram_bytes": float(dram_bytes),
            "memory_bound_fraction": model_result.memory_bound_fraction(),
            # Finite even when no DRAM traffic was recorded (0.0, not inf),
            # so manifests stay strict-JSON parseable.
            "operational_intensity": (
                model_result.total_macs() / dram_bytes if dram_bytes else 0.0
            ),
        }
        if config.hierarchy.dram_bandwidth_gbps is not None:
            metrics["ridge_point"] = config.macs_per_cycle / bytes_per_cycle(
                config.hierarchy.dram_bandwidth_gbps, config.frequency_mhz
            )
        plan = point.scale_plan()
        if plan is not None:
            metrics.update(self._scale_metrics(point, runner, plan))
        return PointResult(
            point_id=point.point_id,
            workload=point.workload,
            scenario=point.scenario,
            knobs=[list(pair) for pair in point.knobs],
            label=point.label,
            config_label=point.config_label,
            metrics=metrics,
        )

    def _scale_metrics(
        self, point: DesignPoint, runner: ExperimentRunner, plan: Dict
    ) -> Dict[str, float]:
        """Multi-device metrics for a point carrying scaling knobs.

        The scale pass shares the study's engine, so the single-device
        reference simulation is served from whatever cache stack the
        study has (and re-simulated only on a fully cache-less engine).
        Absent plan entries default to one device, the ``data``
        partition and the default interconnect; a ``link_gbps`` knob
        swaps the link bandwidth but keeps the default hop latency.
        """
        from repro.scale import Interconnect, ScaleRunner

        link = plan.get("link_gbps")
        interconnect = (
            Interconnect.default()
            if link is None
            else Interconnect(
                link_gbps=float(link),
                hop_latency_cycles=Interconnect.default().hop_latency_cycles,
            )
        )
        scale_runner = ScaleRunner(
            config=point.config(),
            engine=self.engine,
            max_groups=self.spec.max_groups,
            max_batch=runner.max_batch,
        )
        report = scale_runner.run(
            self._scenario_trace(point.workload, point.scenario),
            workload=point.workload,
            num_devices=int(plan.get("num_devices", 1)),
            partition=str(plan.get("partition", "data")),
            interconnect=interconnect,
        )
        return {
            "num_devices": float(report.num_devices),
            "scaled_speedup": report.speedup,
            "scaling_efficiency": report.efficiency,
            "comm_fraction": report.comm_fraction,
        }

    def _execute_group(self, group: List[DesignPoint]) -> List[PointResult]:
        """Run one same-config point group through a batched engine pass.

        Pure compute: no checkpointing or metrics — the caller records
        each result (in the parent process, whichever process executed
        the group).  Spans still trace the work; inside a study worker
        the tracer is disabled, so only parent-side spans reach the log.
        """
        tracer = get_tracer()
        runner = self._runner_for(group[0])
        traced = [
            (point.workload, self._scenario_trace(point.workload, point.scenario))
            for point in group
        ]
        with tracer.span(
            "study.batch", study=self.spec.name,
            config=group[0].config_label, points=len(group),
        ):
            batch_results = runner.run_batch(traced)
        records = []
        for point, model_result in zip(group, batch_results):
            with tracer.span(
                "study.point", point_id=point.point_id,
                workload=point.workload, scenario=point.scenario,
                worker=0,
            ) as span:
                record = self._measure(point, runner, model_result)
                span.set(speedup=round(record.metrics["speedup"], 6))
            records.append(record)
        return records

    # ------------------------------------------------------------------
    def run(
        self,
        resume: bool = False,
        progress: Optional[Callable[[str], None]] = None,
        on_event: Optional[Callable[[Dict], None]] = None,
    ) -> StudyResult:
        """Execute the study and return every point's recorded metrics.

        With ``resume=True`` previously completed points are restored
        from the manifest without re-simulation (a ``study_dir`` is
        required — there is nowhere to read a manifest from otherwise,
        and :class:`StudyResumeError` is raised); the engine cache
        additionally serves any layer simulated before an interruption
        mid-point.

        ``on_event`` receives one structured dict per completed point
        (``{"type": "point", "done": n, "total": m, ...}``), fired in
        the parent process *after* the point is checkpointed to the
        manifest segment.  Either callback may raise to abort the study
        at that boundary — completed points stay checkpointed, so a
        later ``resume=True`` run skips them (how job cancellation
        composes with resumability).

        The result's ``stats`` are the engine's activity during this
        call, so a study on a warm shared engine reports its own work.
        """
        emit = progress or (lambda message: None)
        notify = on_event or (lambda event: None)
        before = self.engine.stats.snapshot()
        points = self.spec.expand()
        completed: Dict[str, PointResult] = {}
        # Every record the manifest will hold — a superset of `completed`
        # when resuming a sampled subset, so records for points outside
        # the current expansion are preserved, not discarded.
        stored: Dict[str, PointResult] = {}
        if resume and self.study_dir is None:
            raise StudyResumeError(
                "resume requested but this runner has no study_dir "
                "(nowhere to read a manifest from)"
            )
        if resume:
            stored = self._load_checkpoint()
            valid_ids = {point.point_id for point in points}
            completed = {
                point_id: record
                for point_id, record in stored.items()
                if point_id in valid_ids
            }
            if manifest.segment_path(self.study_dir).exists():
                # Fold interrupted-run appends into the compact manifest
                # now, so a segment never survives two generations.
                self._compact(stored)
        resumed = len(completed)
        if resumed:
            emit(f"resuming: {resumed}/{len(points)} points already complete")

        # Group the remaining points by accelerator configuration so each
        # group becomes one batched engine pass over its pre-traced
        # workloads (one shared runner, one cache namespace per config).
        groups: "OrderedDict[str, List[DesignPoint]]" = OrderedDict()
        for point in points:
            if point.point_id in completed:
                continue
            groups.setdefault(repr(point.config()), []).append(point)

        done = resumed
        total = len(points)
        tracer = get_tracer()

        def record_point(record: PointResult) -> None:
            nonlocal done
            completed[record.point_id] = record
            stored[record.point_id] = record
            if self._segment is not None:
                self._segment.append(record.to_dict())
            _metrics.STUDY_POINTS.inc()
            _metrics.STALL_FRACTION.observe(record.metrics["stall_fraction"])
            done += 1
            emit(f"[{done}/{total}] {record.label}: "
                 f"speedup {record.metrics['speedup']:.3f}x")
            notify({
                "type": "point",
                "done": done,
                "total": total,
                "point_id": record.point_id,
                "workload": record.workload,
                "scenario": record.scenario,
                "label": record.label,
                "speedup": round(record.metrics["speedup"], 6),
            })

        def merge_unit(records, stats, worker: int) -> None:
            for record in records:
                with tracer.span(
                    "study.point", point_id=record.point_id,
                    workload=record.workload, scenario=record.scenario,
                    worker=worker,
                ) as span:
                    span.set(speedup=round(record.metrics["speedup"], 6))
                record_point(record)
            if stats is not None:
                # Worker simulation never touched this engine's counters.
                self.engine.stats.absorb(stats)

        workers = 0
        with self.engine.disk_cache(self.cache_dir):
            try:
                if self.study_dir is not None:  # prior segments were compacted
                    self._segment = manifest.SegmentWriter(
                        self.study_dir, self.spec.fingerprint())
                if self.study_jobs > 1 and groups:
                    from repro.explore.executor import StudyExecutor

                    # Workers never train — memoize every scenario trace
                    # here so the payload ships them ready-made.
                    for group in groups.values():
                        for point in group:
                            self._scenario_trace(point.workload, point.scenario)
                    executor = StudyExecutor(self, jobs=self.study_jobs)
                    workers = executor.run(list(groups.values()), merge_unit)
                _metrics.STUDY_WORKERS.set(workers or 1)
                # Serial path — and the exact finisher for anything a broken
                # pool left behind (completed points are skipped).
                for group in groups.values():
                    pending = [
                        point for point in group if point.point_id not in completed
                    ]
                    if not pending:
                        continue
                    for record in self._execute_group(pending):
                        record_point(record)
            finally:
                self._close_segment()
            # Inside the attachment, so the label names the cache used.
            stats = self.engine.stats.since(before)
        self._compact(stored)

        results = [completed[point.point_id] for point in points]
        return StudyResult(
            spec=self.spec,
            points=results,
            stats=stats,
            resumed_points=resumed,
        )

