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
directory.  The segment is compacted into the classic ``manifest.json``
at study end and on resume; a killed study restarted with
``resume=True`` reloads the union of compacted + appended records and
skips every finished point, and layers simulated before the kill come
back as cache hits — nothing is ever simulated twice.  Manifests
written before the segment existed still load unchanged.

With ``study_jobs > 1`` the remaining point groups fan out across a
pool of worker processes (:class:`~repro.explore.executor.StudyExecutor`),
each owning an engine on the same disk cache; results merge deterministically in point order and per-worker
engine stats aggregate exactly.  ``study_jobs=1`` (the default) is
byte-for-byte today's serial path.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro._atomic import atomic_write
from repro.analysis.frontier import Objective, best_per_objective, pareto_frontier
from repro.energy.area_model import AreaModel
from repro.engine.engine import EngineStats
from repro.memory.hierarchy import bytes_per_cycle
from repro.explore.scenarios import apply_scenario
from repro.explore.spec import DesignPoint, StudySpec, parse_objectives
from repro.simulation.runner import ExperimentRunner
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import get_tracer
from repro.training.tracing import EpochTrace

#: Manifest format version; bump to orphan old manifests.
MANIFEST_VERSION = 1


class StudyResumeError(ValueError):
    """Raised when a manifest cannot be resumed (e.g. the spec changed)."""


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
        An existing :class:`~repro.engine.SimulationEngine` to run every
        point through (``cache_dir`` then only labels reports).
        This is how :class:`repro.api.Session` makes studies share its
        warm cache.
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
        self.engine = engine
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
        self._traces: Dict[str, object] = {}
        self._scenario_traces: Dict[tuple, EpochTrace] = {}
        self._runners: "OrderedDict[str, ExperimentRunner]" = OrderedDict()
        self._worker_stats: List[EngineStats] = []
        self._segment_handle = None

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Optional[Path]:
        """Where the resumable manifest lives (``None`` without a study dir)."""
        if self.study_dir is None:
            return None
        return self.study_dir / "manifest.json"

    @property
    def segment_path(self) -> Optional[Path]:
        """The append-only JSONL checkpoint segment for the current run."""
        if self.study_dir is None:
            return None
        return self.study_dir / "manifest.segment.jsonl"

    @property
    def worker_stats(self) -> List[EngineStats]:
        """Exact per-chunk engine-stats deltas reported by study workers.

        Empty after a serial run.  Work done in worker processes never
        touches the parent engine's counters, so callers owning that
        engine (e.g. a :class:`repro.api.Session`) must absorb these to
        keep their own per-request deltas exact.
        """
        return list(self._worker_stats)

    def _check_fingerprint(self, fingerprint, path: Path) -> None:
        if fingerprint != self.spec.fingerprint():
            raise StudyResumeError(
                f"study manifest {path} was written for a different spec "
                f"(fingerprint {fingerprint!r} != "
                f"{self.spec.fingerprint()!r}); use a fresh --study-dir or "
                f"rerun without --resume"
            )

    def _load_manifest(self) -> Dict[str, PointResult]:
        """Every checkpointed record: compacted manifest ∪ appended segment.

        Pre-segment manifests (just ``manifest.json``) load unchanged;
        segment records win on point-id collision (they are newer).
        """
        path = self.manifest_path
        if path is None:
            return {}
        records: Dict[str, PointResult] = {}
        if path.exists():
            payload = json.loads(path.read_text())
            if payload.get("version") == MANIFEST_VERSION:
                self._check_fingerprint(payload.get("spec_fingerprint"), path)
                records = {
                    point_id: PointResult.from_dict(record)
                    for point_id, record in payload.get("completed", {}).items()
                }
        records.update(self._load_segment())
        return records

    def _load_segment(self) -> Dict[str, PointResult]:
        path = self.segment_path
        if path is None or not path.exists():
            return {}
        records: Dict[str, PointResult] = {}
        header_seen = False
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A kill can truncate the final append mid-line;
                    # every complete record before it is still good.
                    break
                if not header_seen:
                    header_seen = True
                    if (
                        entry.get("kind") != "header"
                        or entry.get("version") != MANIFEST_VERSION
                    ):
                        return {}
                    self._check_fingerprint(entry.get("spec_fingerprint"), path)
                    continue
                if entry.get("kind") == "point":
                    record = PointResult.from_dict(entry["record"])
                    records[record.point_id] = record
        return records

    def _open_segment(self) -> None:
        """Start a fresh segment for this run (prior ones were compacted)."""
        path = self.segment_path
        if path is None:
            return
        handle = path.open("w")
        header = {
            "kind": "header",
            "version": MANIFEST_VERSION,
            "spec_fingerprint": self.spec.fingerprint(),
        }
        handle.write(json.dumps(header) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self._segment_handle = handle

    def _append_segment(self, record: PointResult) -> None:
        """Checkpoint one completed point: a single fsync'd JSONL append."""
        handle = self._segment_handle
        if handle is None:
            return
        handle.write(json.dumps({"kind": "point", "record": record.to_dict()}) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def _close_segment(self) -> None:
        if self._segment_handle is not None:
            self._segment_handle.close()
            self._segment_handle = None

    def _compact(self, completed: Dict[str, PointResult]) -> None:
        """One atomic ``manifest.json`` rewrite; the segment is folded in.

        Runs at study end and when a resume finds appended records, so
        steady state is always a single compact manifest — and per-point
        checkpoint cost stays an O(1) append in between.
        """
        path = self.manifest_path
        if path is None:
            return
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "spec": self.spec.to_dict(),
                "spec_fingerprint": self.spec.fingerprint(),
                "completed": {
                    point_id: record.to_dict()
                    for point_id, record in completed.items()
                },
            },
            indent=2,
        )
        atomic_write(path, payload.encode())
        self._close_segment()
        segment = self.segment_path
        if segment is not None and segment.exists():
            segment.unlink()

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

    def _max_batch(self) -> int:
        """Simulation-time batch clip honouring a raised trace cap."""
        from repro.training.trainer import DEFAULT_TRACE_MAX_BATCH

        if self.spec.trace_max_batch is None:
            return DEFAULT_TRACE_MAX_BATCH
        return max(DEFAULT_TRACE_MAX_BATCH, self.spec.trace_max_batch)

    def _runner_for(self, point: DesignPoint) -> ExperimentRunner:
        config = point.config()
        key = repr(config)
        if key not in self._runners:
            self._runners[key] = ExperimentRunner(
                config,
                max_groups=self.spec.max_groups,
                max_batch=self._max_batch(),
                cache_dir=self.cache_dir,
                engine=self.engine,
            )
        return self._runners[key]

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

        The scale pass shares the point's engine, so the single-device
        reference simulation is served from whatever cache stack the
        study has (and re-simulated only on fully cache-less runners).
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
            engine=runner.engine,
            max_groups=self.spec.max_groups,
            max_batch=self._max_batch(),
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
        """
        emit = progress or (lambda message: None)
        notify = on_event or (lambda event: None)
        points = self.spec.expand()
        completed: Dict[str, PointResult] = {}
        # Every record the manifest will hold — a superset of `completed`
        # when resuming a sampled subset, so records for points outside
        # the current expansion are preserved, not discarded.
        stored: Dict[str, PointResult] = {}
        if resume and self.manifest_path is None:
            raise StudyResumeError(
                "resume requested but this runner has no study_dir "
                "(nowhere to read a manifest from)"
            )
        if resume:
            stored = self._load_manifest()
            valid_ids = {point.point_id for point in points}
            completed = {
                point_id: record
                for point_id, record in stored.items()
                if point_id in valid_ids
            }
            segment = self.segment_path
            if segment is not None and segment.exists():
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
            self._append_segment(record)
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
                self._worker_stats.append(stats)

        workers = 0
        try:
            self._open_segment()
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
        self._compact(stored)

        results = [completed[point.point_id] for point in points]
        return StudyResult(
            spec=self.spec,
            points=results,
            stats=self._aggregate_stats(),
            resumed_points=resumed,
        )

    def _aggregate_stats(self) -> EngineStats:
        """Engine counters summed across every per-config runner + worker.

        Runners sharing one injected engine contribute its counters only
        once (the counters are engine-level, not per-runner) — but note
        that a shared engine's totals then cover the engine's whole
        lifetime, not just this study; callers wanting per-study numbers
        should snapshot/diff with :meth:`EngineStats.since`.  Study
        workers report an exact per-chunk delta as results merge, so the
        parallel totals match what one engine doing all the work would
        have counted.
        """
        totals = EngineStats(cache_dir=self.cache_dir)
        seen = set()
        for runner in self._runners.values():
            if id(runner.engine) in seen:
                continue
            seen.add(id(runner.engine))
            stats = runner.engine_stats
            totals.layers_simulated += stats.layers_simulated
            totals.cache_hits += stats.cache_hits
            totals.cache_misses += stats.cache_misses
        for delta in self._worker_stats:
            totals.absorb(delta)
        return totals


def run_study(
    spec: StudySpec,
    study_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
    study_jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> StudyResult:
    """One-call convenience wrapping :class:`StudyRunner`."""
    runner = StudyRunner(
        spec,
        study_dir=study_dir,
        cache_dir=cache_dir,
        study_jobs=study_jobs,
    )
    return runner.run(resume=resume, progress=progress)
