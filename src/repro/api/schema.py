"""Versioned, JSON-serialisable request/result schema for ``repro.api``.

Every workflow the repository supports — simulate, roofline, sweep,
explore, scale, diff — is described by one request dataclass and answered with
one result dataclass wrapped in an :class:`ApiResult` envelope.  All
types share the same contract:

* ``to_dict()`` produces a plain-JSON document (lists, dicts, scalars)
  tagged with ``kind`` and ``schema_version`` where the type is
  polymorphic;
* ``from_dict()`` validates eagerly and raises :class:`SchemaError`
  naming the offending field (``"SimulateRequest.epochs: ..."``) — never
  a bare ``KeyError`` or ``TypeError``;
* ``from_dict(to_dict(x)) == x`` round-trips exactly, including through
  ``json.dumps``/``json.loads``.

A field's type is its annotation and its bounds are its
``field(metadata=...)``; :func:`repro._fields.check_fields` derives every
per-field check from those on construction, so a type's ``validate()``
holds only the rules that relate two fields or consult another module.

The schema is the wire format of the ``repro serve`` batch service and
the argument format of :meth:`repro.api.Session.submit`; the CLI builds
these requests from its flags, so every entry point speaks one language.
``SCHEMA_VERSION`` is bumped on breaking changes; documents from newer
majors are rejected with a clear error instead of being misread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional

from repro._fields import (
    ABOVE_ZERO,
    AT_LEAST_ONE,
    NON_NEGATIVE,
    NONEMPTY,
    SchemaError,
    check_fields,
)

#: Version of the request/result wire format.  Incremented on breaking
#: changes; ``from_dict`` rejects documents from newer versions.
SCHEMA_VERSION = 1

#: Datatypes the PE model supports (mirrors the CLI choices).
DATATYPES = ("fp32", "bfloat16")


def _plain(value: Any) -> Any:
    """Copy ``value`` into plain-JSON shape (tuples -> lists, dict copies)."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _pop_version(name: str, payload: Dict[str, Any]) -> None:
    """Remove ``schema_version`` from ``payload``, refusing newer majors."""
    version = payload.pop("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise SchemaError(f"{name}.schema_version", f"invalid version {version!r}")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"{name}.schema_version",
            f"document version {version} is newer than this library "
            f"supports (schema {SCHEMA_VERSION}); upgrade repro",
        )


def _require_model(owner: str, model: str) -> None:
    from repro.models.registry import available_models

    if model not in available_models():
        raise SchemaError(
            f"{owner}.model",
            f"unknown workload {model!r}; known: {available_models()}",
        )


def _require_objectives(owner: str, names: List[str]) -> None:
    from repro.explore.spec import parse_objectives

    try:
        parse_objectives(names)
    except ValueError as exc:
        raise SchemaError(f"{owner}.objectives", str(exc)) from exc


# ----------------------------------------------------------------------
# shared (de)serialisation machinery

@dataclass
class _ApiModel:
    """Base for every schema type: dict round-trip + eager validation."""

    #: Wire tag for polymorphic dispatch; ``None`` for context-typed models.
    kind: ClassVar[Optional[str]] = None

    def validate(self) -> None:
        """Raise :class:`SchemaError` on a rule that relates two fields or
        consults another module (per-field rules are checked before)."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON document; ``from_dict`` round-trips it exactly."""
        payload: Dict[str, Any] = {}
        if self.kind is not None:
            payload["kind"] = self.kind
            payload["schema_version"] = SCHEMA_VERSION
        for spec in dataclasses.fields(self):
            payload[spec.name] = _plain(getattr(self, spec.name))
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "_ApiModel":
        """Build and validate an instance from a plain dict."""
        name = cls.__name__
        if not isinstance(payload, dict):
            raise SchemaError(name, f"expected a JSON object, got {type(payload).__name__}")
        payload = dict(payload)
        kind = payload.pop("kind", None)
        if kind is not None and cls.kind is not None and kind != cls.kind:
            raise SchemaError(f"{name}.kind", f"expected {cls.kind!r}, got {kind!r}")
        _pop_version(name, payload)
        specs = {spec.name: spec for spec in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - set(specs))
        if unknown:
            raise SchemaError(
                f"{name}.{unknown[0]}",
                f"unknown field (known fields: {sorted(specs)})",
            )
        for field_name, spec in specs.items():
            required = (
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            )
            if required and field_name not in payload:
                raise SchemaError(f"{name}.{field_name}", "required field is missing")
        # Construction validates via __post_init__; no second pass needed.
        return cls(**payload)

    def __post_init__(self) -> None:
        check_fields(self)
        self.validate()


# ----------------------------------------------------------------------
# requests

@dataclass
class SimulateRequest(_ApiModel):
    """Train one workload briefly, trace it, simulate baseline vs TensorDash."""

    kind: ClassVar[str] = "simulate"

    model: str
    epochs: int = field(default=2, metadata=AT_LEAST_ONE)
    batches_per_epoch: int = field(default=2, metadata=AT_LEAST_ONE)
    batch_size: int = field(default=8, metadata=AT_LEAST_ONE)
    max_groups: int = field(default=64, metadata=AT_LEAST_ONE)
    datatype: str = field(default="fp32", metadata={"choices": DATATYPES})
    #: ``None`` means "use the session's default seed".
    seed: Optional[int] = field(default=None, metadata=NON_NEGATIVE)

    def validate(self) -> None:
        _require_model(type(self).__name__, self.model)


@dataclass
class RooflineRequest(SimulateRequest):
    """Simulate under a finite memory hierarchy and report the roofline.

    ``dram_bandwidth_gbps`` defaults (at execution time) to the Table 2
    machine's peak; ``sram_bandwidth_gbps`` and ``sram_kb`` default to
    unlimited, matching the CLI flags.
    """

    kind: ClassVar[str] = "roofline"

    dram_bandwidth_gbps: Optional[float] = field(default=None, metadata=ABOVE_ZERO)
    sram_bandwidth_gbps: Optional[float] = field(default=None, metadata=ABOVE_ZERO)
    sram_kb: Optional[int] = field(default=None, metadata=AT_LEAST_ONE)


@dataclass
class ScaleRequest(SimulateRequest):
    """Partition one workload across N simulated devices and report scaling.

    ``link_gbps`` / ``hop_latency_cycles`` parameterise the
    :class:`repro.scale.Interconnect`; ``link_gbps: null`` means an
    infinite link (with ``hop_latency_cycles: 0`` that is the ideal
    interconnect, under which ``num_devices: 1`` reproduces plain
    simulation bit-exactly).  ``trace_max_batch`` raises the traced
    samples kept per convolutional layer — set it to at least
    ``num_devices`` for balanced data-parallel shards (``null`` keeps
    the trainer's default of 4, matching ``simulate``).
    """

    kind: ClassVar[str] = "scale"

    num_devices: int = field(default=2, metadata=AT_LEAST_ONE)
    partition: str = "data"
    link_gbps: Optional[float] = field(default=25.0, metadata=ABOVE_ZERO)
    hop_latency_cycles: int = field(default=500, metadata=NON_NEGATIVE)
    trace_max_batch: Optional[int] = field(default=None, metadata=AT_LEAST_ONE)

    def validate(self) -> None:
        super().validate()
        # Imported here: repro.scale is not loaded by ``import repro.cli``.
        from repro.scale.partition import PARTITIONS

        if self.partition not in PARTITIONS:
            raise SchemaError(
                f"{type(self).__name__}.partition",
                f"expected one of {list(PARTITIONS)}, got {self.partition!r}",
            )


@dataclass
class SweepRequest(_ApiModel):
    """Re-simulate one workload across a one-knob configuration sweep."""

    kind: ClassVar[str] = "sweep"

    model: str
    knob: str = "rows"
    values: List[Any] = field(default_factory=lambda: [1, 4, 8, 16])
    epochs: int = field(default=2, metadata=AT_LEAST_ONE)
    batches_per_epoch: int = field(default=2, metadata=AT_LEAST_ONE)
    batch_size: int = field(default=8, metadata=AT_LEAST_ONE)
    max_groups: int = field(default=48, metadata=AT_LEAST_ONE)
    seed: Optional[int] = field(default=None, metadata=NON_NEGATIVE)
    #: See :class:`ScaleRequest`; raise it when sweeping ``num_devices``.
    trace_max_batch: Optional[int] = field(default=None, metadata=AT_LEAST_ONE)
    #: Worker processes for the sweep's study execution; ``None`` defers
    #: to the session's resolved ``study_jobs`` (1 = serial).
    study_jobs: Optional[int] = field(default=None, metadata=AT_LEAST_ONE)

    def validate(self) -> None:
        owner = type(self).__name__
        _require_model(owner, self.model)
        from repro.explore.spec import KNOBS, SCALE_KNOBS

        if self.knob not in KNOBS and self.knob not in SCALE_KNOBS:
            raise SchemaError(
                f"{owner}.knob",
                f"unknown knob {self.knob!r}; known: "
                f"{sorted(KNOBS) + sorted(SCALE_KNOBS)}",
            )
        # The knob values are checked where every study checks them.
        self.resolved_spec()

    def resolved_spec(self, default_seed: int = 0):
        """The one-knob :class:`repro.explore.StudySpec` this sweep runs.

        ``default_seed`` stands in for an unset ``seed`` (the session
        passes its own).
        """
        from repro.explore.spec import SCALE_KNOBS, StudySpec

        objectives = ["speedup", "core_energy_efficiency", "energy_efficiency"]
        if self.knob in SCALE_KNOBS:
            # Scaling sweeps table the scaling curve, not the energy one.
            objectives = ["scaled_speedup", "scaling_efficiency", "comm_fraction"]
        try:
            return StudySpec(
                name=f"{self.model}-{self.knob}-sweep",
                workloads=[self.model],
                knobs={self.knob: list(self.values)},
                epochs=self.epochs,
                batches_per_epoch=self.batches_per_epoch,
                batch_size=self.batch_size,
                max_groups=self.max_groups,
                trace_max_batch=self.trace_max_batch,
                seed=default_seed if self.seed is None else self.seed,
                objectives=objectives,
            )
        except ValueError as exc:
            raise SchemaError(f"{type(self).__name__}.values", str(exc)) from exc


@dataclass
class ExploreRequest(_ApiModel):
    """Run a declarative design-space study from an embedded spec."""

    kind: ClassVar[str] = "explore"

    #: A :class:`repro.explore.StudySpec` document (``StudySpec.to_dict``).
    spec: Dict[str, Any]
    study_dir: Optional[str] = field(default=None, metadata=NONEMPTY)
    resume: bool = False
    #: Random-sample N points instead of the full cartesian product.
    sample: Optional[int] = field(default=None, metadata=AT_LEAST_ONE)
    #: Overrides the spec's seed when given.
    seed: Optional[int] = field(default=None, metadata=NON_NEGATIVE)
    #: Frontier objectives overriding the spec's, e.g. ``["speedup"]``.
    objectives: Optional[List[str]] = None
    #: Worker processes for study execution; ``None`` defers to the
    #: session's resolved ``study_jobs`` (1 = serial).
    study_jobs: Optional[int] = field(default=None, metadata=AT_LEAST_ONE)

    def validate(self) -> None:
        if self.objectives is not None:
            _require_objectives(type(self).__name__, self.objectives)
        # Validate the spec itself (and that any overrides compose with
        # it) before any training starts.
        self.resolved_spec()

    def resolved_spec(self):
        """The validated :class:`StudySpec` with sample/seed overrides applied."""
        from repro.explore.spec import StudySpec

        overrides: Dict[str, Any] = {}
        if self.sample is not None:
            overrides.update(mode="random", sample=self.sample)
        if self.seed is not None:
            overrides["seed"] = self.seed
        try:
            return dataclasses.replace(StudySpec.from_dict(self.spec), **overrides)
        except ValueError as exc:
            raise SchemaError(f"{type(self).__name__}.spec", str(exc)) from exc


#: Diff comparison modes (see :mod:`repro.lineage`).
DIFF_MODES = ("study", "bench")


@dataclass
class DiffRequest(_ApiModel):
    """Compare two study manifests or two BENCH document sets.

    Both sides are *embedded documents*, not server-side paths — the
    service never reads the filesystem on behalf of a client.  The CLI
    (``repro diff``) loads files locally, normalises them, and submits
    this request through the session like every other subcommand.

    ``mode="study"``: ``a``/``b`` are study manifests (compacted
    manifest shape, :mod:`repro.explore.manifest`) or ``repro explore --format json`` study
    documents.  ``mode="bench"``: ``a``/``b`` are single BENCH documents
    or ``{name -> BENCH document}`` mappings.
    """

    kind: ClassVar[str] = "diff"

    a: Dict[str, Any]
    b: Dict[str, Any]
    mode: str = field(default="study", metadata={"choices": DIFF_MODES})
    #: Relative tolerance below which a metric counts as held; ``None``
    #: uses the mode default (0.0 for study, 0.25 for bench).
    tolerance: Optional[float] = field(default=None, metadata=NON_NEGATIVE)
    #: Metric names treated as noise and dropped before diffing (study).
    ignore: Optional[List[str]] = None
    #: Frontier objectives overriding the specs' (study mode).
    objectives: Optional[List[str]] = None
    #: Display labels for the two sides (default: source descriptions).
    a_label: Optional[str] = field(default=None, metadata=NONEMPTY)
    b_label: Optional[str] = field(default=None, metadata=NONEMPTY)

    def validate(self) -> None:
        if self.objectives is not None:
            _require_objectives(type(self).__name__, self.objectives)


#: Request types by wire tag, the dispatch table of :func:`request_from_dict`.
REQUEST_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        SimulateRequest,
        RooflineRequest,
        ScaleRequest,
        SweepRequest,
        ExploreRequest,
        DiffRequest,
    )
}


def request_from_dict(payload: Any) -> _ApiModel:
    """Parse any request document, dispatching on its ``kind`` tag."""
    if not isinstance(payload, dict):
        raise SchemaError("request", f"expected a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind is None:
        raise SchemaError(
            "request.kind",
            f"required field is missing (one of {sorted(REQUEST_TYPES)})",
        )
    request_type = REQUEST_TYPES.get(kind)
    if request_type is None:
        raise SchemaError(
            "request.kind", f"unknown kind {kind!r}; known: {sorted(REQUEST_TYPES)}"
        )
    return request_type.from_dict(payload)


# ----------------------------------------------------------------------
# results

@dataclass
class SimulateResult(_ApiModel):
    """Per-operation speedups and energy efficiency of one simulate run."""

    model: str = field(metadata=NONEMPTY)
    config: str = field(metadata=NONEMPTY)
    potentials: Dict[str, float] = field(default_factory=dict)
    speedups: Dict[str, float] = field(default_factory=dict)
    core_energy_efficiency: float = 1.0
    overall_energy_efficiency: float = 1.0


@dataclass
class RooflineResult(_ApiModel):
    """Roofline placement plus stall/bound summary of one run."""

    model: str = field(metadata=NONEMPTY)
    config: str = field(metadata=NONEMPTY)
    #: A :meth:`repro.analysis.roofline.RooflineReport.as_dict` document.
    roofline: Dict[str, Any] = field(default_factory=dict)
    memory_bound_operations: int = field(default=0, metadata=NON_NEGATIVE)
    total_operations: int = field(default=0, metadata=NON_NEGATIVE)
    stall_fraction: float = 0.0
    speedup: float = 1.0
    compute_speedup: float = 1.0


@dataclass
class ScaleResult(_ApiModel):
    """Multi-device scaling outcome: headline numbers plus the full report."""

    model: str = field(metadata=NONEMPTY)
    config: str = field(metadata=NONEMPTY)
    partition: str = field(default="data", metadata=NONEMPTY)
    num_devices: int = field(default=1, metadata=AT_LEAST_ONE)
    #: Human-readable interconnect summary (``Interconnect.describe()``).
    link: str = field(default="ideal (unbounded)", metadata=NONEMPTY)
    speedup: float = 1.0
    efficiency: float = 1.0
    comm_fraction: float = 0.0
    single_device_cycles: int = field(default=0, metadata=NON_NEGATIVE)
    scaled_cycles: int = field(default=0, metadata=NON_NEGATIVE)
    #: A :meth:`repro.scale.ScalingReport.as_dict` document.
    report: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult(_ApiModel):
    """One-knob sweep outcome: the underlying study document plus labels."""

    model: str = field(metadata=NONEMPTY)
    knob: str = field(metadata=NONEMPTY)
    values: List[Any] = field(default_factory=list)
    #: A :func:`repro.explore.report.study_to_dict` document.
    study: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExploreResult(_ApiModel):
    """Design-space study outcome: the full study document."""

    #: A :func:`repro.explore.report.study_to_dict` document.
    study: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DiffResult(_ApiModel):
    """Outcome of a lineage diff (study or bench mode).

    ``deltas`` holds per-point metric deltas in study mode and watched
    BENCH metric rows in bench mode; ``regressions`` counts the entries
    ``--fail-on regressed`` trips on (regressed metrics + removed points
    + frontier departures for studies, gated regressed rows for bench),
    ``changed`` everything that moved at all.
    """

    mode: str = field(default="study", metadata={"choices": DIFF_MODES})
    a: str = ""
    b: str = ""
    tolerance: float = field(default=0.0, metadata=NON_NEGATIVE)
    identical: bool = True
    regressions: int = field(default=0, metadata=NON_NEGATIVE)
    changed: int = field(default=0, metadata=NON_NEGATIVE)
    summary: Dict[str, Any] = field(default_factory=dict)
    deltas: List[Dict[str, Any]] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    frontier: Dict[str, Any] = field(default_factory=dict)
    attribution: List[Dict[str, Any]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


#: Result type for each request kind (the envelope's ``result`` payload).
RESULT_TYPES: Dict[str, type] = {
    "simulate": SimulateResult,
    "roofline": RooflineResult,
    "scale": ScaleResult,
    "sweep": SweepResult,
    "explore": ExploreResult,
    "diff": DiffResult,
}


@dataclass
class ApiResult(_ApiModel):
    """Envelope around every result: kind, schema version, timing, engine.

    ``engine`` is the per-request :class:`~repro.engine.EngineStats`
    delta (what this request cost, even on a shared long-lived engine);
    ``elapsed_seconds`` the wall-clock spent inside the session.
    """

    kind: str = field(default="simulate", metadata={"choices": tuple(RESULT_TYPES)})
    result: Any = None
    engine: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def validate(self) -> None:
        expected = RESULT_TYPES[self.kind]
        if not isinstance(self.result, expected):
            raise SchemaError(
                f"{type(self).__name__}.result",
                f"expected a {expected.__name__} for kind {self.kind!r}, "
                f"got {type(self.result).__name__}",
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": SCHEMA_VERSION,
            "elapsed_seconds": self.elapsed_seconds,
            "engine": _plain(self.engine),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ApiResult":
        name = cls.__name__
        if not isinstance(payload, dict):
            raise SchemaError(name, f"expected a JSON object, got {type(payload).__name__}")
        payload = dict(payload)
        _pop_version(name, payload)
        kind = payload.get("kind")
        result_type = RESULT_TYPES.get(kind)
        if result_type is None:
            raise SchemaError(
                f"{name}.kind", f"unknown kind {kind!r}; known: {sorted(RESULT_TYPES)}"
            )
        if "result" not in payload:
            raise SchemaError(f"{name}.result", "required field is missing")
        unknown = sorted(set(payload) - {"kind", "result", "engine", "elapsed_seconds"})
        if unknown:
            raise SchemaError(f"{name}.{unknown[0]}", "unknown field")
        return cls(
            kind=kind,
            result=result_type.from_dict(payload["result"]),
            engine=payload.get("engine") or {},
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        )


# ----------------------------------------------------------------------
# asynchronous jobs (repro.jobs)

#: Lifecycle states of an asynchronous job (see :mod:`repro.jobs`).
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")

#: States a job can never leave once entered.
JOB_TERMINAL_STATES = ("succeeded", "failed", "cancelled")


@dataclass
class JobRecord(_ApiModel):
    """Wire envelope describing one asynchronous job's current state.

    Served by ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` and returned
    (status 202) by ``POST /v1/jobs``.  ``request_kind`` names the
    wrapped request's wire tag; ``request`` is its full document, so an
    operator can resubmit a job from its record alone.  ``events`` is
    the count of progress/state events recorded so far — the SSE stream
    at ``/v1/jobs/<id>/events`` replays them by sequence number.
    """

    kind: ClassVar[str] = "job"

    job_id: str = field(metadata=NONEMPTY)
    request_kind: str = field(metadata={"choices": tuple(REQUEST_TYPES)})
    state: str = field(metadata={"choices": JOB_STATES})
    created_s: float = field(metadata=NON_NEGATIVE)
    started_s: Optional[float] = field(default=None, metadata=NON_NEGATIVE)
    finished_s: Optional[float] = field(default=None, metadata=NON_NEGATIVE)
    error: Optional[str] = field(default=None, metadata=NONEMPTY)
    cancel_requested: bool = False
    events: int = field(default=0, metadata=NON_NEGATIVE)
    request: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JobResult(_ApiModel):
    """Wire envelope for a finished job (``GET /v1/jobs/<id>/result``).

    ``result`` is the :class:`ApiResult` envelope document of a
    succeeded job — byte-identical in content to what the blocking
    ``/v1/<kind>`` route would have returned — and ``None`` for failed
    or cancelled jobs, whose ``error`` (when failed) says why.
    """

    kind: ClassVar[str] = "job_result"

    job_id: str = field(metadata=NONEMPTY)
    state: str = field(metadata={"choices": JOB_TERMINAL_STATES})
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = field(default=None, metadata=NONEMPTY)

    def validate(self) -> None:
        owner = type(self).__name__
        if self.state == "succeeded":
            if self.result is None:
                raise SchemaError(
                    f"{owner}.result",
                    "a succeeded job carries its ApiResult document, got None",
                )
        elif self.result is not None:
            raise SchemaError(
                f"{owner}.result",
                f"only succeeded jobs carry a result, state is {self.state!r}",
            )
