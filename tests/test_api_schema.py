"""Schema round-trips and validation errors for the ``repro.api`` types.

Every request/result type must satisfy ``from_dict(to_dict(x)) == x`` —
including through an actual ``json.dumps``/``json.loads`` cycle — and
every invalid document must fail with a :class:`SchemaError` that names
the offending field.  A fuzz puts any JSON value into one field of each
request kind (and of the embedded study spec): the document round-trips
or is refused by name, never with another exception.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.schema import (
    SCHEMA_VERSION,
    ApiResult,
    DiffRequest,
    DiffResult,
    ExploreRequest,
    ExploreResult,
    JobRecord,
    JobResult,
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
from repro.explore import StudySpec

TINY_SPEC = {
    "name": "tiny",
    "workloads": ["snli"],
    "knobs": {"staging": [2, 3]},
    "epochs": 1,
    "batches_per_epoch": 1,
    "batch_size": 4,
    "max_groups": 8,
}


def _sample_instances():
    """One representative instance of every schema type."""
    simulate_result = SimulateResult(
        model="snli",
        config="16 tiles",
        potentials={"AxW": 1.5, "Total": 1.4},
        speedups={"AxW": 1.2, "Total": 1.3},
        core_energy_efficiency=1.1,
        overall_energy_efficiency=1.05,
    )
    roofline_result = RooflineResult(
        model="snli",
        config="16 tiles",
        roofline={
            "model": "snli",
            "peak_macs_per_cycle": 4096.0,
            "dram_bytes_per_cycle": 4.0,
            "ridge_point": 1024.0,
            "points": [
                {
                    "layer": "fc1", "operation": "AxW", "macs": 100,
                    "dram_bytes": 40, "compute_cycles": 10,
                    "total_cycles": 12, "stall_cycles": 2,
                    "intensity": 2.5, "achieved_macs_per_cycle": 8.33,
                    "stall_fraction": 0.17, "bound": "dram",
                },
            ],
        },
        memory_bound_operations=1,
        total_operations=3,
        stall_fraction=0.2,
        speedup=1.1,
        compute_speedup=1.4,
    )
    study_doc = {
        "spec": dict(TINY_SPEC),
        "objectives": ["speedup (max)"],
        "points": [],
        "frontier": [],
        "best_per_objective": {},
        "resumed_points": 0,
        "engine": {"backend": "vectorized", "layers_simulated": 4},
    }
    return [
        SimulateRequest(model="snli"),
        SimulateRequest(model="alexnet", epochs=1, batches_per_epoch=1,
                        batch_size=4, max_groups=8, datatype="bfloat16", seed=7),
        RooflineRequest(model="snli"),
        RooflineRequest(model="snli", dram_bandwidth_gbps=2.0,
                        sram_bandwidth_gbps=100.0, sram_kb=256, seed=1),
        SweepRequest(model="snli"),
        SweepRequest(model="snli", knob="staging", values=[2, 3], epochs=1,
                     max_groups=8, seed=0),
        SweepRequest(model="snli", knob="datatype", values=["fp32", "bfloat16"]),
        ExploreRequest(spec=dict(TINY_SPEC)),
        ExploreRequest(spec=dict(TINY_SPEC), study_dir="/tmp/study",
                       resume=True, sample=1, seed=3, objectives=["speedup"]),
        simulate_result,
        roofline_result,
        SweepResult(model="snli", knob="staging", values=[2, 3], study=study_doc),
        ExploreResult(study=study_doc),
        ApiResult(kind="simulate", result=simulate_result,
                  engine={"backend": "vectorized", "cache_hits": 4},
                  elapsed_seconds=0.25),
        ApiResult(kind="roofline", result=roofline_result),
        ScaleRequest(model="snli", num_devices=4, partition="pipeline",
                     link_gbps=None, hop_latency_cycles=0, trace_max_batch=4),
        ScaleResult(model="snli", config="16 tiles", partition="data",
                    num_devices=4, link="25 GB/s", speedup=3.2,
                    efficiency=0.8, comm_fraction=0.1,
                    single_device_cycles=1000, scaled_cycles=312,
                    report={"num_devices": 4, "devices": []}),
        DiffRequest(a={"completed": {}}, b={"completed": {}}),
        DiffRequest(a={}, b={}, mode="bench", tolerance=0.1,
                    ignore=["dram_bytes"], objectives=["speedup"],
                    a_label="old", b_label="new"),
        DiffResult(),
        DiffResult(mode="bench", a="old", b="new", tolerance=0.25,
                   identical=False, regressions=1, changed=2,
                   summary={"regressed": 1}, deltas=[{"metric": "wall_s"}],
                   added=["p1"], removed=["p2"], frontier={"entered": []},
                   attribution=[{"point": "p1"}], warnings=["w"]),
        JobRecord(job_id="j1", request_kind="simulate", state="queued",
                  created_s=1.5),
        JobRecord(job_id="j2", request_kind="explore", state="failed",
                  created_s=1.0, started_s=2.0, finished_s=3.0,
                  error="boom", cancel_requested=True, events=4,
                  request={"kind": "explore"}),
        JobResult(job_id="j1", state="succeeded",
                  result={"kind": "simulate", "result": {}}),
        JobResult(job_id="j2", state="cancelled"),
    ]


class TestRoundTrips:
    @pytest.mark.parametrize(
        "instance", _sample_instances(),
        ids=lambda instance: type(instance).__name__,
    )
    def test_dict_round_trip(self, instance):
        assert type(instance).from_dict(instance.to_dict()) == instance

    @pytest.mark.parametrize(
        "instance", _sample_instances(),
        ids=lambda instance: type(instance).__name__,
    )
    def test_json_round_trip(self, instance):
        wire = json.dumps(instance.to_dict())
        assert type(instance).from_dict(json.loads(wire)) == instance

    def test_requests_are_tagged(self):
        payload = SimulateRequest(model="snli").to_dict()
        assert payload["kind"] == "simulate"
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_request_from_dict_dispatches_on_kind(self):
        for request in (SimulateRequest(model="snli"),
                        RooflineRequest(model="snli"),
                        SweepRequest(model="snli"),
                        ExploreRequest(spec=dict(TINY_SPEC))):
            parsed = request_from_dict(request.to_dict())
            assert parsed == request
            assert type(parsed) is type(request)


class TestValidationErrors:
    def _field_of(self, excinfo):
        return excinfo.value.field

    def test_unknown_model_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest(model="not-a-model")
        assert self._field_of(excinfo) == "SimulateRequest.model"

    def test_bad_epochs_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest(model="snli", epochs=0)
        assert self._field_of(excinfo) == "SimulateRequest.epochs"

    def test_bad_datatype_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest(model="snli", datatype="fp64")
        assert self._field_of(excinfo) == "SimulateRequest.datatype"

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest.from_dict({"model": "snli", "epoch": 3})
        assert self._field_of(excinfo) == "SimulateRequest.epoch"

    def test_missing_required_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest.from_dict({"epochs": 2})
        assert self._field_of(excinfo) == "SimulateRequest.model"

    def test_newer_schema_version_rejected(self):
        payload = SimulateRequest(model="snli").to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest.from_dict(payload)
        assert "schema_version" in self._field_of(excinfo)

    def test_kind_mismatch_rejected(self):
        payload = SimulateRequest(model="snli").to_dict()
        payload["kind"] = "sweep"
        with pytest.raises(SchemaError):
            SimulateRequest.from_dict(payload)

    def test_negative_bandwidth_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            RooflineRequest(model="snli", dram_bandwidth_gbps=-3)
        assert self._field_of(excinfo) == "RooflineRequest.dram_bandwidth_gbps"

    def test_bad_knob_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", knob="wings")
        assert self._field_of(excinfo) == "SweepRequest.knob"

    def test_bad_knob_value_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", knob="rows", values=[0])
        assert self._field_of(excinfo) == "SweepRequest.values"

    def test_empty_values_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", values=[])
        assert self._field_of(excinfo) == "SweepRequest.values"

    def test_bad_spec_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            ExploreRequest(spec={"workloads": ["not-a-model"]})
        assert self._field_of(excinfo) == "ExploreRequest.spec"

    def test_bad_objectives_name_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            ExploreRequest(spec=dict(TINY_SPEC), objectives=["made_up_metric"])
        assert self._field_of(excinfo) == "ExploreRequest.objectives"

    @pytest.mark.parametrize("request_type", [
        SimulateRequest, RooflineRequest, ScaleRequest, SweepRequest,
    ])
    def test_negative_seed_names_the_field(self, request_type):
        with pytest.raises(SchemaError) as excinfo:
            request_type(model="snli", seed=-1)
        assert self._field_of(excinfo) == f"{request_type.__name__}.seed"

    def test_negative_explore_seed_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            ExploreRequest(spec=dict(TINY_SPEC), seed=-1)
        assert self._field_of(excinfo) == "ExploreRequest.seed"

    @pytest.mark.parametrize("value", [1.5, "4", True])
    def test_inexact_integer_knob_value_names_the_field(self, value):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", knob="rows", values=[value])
        assert self._field_of(excinfo) == "SweepRequest.values"

    def test_request_from_dict_requires_kind(self):
        with pytest.raises(SchemaError) as excinfo:
            request_from_dict({"model": "snli"})
        assert self._field_of(excinfo) == "request.kind"

    def test_request_from_dict_rejects_unknown_kind(self):
        with pytest.raises(SchemaError) as excinfo:
            request_from_dict({"kind": "teleport", "model": "snli"})
        assert self._field_of(excinfo) == "request.kind"

    def test_envelope_requires_matching_result_type(self):
        with pytest.raises(SchemaError) as excinfo:
            ApiResult(kind="sweep", result=SimulateResult(model="snli", config="c"))
        assert self._field_of(excinfo) == "ApiResult.result"

    def test_envelope_from_dict_requires_result(self):
        with pytest.raises(SchemaError) as excinfo:
            ApiResult.from_dict({"kind": "simulate"})
        assert self._field_of(excinfo) == "ApiResult.result"

    def test_envelope_rejects_non_object_engine(self):
        payload = ApiResult(
            kind="simulate",
            result=SimulateResult(model="snli", config="c"),
        ).to_dict()
        payload["engine"] = 123
        with pytest.raises(SchemaError) as excinfo:
            ApiResult.from_dict(payload)
        assert self._field_of(excinfo) == "ApiResult.engine"


#: Any JSON value: the fuzz below puts one in place of a valid field.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

#: One valid document per request kind.
VALID_REQUESTS = [
    SimulateRequest(model="snli"),
    RooflineRequest(model="snli", dram_bandwidth_gbps=2.0, sram_kb=64),
    ScaleRequest(model="snli", num_devices=4, trace_max_batch=4),
    SweepRequest(model="snli", knob="staging", values=[2, 3], study_jobs=1),
    ExploreRequest(spec=dict(TINY_SPEC), sample=1, objectives=["speedup"]),
    DiffRequest(a={}, b={}, tolerance=0.1, ignore=["dram_bytes"]),
]

REQUEST_FIELDS = [
    (request, name)
    for request in VALID_REQUESTS
    for name in request.to_dict()
    if name not in ("kind", "schema_version")
]


def _accepted_or_named(document, owner):
    """Parse ``document``: it round-trips, or the error names ``owner``."""
    try:
        request = request_from_dict(document)
    except SchemaError as exc:
        assert exc.field == owner or exc.field.startswith(owner + "."), exc.field
        return
    wire = json.loads(json.dumps(request.to_dict()))
    assert type(request).from_dict(wire) == request


class TestFieldFuzz:
    """A wrong-typed value is accepted or rejected by name, never a crash."""

    @pytest.mark.parametrize(
        "request_, name", REQUEST_FIELDS,
        ids=[f"{type(r).__name__}.{n}" for r, n in REQUEST_FIELDS],
    )
    @settings(max_examples=25, deadline=None)
    @given(value=JSON_VALUES)
    def test_request_field(self, request_, name, value):
        document = request_.to_dict()
        document[name] = value
        _accepted_or_named(document, type(request_).__name__)

    @pytest.mark.parametrize("name", sorted(StudySpec().to_dict()))
    @settings(max_examples=25, deadline=None)
    @given(value=JSON_VALUES)
    def test_study_spec_field(self, name, value):
        spec = StudySpec.from_dict(TINY_SPEC).to_dict()
        spec[name] = value
        _accepted_or_named({"kind": "explore", "spec": spec}, "ExploreRequest.spec")


class TestResolvedSpec:
    def test_sample_and_seed_overrides_compose(self):
        request = ExploreRequest(spec=dict(TINY_SPEC), sample=1, seed=9)
        spec = request.resolved_spec()
        assert spec.mode == "random"
        assert spec.sample == 1
        assert spec.seed == 9

    def test_plain_spec_keeps_cartesian_mode(self):
        spec = ExploreRequest(spec=dict(TINY_SPEC)).resolved_spec()
        assert spec.mode == "cartesian"
        assert spec.space_size == 2
