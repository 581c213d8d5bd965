"""Session facade: warm caches, engine sharing, option resolution."""

import pytest

import repro.api.session as session_module
from repro.api.schema import SchemaError, SimulateRequest, SweepRequest
from repro.api.session import Session
from repro.engine.options import resolve_engine_options

FAST = dict(epochs=1, batches_per_epoch=1, batch_size=4, max_groups=8)


class TestEngineOptionResolution:
    def test_defaults(self):
        options = resolve_engine_options(environ={})
        assert options.backend == "vectorized"
        assert options.cache_dir is None

    def test_env_vars_fill_unset_arguments(self):
        options = resolve_engine_options(environ={
            "REPRO_BACKEND": "reference",
            "REPRO_CACHE_DIR": "/tmp/somewhere",
        })
        assert options.backend == "reference"
        assert options.cache_dir == "/tmp/somewhere"

    def test_explicit_arguments_beat_env_vars(self):
        options = resolve_engine_options(
            backend="vectorized", cache_dir="/tmp/explicit",
            environ={"REPRO_BACKEND": "reference",
                     "REPRO_CACHE_DIR": "/tmp/env"},
        )
        assert options.backend == "vectorized"
        assert options.cache_dir == "/tmp/explicit"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_engine_options(environ={"REPRO_BACKEND": "quantum"})

    def test_session_resolves_through_the_same_helper(self):
        session = Session(environ={"REPRO_BACKEND": "reference"})
        assert session.options.backend == "reference"
        assert session.engine.stats.backend == "reference"


class TestSessionCaching:
    def test_repeated_request_is_pure_cache_hits(self):
        session = Session()
        first = session.simulate("snli", **FAST)
        again = session.simulate("snli", **FAST)
        assert first.engine["layers_simulated"] > 0
        assert first.engine["cache_hits"] == 0
        assert again.engine["layers_simulated"] == 0
        assert again.engine["cache_hits"] == first.engine["layers_simulated"]
        # Bit-identical payloads: the memo returns the same results.
        assert again.result == first.result

    def test_trace_trained_once_across_workflows(self, monkeypatch):
        calls = []
        real = session_module.trace_workload

        def counting(model, **kwargs):
            calls.append(model)
            return real(model, **kwargs)

        monkeypatch.setattr(session_module, "trace_workload", counting)
        session = Session()
        session.simulate("snli", **FAST)
        session.simulate("snli", **FAST)
        session.roofline("snli", dram_bandwidth_gbps=2.0, **FAST)
        assert calls == ["snli"]   # same trace parameters -> one training run

    def test_sweep_shares_the_session_trace(self, monkeypatch):
        calls = []
        real = session_module.trace_workload

        def counting(model, **kwargs):
            calls.append(model)
            return real(model, **kwargs)

        monkeypatch.setattr(session_module, "trace_workload", counting)
        session = Session()
        request = SweepRequest(model="snli", knob="staging", values=[2, 3],
                               epochs=1, batches_per_epoch=1, batch_size=4,
                               max_groups=8)
        session.submit(request)
        session.submit(request)
        assert calls == ["snli"]

    def test_repeated_sweep_is_pure_cache_hits(self):
        session = Session()
        request = SweepRequest(model="snli", knob="staging", values=[2, 3],
                               epochs=1, batches_per_epoch=1, batch_size=4,
                               max_groups=8)
        first = session.submit(request)
        again = session.submit(request)
        assert first.engine["layers_simulated"] > 0
        assert again.engine["layers_simulated"] == 0
        assert again.engine["cache_hits"] == first.engine["layers_simulated"]
        # The embedded study document carries the per-request delta too.
        assert again.result.study["engine"]["layers_simulated"] == 0

    def test_disk_hits_are_promoted_into_the_memo(self, tmp_path):
        # Warm the disk cache from one session...
        Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
        # ...then serve a fresh session (new process stand-in) from it.
        session = Session(cache_dir=str(tmp_path))
        first = session.simulate("snli", **FAST)
        assert first.engine["layers_simulated"] == 0
        assert first.engine["cache_hits"] > 0
        # Repeats must come from the in-process memo, not re-read disk.
        cache = session.engine.cache
        session.engine.cache = None   # disk unavailable: memo must carry it
        try:
            again = session.simulate("snli", **FAST)
        finally:
            session.engine.cache = cache
        assert again.engine["layers_simulated"] == 0
        assert again.engine["cache_hits"] == first.engine["cache_hits"]

    def test_trace_cache_is_lru_bounded(self):
        session = Session(max_cached_traces=1)
        session.simulate("snli", **FAST)
        session.simulate("snli", seed=1, **FAST)
        assert len(session._traces) == 1   # the seed-0 trace was evicted

    def test_different_configs_do_not_collide(self):
        session = Session()
        fp32 = session.simulate("snli", datatype="fp32", **FAST)
        bf16 = session.simulate("snli", datatype="bfloat16", **FAST)
        assert bf16.engine["layers_simulated"] > 0   # new config, new keys
        assert fp32.result.speedups != {} and bf16.result.speedups != {}

    def test_explore_study_dir_persists_layer_results_on_disk(self, tmp_path):
        """The PR 2 contract survives the session layer: a study killed
        after simulating (manifest lost) resumes in a *fresh process*
        (here: a fresh session) with layer-level disk-cache hits."""
        spec = {
            "name": "persist", "workloads": ["snli"],
            "knobs": {"staging": [2, 3]}, "epochs": 1,
            "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
        }
        study_dir = tmp_path / "study"
        first = Session().explore(spec, study_dir=str(study_dir))
        assert first.engine["layers_simulated"] > 0
        assert (study_dir / "cache").is_dir()
        assert list((study_dir / "cache").glob("*/*.json"))

        (study_dir / "manifest.json").unlink()   # simulated kill
        again = Session().explore(spec, study_dir=str(study_dir))
        assert again.engine["layers_simulated"] == 0
        assert again.engine["cache_hits"] == first.engine["layers_simulated"]
        # Outside the study, the shared engine has no disk cache again.
        session = Session()
        session.explore(spec, study_dir=str(study_dir))
        assert session.engine.cache is None

    def test_one_engine_is_shared(self):
        session = Session()
        session.simulate("snli", **FAST)
        session.sweep("snli", knob="staging", values=[2, 3], epochs=1,
                      batches_per_epoch=1, batch_size=4, max_groups=8)
        runners = list(session._runners.values())
        assert runners, "session built no runners"
        assert all(runner.engine is session.engine for runner in runners)


class TestSubmit:
    def test_submit_rejects_foreign_objects(self):
        with pytest.raises(TypeError, match="unsupported request"):
            Session().submit(object())

    def test_submit_validates_before_running(self):
        request = SimulateRequest(model="snli", **FAST)
        request.epochs = 0   # corrupt after construction
        with pytest.raises(SchemaError, match="SimulateRequest.epochs"):
            Session().submit(request)

    def test_progress_messages_are_emitted(self):
        lines = []
        Session().simulate("snli", progress=lines.append, **FAST)
        assert any(line.startswith("Accelerator:") for line in lines)
        assert any("Training snli" in line for line in lines)

    def test_stats_counts_requests_and_caches(self):
        session = Session()
        session.simulate("snli", **FAST)
        session.simulate("snli", **FAST)
        stats = session.stats()
        assert stats["requests_served"] == 2
        assert stats["cached_traces"] == 1
        assert stats["engine"]["cache_hits"] > 0
        assert stats["schema_version"] == 1
        assert stats["version"]

    def test_envelope_reports_elapsed_time(self):
        result = Session().simulate("snli", **FAST)
        assert result.elapsed_seconds > 0
