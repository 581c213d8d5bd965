"""Tests for study execution, checkpointing, resume and the explore CLI."""

import json

import pytest

from repro.cli import main
from repro.engine.engine import SimulationEngine
from repro.explore import (
    StudyResumeError,
    StudyRunner,
    StudySpec,
    study_to_csv,
    study_to_dict,
)


def tiny_spec(**overrides):
    payload = {
        "name": "tiny",
        "workloads": ["snli"],
        "knobs": {"rows": [1, 4], "staging": [2, 3]},
        "epochs": 1,
        "batches_per_epoch": 1,
        "batch_size": 4,
        "max_groups": 8,
    }
    payload.update(overrides)
    return StudySpec.from_dict(payload)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """One cold study run, shared by the read-only assertions below."""
    study_dir = tmp_path_factory.mktemp("study")
    runner = StudyRunner(tiny_spec(), study_dir=study_dir)
    return study_dir, runner.run()


class TestMemoryKnobs:
    """The memory hierarchy as a swept study axis."""

    @pytest.fixture(scope="class")
    def bandwidth_study(self):
        spec = tiny_spec(
            name="bandwidth",
            knobs={"dram_bandwidth_gbps": [2, 51.2]},
            objectives=["speedup", "stall_fraction", "dram_bytes"],
        )
        return StudyRunner(spec).run()

    def test_memory_metrics_recorded(self, bandwidth_study):
        for point in bandwidth_study.points:
            metrics = point.metrics
            assert 0.0 <= metrics["stall_fraction"] <= 1.0
            assert metrics["dram_bytes"] > 0
            assert metrics["operational_intensity"] > 0
            assert 0.0 <= metrics["memory_bound_fraction"] <= 1.0
            assert metrics["ridge_point"] > 0

    def test_starved_point_stalls_more_than_table2_point(self, bandwidth_study):
        by_label = {p.config_label: p for p in bandwidth_study.points}
        starved = by_label["dram_bandwidth_gbps=2"]
        roomy = by_label["dram_bandwidth_gbps=51.2"]
        assert starved.metrics["stall_fraction"] >= roomy.metrics["stall_fraction"]
        assert starved.metrics["stall_fraction"] > 0
        assert starved.metrics["memory_bound_fraction"] > 0
        assert starved.metrics["speedup"] <= roomy.metrics["speedup"]

    def test_stall_and_dram_objectives_drive_the_frontier(self, bandwidth_study):
        frontier = bandwidth_study.frontier(["speedup", "stall_fraction"])
        assert frontier
        best = bandwidth_study.best_per_objective(["stall_fraction"])
        assert best["stall_fraction"].config_label == "dram_bandwidth_gbps=51.2"

    def test_report_includes_roofline_section(self, bandwidth_study):
        from repro.explore.report import format_roofline_section, format_study_report

        section = format_roofline_section(bandwidth_study)
        assert section is not None
        assert "Roofline" in section
        assert "ridge" in section
        assert "memory" in section
        assert section in format_study_report(bandwidth_study)

    def test_sram_kb_knob_increases_dram_bytes_when_tiny(self):
        spec = tiny_spec(name="capacity", knobs={"sram_kb": [1, 4096]})
        result = StudyRunner(spec).run()
        by_label = {p.config_label: p for p in result.points}
        assert (
            by_label["sram_kb=1"].metrics["dram_bytes"]
            > by_label["sram_kb=4096"].metrics["dram_bytes"]
        )

    def test_unbounded_points_have_no_ridge_metric(self, study):
        _, result = study
        for point in result.points:
            assert "ridge_point" not in point.metrics
            assert point.metrics["stall_fraction"] == 0.0


class TestStudyRunner:
    def test_every_point_recorded_in_order(self, study):
        _, result = study
        points = tiny_spec().expand()
        assert [r.point_id for r in result.points] == [p.point_id for p in points]
        for record in result.points:
            assert record.metrics["speedup"] >= 1.0
            assert record.metrics["energy_efficiency"] > 0
            assert record.metrics["area_overhead"] > 1.0

    def test_frontier_is_nonempty_subset(self, study):
        _, result = study
        frontier = result.frontier()
        assert 1 <= len(frontier) <= len(result.points)
        ids = {r.point_id for r in result.points}
        assert all(r.point_id in ids for r in frontier)

    def test_best_per_objective_covers_spec_objectives(self, study):
        _, result = study
        best = result.best_per_objective()
        assert set(best) == set(result.spec.objectives)

    def test_manifest_checkpointed(self, study):
        study_dir, result = study
        manifest = json.loads((study_dir / "manifest.json").read_text())
        assert manifest["spec_fingerprint"] == result.spec.fingerprint()
        assert len(manifest["completed"]) == len(result.points)

    def test_study_dict_and_csv_exports(self, study):
        _, result = study
        payload = study_to_dict(result)
        assert len(payload["points"]) == len(result.points)
        assert set(payload["frontier"]) <= {p["point_id"] for p in payload["points"]}
        csv_text = study_to_csv(result)
        assert csv_text.count("\n") == len(result.points) + 1
        assert "speedup" in csv_text.splitlines()[0]

    def test_resume_skips_completed_points(self, study):
        study_dir, first = study
        runner = StudyRunner(tiny_spec(), study_dir=study_dir)
        result = runner.run(resume=True)
        assert result.resumed_points == len(first.points)
        assert result.stats.layers_simulated == 0
        assert [r.metrics for r in result.points] == [r.metrics for r in first.points]

    def test_restart_after_lost_manifest_hits_cache(self, study):
        """A killed study re-simulates nothing: every layer is a cache hit."""
        study_dir, first = study
        (study_dir / "manifest.json").unlink()
        runner = StudyRunner(tiny_spec(), study_dir=study_dir)
        result = runner.run(resume=True)
        assert result.resumed_points == 0
        assert result.stats.layers_simulated == 0
        assert result.stats.cache_hits > 0
        assert result.stats.cache_misses == 0
        for got, want in zip(result.points, first.points):
            assert got.metrics == want.metrics

    def test_resume_survives_presentation_changes(self, study):
        # Renaming the study or changing its objectives keeps the
        # manifest valid; sampling resumes the subset for free.
        study_dir, first = study
        changed = tiny_spec(name="renamed", objectives=["speedup"],
                            mode="random", sample=2)
        result = StudyRunner(changed, study_dir=study_dir).run(resume=True)
        assert len(result.points) == 2
        assert result.resumed_points == 2
        assert result.stats.layers_simulated == 0

    def test_sampled_resume_preserves_unsampled_manifest_records(self, tmp_path):
        spec = tiny_spec()
        study_dir = tmp_path / "study"
        StudyRunner(spec, study_dir=study_dir).run()
        # Keep a single record so the sampled resume is guaranteed real
        # work (sample=2 can cover at most one completed point) and
        # therefore rewrites the manifest.
        manifest = json.loads((study_dir / "manifest.json").read_text())
        assert len(manifest["completed"]) == 4
        kept = sorted(manifest["completed"])[0]
        manifest["completed"] = {kept: manifest["completed"][kept]}
        (study_dir / "manifest.json").write_text(json.dumps(manifest))

        sampled = tiny_spec(mode="random", sample=2)
        result = StudyRunner(sampled, study_dir=study_dir).run(resume=True)
        assert len(result.points) == 2
        # Every previously completed record survives alongside the
        # sampled run's results — nothing is discarded.
        after = json.loads((study_dir / "manifest.json").read_text())
        assert set(manifest["completed"]) <= set(after["completed"])
        assert {p.point_id for p in result.points} <= set(after["completed"])

    def test_resume_rejects_spec_drift(self, study):
        study_dir, _ = study
        changed = tiny_spec(max_groups=16)
        runner = StudyRunner(changed, study_dir=study_dir)
        with pytest.raises(ValueError, match="different spec"):
            runner.run(resume=True)

    def test_partial_manifest_resumes_remaining(self, tmp_path):
        spec = tiny_spec(knobs={"rows": [1, 4]})
        study_dir = tmp_path / "study"
        StudyRunner(spec, study_dir=study_dir).run()
        manifest = json.loads((study_dir / "manifest.json").read_text())
        dropped = sorted(manifest["completed"])[0]
        del manifest["completed"][dropped]
        (study_dir / "manifest.json").write_text(json.dumps(manifest))

        result = StudyRunner(spec, study_dir=study_dir).run(resume=True)
        assert result.resumed_points == 1
        assert len(result.points) == 2
        # The re-run point's layers all come from the engine cache.
        assert result.stats.layers_simulated == 0

    def test_in_memory_run_without_study_dir(self):
        spec = tiny_spec(knobs={"staging": [2]})
        result = StudyRunner(spec).run()
        assert len(result.points) == 1
        assert result.stats.cache_dir is None

    def test_resume_without_study_dir_raises(self):
        with pytest.raises(StudyResumeError, match="study_dir"):
            StudyRunner(tiny_spec()).run(resume=True)


class TestOneEngine:
    """A study runs on one engine and reports only its own work on it."""

    def test_standalone_runner_owns_one_engine(self):
        runner = StudyRunner(tiny_spec())
        engine = runner.engine
        assert engine is not None
        result = runner.run()
        assert runner.engine is engine
        assert result.stats.layers_simulated > 0
        assert result.stats == engine.stats

    def test_warm_engine_reports_this_study_only(self):
        engine = SimulationEngine(memory_cache=True)
        first = StudyRunner(tiny_spec(), engine=engine).run()
        again = StudyRunner(tiny_spec(), engine=engine).run()
        assert first.stats.layers_simulated > 0
        assert again.stats.layers_simulated == 0
        assert again.stats.memo_hits == first.stats.layers_simulated

    def test_worker_work_lands_on_the_given_engine(self):
        serial = SimulationEngine(memory_cache=True)
        StudyRunner(tiny_spec(), engine=serial).run()
        engine = SimulationEngine(memory_cache=True)
        result = StudyRunner(tiny_spec(), engine=engine, study_jobs=2).run()
        assert engine.stats.layers_simulated == serial.stats.layers_simulated
        assert result.stats == engine.stats

    def test_study_dir_cache_is_attached_for_the_run_only(self, tmp_path):
        engine = SimulationEngine(memory_cache=True)
        study_dir = tmp_path / "study"
        result = StudyRunner(tiny_spec(), study_dir=study_dir, engine=engine).run()
        assert result.stats.cache_dir == str(study_dir / "cache")
        assert list((study_dir / "cache").glob("*/*.json"))
        assert engine.cache is None and engine.stats.cache_dir is None


class TestExploreCli:
    def write_spec(self, tmp_path, **overrides):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec(**overrides).to_dict()))
        return str(path)

    def test_explore_end_to_end_with_resume(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        study_dir = str(tmp_path / "study")
        assert main(["explore", spec_path, "--study-dir", study_dir]) == 0
        output = capsys.readouterr().out
        assert "Pareto frontier" in output
        assert "Best per objective" in output

        assert main(["explore", spec_path, "--study-dir", study_dir, "--resume"]) == 0
        output = capsys.readouterr().out
        assert "resuming: 4/4" in output
        assert "layers simulated=0" in output

    def test_explore_json_output_is_clean(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, knobs={"staging": [2]})
        assert main(["explore", spec_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "tiny"
        assert len(payload["points"]) == 1

    def test_explore_sample_and_objectives_flags(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        assert main([
            "explore", spec_path, "--sample", "2", "--seed", "3",
            "--objectives", "speedup,area_overhead",
        ]) == 0
        output = capsys.readouterr().out
        assert "2 of 4 points (random)" in output

    def test_explore_rejects_bad_spec(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workloads": ["nope"]}))
        with pytest.raises(SystemExit):
            main(["explore", str(path)])

    @pytest.mark.parametrize("name, value", [
        ("knobs", []), ("epochs", "2"), ("max_groups", None),
        ("trace_max_batch", "4"), ("seed", "x"), ("name", 5), ("seed", -1),
    ])
    def test_explore_rejects_wrong_typed_spec_field(self, tmp_path, capsys, name, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workloads": ["snli"], name: value}))
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", str(path)])
        assert excinfo.value.code == 2
        assert f"StudySpec.{name}" in capsys.readouterr().err

    def test_explore_rejects_missing_spec_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explore", str(tmp_path / "absent.json")])

    def test_explore_rejects_directory_as_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["explore", str(tmp_path)])

    def test_explore_rejects_file_as_study_dir(self, tmp_path):
        spec_path = self.write_spec(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit):
            main(["explore", spec_path, "--study-dir", str(blocker)])

    def test_explore_unregistered_metric_objective(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, knobs={"staging": [2, 3]})
        assert main([
            "explore", spec_path, "--objectives", "tensordash_energy_pj:min",
        ]) == 0
        assert "tensordash_energy_pj" in capsys.readouterr().out

    def test_explore_resume_requires_study_dir(self, tmp_path):
        spec_path = self.write_spec(tmp_path)
        with pytest.raises(SystemExit):
            main(["explore", spec_path, "--resume"])

    def test_explore_rejects_unwritable_output_before_running(self, tmp_path):
        spec_path = self.write_spec(tmp_path)
        with pytest.raises(SystemExit):
            main(["explore", spec_path,
                  "--output", str(tmp_path / "no-such-dir" / "out.json")])

    def test_explore_csv_honors_objectives_override(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path, knobs={"staging": [2, 3]})
        assert main([
            "explore", spec_path, "--format", "csv",
            "--objectives", "area_overhead",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        pareto = header.index("pareto")
        area = header.index("area_overhead")
        marked = [line.split(",") for line in lines[1:] if line.split(",")[pareto] == "1"]
        # Single minimised objective: exactly the minimum-area rows are marked.
        best = min(float(line.split(",")[area]) for line in lines[1:])
        assert marked and all(float(row[area]) == best for row in marked)


class TestSweepAlias:
    def test_sweep_runs_through_study_machinery(self, capsys):
        exit_code = main([
            "sweep", "snli", "--knob", "staging", "--values", "2,3",
            "--epochs", "1", "--max-groups", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "staging=2" in output
        assert "staging=3" in output

    def test_warm_sweep_prints_no_training_banner(self, tmp_path, capsys):
        argv = [
            "sweep", "snli", "--knob", "staging", "--values", "2,3",
            "--epochs", "1", "--max-groups", "8",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "Training snli once; sweeping staging" in capsys.readouterr().out
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Training" not in output
        assert "Loaded the snli trace from the trace store" in output
        assert "layers simulated=0" in output

    def test_sweep_accepts_every_explore_knob(self, capsys):
        exit_code = main([
            "sweep", "snli", "--knob", "power_gating", "--values", "false,true",
            "--epochs", "1", "--max-groups", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "power_gating=True" in output
