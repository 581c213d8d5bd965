"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "alexnet"])
        assert args.model == "alexnet"
        assert args.epochs == 2
        assert args.datatype == "fp32"

    def test_simulate_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "not-a-model"])

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "squeezenet", "--knob", "staging", "--values", "2,3"]
        )
        assert args.knob == "staging"
        assert args.values == "2,3"

    def test_roofline_defaults(self):
        args = build_parser().parse_args(["roofline", "snli"])
        assert args.model == "snli"
        assert args.dram_bandwidth_gbps is None   # Table 2 peak at runtime
        assert args.sram_kb is None
        # None, not a path: the engine-option helper resolves the cache
        # dir (REPRO_CACHE_DIR fallback) so the CLI cannot shadow it.
        assert args.cache_dir is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.cache_dir is None

    def test_backend_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "snli", "--backend", "reference"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_simulate_and_roofline_take_format_json(self):
        assert build_parser().parse_args(
            ["simulate", "snli", "--format", "json"]).format == "json"
        assert build_parser().parse_args(
            ["roofline", "snli", "--format", "json"]).format == "json"

    def test_roofline_accepts_hierarchy_flags(self):
        args = build_parser().parse_args([
            "roofline", "alexnet", "--dram-bandwidth-gbps", "12.8",
            "--sram-kb", "256", "--sram-bandwidth-gbps", "100",
        ])
        assert args.dram_bandwidth_gbps == 12.8
        assert args.sram_kb == 256
        assert args.sram_bandwidth_gbps == 100.0


class TestCommands:
    def test_list_models_prints_registry(self, capsys):
        assert main(["list-models"]) == 0
        output = capsys.readouterr().out
        assert "alexnet" in output
        assert "resnet50_DS90" in output
        assert "sparse" in output.lower()

    def test_simulate_small_run(self, capsys):
        exit_code = main([
            "simulate", "snli", "--epochs", "1", "--batches-per-epoch", "1",
            "--batch-size", "4", "--max-groups", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "TensorDash vs baseline" in output
        assert "Total" in output
        assert "energy efficiency" in output.lower()

    def test_sweep_staging_depth(self, capsys):
        exit_code = main([
            "sweep", "snli", "--knob", "staging", "--values", "2,3",
            "--epochs", "1", "--max-groups", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "staging=2" in output
        assert "staging=3" in output

    def test_sweep_datatype(self, capsys):
        exit_code = main([
            "sweep", "snli", "--knob", "datatype", "--values", "fp32,bfloat16",
            "--epochs", "1", "--max-groups", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "datatype=bfloat16" in output

    def test_roofline_smoke(self, capsys):
        """Tier-1 smoke for the new subcommand: a starved-bandwidth run
        classifies operations memory-bound and reports the stall split."""
        exit_code = main([
            "roofline", "snli", "--epochs", "1", "--batches-per-epoch", "1",
            "--batch-size", "4", "--max-groups", "8",
            "--dram-bandwidth-gbps", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ridge point" in output
        assert "Memory-bound operations" in output
        assert "dram" in output
        assert "Speedup (with stalls)" in output

    def test_roofline_rejects_bad_bandwidth(self):
        with pytest.raises(SystemExit):
            main([
                "roofline", "snli", "--epochs", "1",
                "--dram-bandwidth-gbps", "-3",
            ])

    def test_sweep_dram_bandwidth_knob(self, capsys):
        exit_code = main([
            "sweep", "snli", "--knob", "dram_bandwidth_gbps",
            "--values", "2,51.2", "--epochs", "1", "--max-groups", "8",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "dram_bandwidth_gbps=2" in output
        assert "dram_bandwidth_gbps=51.2" in output

    def test_simulate_format_json_is_a_result_envelope(self, capsys):
        import json

        from repro.api.schema import SCHEMA_VERSION, ApiResult

        exit_code = main([
            "simulate", "snli", "--epochs", "1", "--batches-per-epoch", "1",
            "--batch-size", "4", "--max-groups", "8", "--format", "json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "simulate"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "Total" in payload["result"]["speedups"]
        # The document parses back into a validated envelope.
        envelope = ApiResult.from_dict(payload)
        assert envelope.result.model == "snli"

    def test_roofline_format_json_is_a_result_envelope(self, capsys):
        import json

        from repro.api.schema import ApiResult

        exit_code = main([
            "roofline", "snli", "--epochs", "1", "--batches-per-epoch", "1",
            "--batch-size", "4", "--max-groups", "8",
            "--dram-bandwidth-gbps", "2", "--format", "json",
        ])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "roofline"
        envelope = ApiResult.from_dict(payload)
        assert envelope.result.total_operations > 0
        assert envelope.result.roofline["points"]
