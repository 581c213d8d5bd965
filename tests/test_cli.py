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

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "snli", "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "SimulateRequest.seed" in capsys.readouterr().err

    def test_negative_serve_seed_is_a_usage_error(self, capsys, monkeypatch):
        import repro.api.service

        # Stands in for a server that would start with the bad seed.
        monkeypatch.setattr(repro.api.service, "serve", lambda **kwargs: 0)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "Session.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, expected", [(None, 0), (0, 0), (7, 7)])
    def test_session_seed_follows_the_flag(self, seed, expected):
        import argparse

        from repro.cli import _session_for

        args = argparse.Namespace(cache_dir=None, seed=seed)
        assert _session_for(args).seed == expected

    def test_unknown_sweep_knob_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "snli", "--knob", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "staging" in err

    def test_warm_run_prints_no_training_banner(self, tmp_path, capsys):
        argv = ["simulate", "snli", "--epochs", "1", "--batches-per-epoch", "1",
                "--batch-size", "4", "--max-groups", "8", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "Training snli for 1 epoch(s)..." in capsys.readouterr().out
        assert main(argv) == 0   # a new session: the trace comes from the store
        lines = capsys.readouterr().out.splitlines()
        assert not [line for line in lines if "Training" in line]
        assert "Loaded the snli trace from the trace store" in lines

    def test_fractional_integer_knob_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "snli", "--knob", "rows", "--values", "1.5"])
        assert excinfo.value.code == 2
        assert "SweepRequest.values" in capsys.readouterr().err

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


def _under(module: str, *roots: str) -> bool:
    return any(module == root or module.startswith(root + ".") for root in roots)


def _repro_packages():
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    return sorted(
        ".".join(path.parent.relative_to(src).parts)
        for path in (src / "repro").rglob("__init__.py")
    )


def _run_python(script: str):
    """Run ``script`` in a fresh interpreter; its last stdout line as JSON."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _modules_after(argv):
    """Modules a fresh ``repro`` process has loaded after running ``argv``
    (after only ``import repro.cli`` when ``argv`` is None)."""
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            main(argv)\n"
        "        except SystemExit:\n"
        "            pass\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return _run_python(script)


class TestImportCost:
    def test_cli_import_skips_the_http_service(self):
        """``import repro.cli`` must not load ``http.server``; the service
        names stay importable from ``repro.api`` on first use."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import sys\n"
            "import repro.cli\n"
            "assert 'http.server' not in sys.modules, 'http.server'\n"
            "assert 'repro.api.service' not in sys.modules, 'repro.api.service'\n"
            "from repro.api import ApiServer, create_server, serve\n"
            "assert 'http.server' in sys.modules\n"
            "assert serve.__module__ == 'repro.api.service'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_unknown_api_attribute_raises(self):
        import repro.api

        with pytest.raises(AttributeError):
            repro.api.not_a_name

    @pytest.mark.parametrize("argv", [
        ["list-models"], ["diff", "--help"], ["jobs", "--help"], ["trace", "--help"],
    ], ids=lambda argv: argv[0])
    def test_light_subcommands_skip_numpy_and_explore(self, argv):
        loaded = _modules_after(argv)
        heavy = sorted(m for m in loaded if _under(m, "numpy", "repro.explore"))
        assert not heavy

    def test_warm_simulate_loads_only_what_it_runs(self, tmp_path, capsys):
        argv = ["simulate", "snli", "--epochs", "1", "--batches-per-epoch", "1",
                "--batch-size", "4", "--max-groups", "8", "--format", "json",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0   # cold: trains and fills the cache
        capsys.readouterr()
        loaded = _modules_after(argv)
        builders = [f"repro.models.{name}" for name in (
            "alexnet", "densenet", "gcn", "img2txt", "resnet", "snli",
            "squeezenet", "vgg")]
        unused = sorted(m for m in loaded if _under(
            m, "repro.nn", "repro.pruning", "repro.training.trainer",
            "repro.training.data", "repro.explore.runner",
            "repro.analysis.roofline", "repro.api.service", *builders))
        assert not unused

    def test_cli_import_loads_few_repro_modules(self):
        loaded = _modules_after(None)
        assert len([m for m in loaded if _under(m, "repro")]) <= 25

    def test_package_inits_import_no_submodule(self):
        # A package __init__ only lists names; importing every package
        # loads the packages and the lazy-export helper, nothing else.
        packages = _repro_packages()
        script = (
            "import importlib, json, sys\n"
            f"for name in {packages!r}:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
        )
        loaded = _run_python(script)
        assert sorted(loaded) == sorted(packages + ["repro._lazy"])

    @pytest.mark.parametrize("package", _repro_packages())
    def test_every_lazy_export_resolves(self, package):
        import importlib

        module = importlib.import_module(package)
        assert list(module._EXPORTS) == module.__all__
        for name, source in module._EXPORTS.items():
            assert getattr(module, name) is getattr(importlib.import_module(source), name)
        assert set(module.__all__) <= set(dir(module))

