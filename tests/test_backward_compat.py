"""Artifacts written before the worker-pool backend and the shared cache
tier were removed must keep loading — and keep hitting.

The fixtures under ``tests/fixtures/legacy_engine`` were produced by that
earlier code:

* ``study_report.json`` — ``repro explore spec.json --study-dir study
  --format json``; its ``engine`` block still carries the retired
  ``jobs`` / ``shared_dir`` / ``shared_hits`` keys;
* ``resnet50_cache/`` — the ``--cache-dir`` of ``repro simulate resnet50``
  (CLI defaults, 23 traced layers).
"""

import io
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path

from repro.cli import main
from repro.engine.engine import EngineStats

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "legacy_engine"


def _run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class TestLegacyDocuments:
    def test_engine_stats_load_a_legacy_engine_dict(self):
        payload = json.loads((FIXTURES / "study_report.json").read_text())["engine"]
        assert {"jobs", "shared_dir", "shared_hits"} <= set(payload)
        stats = EngineStats.from_dict(payload)
        assert stats.backend == "vectorized"
        assert stats.layers_simulated == payload["layers_simulated"] == 8
        assert stats.cache_misses == payload["cache_misses"]
        assert EngineStats.from_dict(stats.as_dict()) == stats
        assert not {"jobs", "shared_dir", "shared_hits"} & set(stats.as_dict())

    def test_repro_diff_loads_a_legacy_study_document(self, tmp_path):
        """Re-running the same spec today gives an identical snapshot."""
        fresh = tmp_path / "fresh.json"
        code, _ = _run([
            "explore", str(FIXTURES / "spec.json"),
            "--format", "json", "--output", str(fresh),
        ])
        assert code == 0
        code, out = _run([
            "diff", str(FIXTURES / "study_report.json"), str(fresh),
            "--fail-on", "changed",
        ])
        assert code == 0, out
        assert "2 matched, 0 added, 0 removed" in out
        assert "the snapshots are identical" in out


class TestLegacyCacheDir:
    def test_legacy_cache_dir_serves_every_resnet50_layer(self, tmp_path):
        """The layer cache key did not move: 23/23 disk hits, 0 simulated."""
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURES / "resnet50_cache", cache)
        code, out = _run([
            "simulate", "resnet50", "--cache-dir", str(cache), "--format", "json",
        ])
        assert code == 0
        engine = json.loads(out)["engine"]
        assert engine["disk_hits"] == 23
        assert engine["cache_hits"] == 23
        assert engine["layers_simulated"] == 0
