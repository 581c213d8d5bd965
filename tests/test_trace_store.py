"""Content-addressed trace store: exact round trips, keys, corrupt files.

A stored trace must be indistinguishable from a fresh retrain (same
masks, same scalar values and types), its key must move with every
input that can change the trace, and a damaged file must read as a miss
that retrains and overwrites it, never as an error or a wrong trace.
"""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro.training.store as store_module
from repro.api.session import Session
from repro.engine.cache import trace_fingerprint
from repro.models.registry import trace_workload
from repro.telemetry.metrics import TRACE_STORE
from repro.training.store import TraceStore, source_hash, trace_key
from repro.training.trainer import DEFAULT_TRACE_MAX_BATCH, Trainer

SMALL = dict(epochs=2, batches_per_epoch=1, batch_size=4, seed=3)
KEY_ARGS = dict(model="snli", epochs=2, batches_per_epoch=1, batch_size=4,
                seed=3, learning_rate=0.01, trace_max_batch=None)
REPO_ROOT = Path(__file__).resolve().parent.parent
#: Public names in the traced packages that no caller outside the tests
#: needs.  ``SGD`` is the paper's optimiser (Eq. 10); the loss tests train
#: with it.
UNCALLED_ALLOWED = {"SGD"}


def outcomes():
    return {o: TRACE_STORE.value(outcome=o) for o in ("hit", "miss", "corrupt")}


def assert_same_trace(got, expected):
    assert got.model_name == expected.model_name
    assert len(got.epochs) == len(expected.epochs)
    for mine, theirs in zip(got.epochs, expected.epochs):
        assert (type(mine.epoch), mine.epoch) == (type(theirs.epoch), theirs.epoch)
        assert len(mine.layers) == len(theirs.layers)
        for a, b in zip(mine.layers, theirs.layers):
            assert trace_fingerprint(a) == trace_fingerprint(b)
            for field in dataclasses.fields(a):
                left, right = getattr(a, field.name), getattr(b, field.name)
                assert type(left) is type(right), field.name
                if field.name.endswith("_mask"):
                    assert left is None or left.dtype == right.dtype == bool
                else:
                    assert left == right, field.name


class TestRoundTrip:
    @pytest.mark.parametrize("model", ["snli", "gcn", "squeezenet"])
    def test_stored_trace_equals_a_fresh_retrain(self, tmp_path, model):
        first = trace_workload(model, cache_dir=tmp_path, **SMALL)
        before = outcomes()
        loaded = trace_workload(model, cache_dir=tmp_path, **SMALL)
        assert outcomes()["hit"] == before["hit"] + 1
        assert loaded is not first
        assert_same_trace(loaded, trace_workload(model, **SMALL))

    def test_layout_is_sharded_under_traces(self, tmp_path):
        trace_workload("snli", cache_dir=tmp_path, **SMALL)
        key = trace_key(**KEY_ARGS)
        (path,) = tmp_path.glob("traces/*/*.npz")
        assert path == tmp_path / "traces" / key[:2] / f"{key}.npz"
        assert not list(tmp_path.glob("traces/*/*.tmp"))
        with np.load(path, allow_pickle=False) as archive:
            assert {archive[name].dtype for name in archive.files} == {np.dtype(np.uint8)}

    def test_sparsities_are_plain_floats(self):
        trace = trace_workload("snli", **SMALL)
        for layer in trace.final_epoch().layers:
            for name in ("weight_sparsity", "activation_sparsity", "gradient_sparsity"):
                assert type(getattr(layer, name)) is float


class TestKey:
    @pytest.mark.parametrize("name, value", [
        ("model", "gcn"), ("epochs", 3), ("batches_per_epoch", 2),
        ("batch_size", 8), ("seed", 4), ("learning_rate", 0.02),
        ("trace_max_batch", 2),
    ])
    def test_every_training_input_moves_the_key(self, name, value):
        assert trace_key(**dict(KEY_ARGS, **{name: value})) != trace_key(**KEY_ARGS)

    def test_default_trace_max_batch_is_normalised(self):
        assert trace_key(**dict(KEY_ARGS, trace_max_batch=DEFAULT_TRACE_MAX_BATCH)) \
            == trace_key(**KEY_ARGS)

    def test_schema_version_moves_the_key(self, monkeypatch):
        before = trace_key(**KEY_ARGS)
        monkeypatch.setattr(store_module, "TRACE_SCHEMA_VERSION", 99)
        assert trace_key(**KEY_ARGS) != before

    def test_source_hash_moves_the_key(self, monkeypatch):
        before = trace_key(**KEY_ARGS)
        monkeypatch.setattr(store_module, "source_hash", lambda: "edited")
        assert trace_key(**KEY_ARGS) != before

    def test_source_hash_covers_every_traced_package(self, tmp_path):
        for package in store_module.TRACED_PACKAGES:
            (tmp_path / package).mkdir()
            (tmp_path / package / "mod.py").write_text("x = 1\n")
        base = source_hash.__wrapped__(tmp_path)
        for package in store_module.TRACED_PACKAGES:
            (tmp_path / package / "mod.py").write_text("x = 2\n")
            edited = source_hash.__wrapped__(tmp_path)
            assert edited != base, package
            base = edited
        (tmp_path / "engine").mkdir()
        (tmp_path / "engine" / "mod.py").write_text("untraced\n")
        assert source_hash.__wrapped__(tmp_path) == base

    def test_traced_packages_hold_no_uncalled_code(self):
        # Every byte under TRACED_PACKAGES moves every trace key, so each
        # public top-level class or function there must have a caller in
        # src/, examples/, benchmarks/ or perfbench/.  Only Name and
        # Attribute nodes count as uses: imports and __all__ strings (the
        # package re-exports) do not.
        defined = {}
        for package in store_module.TRACED_PACKAGES:
            for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
                for node in ast.parse(path.read_text()).body:
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) \
                            and not node.name.startswith("_"):
                        defined[node.name] = path.relative_to(REPO_ROOT)
        used = set()
        for directory in ("src", "examples", "benchmarks", "perfbench"):
            for path in (REPO_ROOT / directory).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
        uncalled = {name: str(path) for name, path in defined.items()
                    if name not in used and name not in UNCALLED_ALLOWED}
        assert not uncalled


def _flip_mask_byte(data: bytes, packed: np.ndarray) -> bytes:
    offset = data.index(packed.tobytes()) + packed.size // 2
    damaged = bytearray(data)
    damaged[offset] ^= 0xFF
    return bytes(damaged)


def _shape_mismatch(path, key, trace) -> bytes:
    arrays = store_module._encode(key, trace)
    meta = json.loads(arrays["meta"].tobytes())
    meta["epochs"][0]["layers"][0]["shapes"]["weight_mask"][0] += 1
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    return path.read_bytes()


class TestCorruptFiles:
    @pytest.mark.parametrize("damage", ["truncated", "flipped", "junk", "shape"])
    def test_damage_is_a_miss_that_retrains_and_overwrites(self, tmp_path, damage):
        reference = trace_workload("snli", cache_dir=tmp_path, **SMALL)
        key = trace_key(**KEY_ARGS)
        path = TraceStore(tmp_path).path_for(key)
        good = path.read_bytes()
        if damage == "truncated":
            bad = good[: len(good) // 2]
        elif damage == "flipped":
            with np.load(path, allow_pickle=False) as archive:
                bad = _flip_mask_byte(good, archive["e1.l0.weight_mask"])
        elif damage == "junk":
            bad = b"\x93NUMPY not really an archive" * 16
        else:
            bad = _shape_mismatch(path, key, reference)
        path.write_bytes(bad)

        before = outcomes()
        trained = []
        real_train = Trainer.train

        def counting(self, *args, **kwargs):
            trained.append(True)
            return real_train(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trainer, "train", counting)
            again = trace_workload("snli", cache_dir=tmp_path, **SMALL)
        assert trained == [True]
        after = outcomes()
        assert after["corrupt"] == before["corrupt"] + 1
        assert after["hit"] == before["hit"]
        assert_same_trace(again, reference)
        # Overwritten with a whole trace (zip timestamps make bytes vary).
        assert path.stat().st_size == len(good)
        assert_same_trace(TraceStore(tmp_path).load(key), reference)

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        before = outcomes()
        assert TraceStore(tmp_path).load(trace_key(**KEY_ARGS)) is None
        after = outcomes()
        assert after["miss"] == before["miss"] + 1
        assert after["corrupt"] == before["corrupt"]


class TestSessions:
    def test_second_session_never_trains(self, tmp_path, monkeypatch):
        request = dict(epochs=1, batches_per_epoch=1, batch_size=4, max_groups=8)
        first = Session(cache_dir=str(tmp_path)).simulate("snli", **request)

        def refuse(*args, **kwargs):
            raise AssertionError("Trainer.train called on a warm trace store")

        monkeypatch.setattr(Trainer, "train", refuse)
        again = Session(cache_dir=str(tmp_path)).simulate("snli", **request)
        assert again.result == first.result
        assert again.engine["layers_simulated"] == 0

    def test_session_without_cache_dir_writes_no_store(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Session(environ={}).simulate(
            "snli", epochs=1, batches_per_epoch=1, batch_size=4, max_groups=8
        )
        assert list(tmp_path.iterdir()) == []
