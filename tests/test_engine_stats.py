"""EngineStats counter round-trips.

``as_dict``/``from_dict`` must survive documents written by newer code
(extra keys), partial documents (missing counters default to zero), and
``snapshot``/``since`` must compose into exact per-request deltas — the
contract the session's ``engine`` envelope delta and the telemetry
metrics feed both ride on.
"""

import numpy as np

from repro.engine import SimulationEngine
from repro.engine.engine import EngineStats
from tests.test_engine_backends import make_conv_trace


class TestRoundTrips:
    def test_as_dict_from_dict_round_trip(self):
        stats = EngineStats(
            backend="reference", cache_dir="/tmp/c",
            layers_simulated=10, cache_hits=7, cache_misses=3,
            memo_hits=4, disk_hits=3,
        )
        rebuilt = EngineStats.from_dict(stats.as_dict())
        assert rebuilt == stats

    def test_from_dict_ignores_unknown_and_derived_fields(self):
        payload = {
            "backend": "vectorized",
            "layers_simulated": 5,
            "cache_hits": 2,
            "cache_misses": 3,
            "hit_rate": 0.99,            # derived: recomputed, not loaded
            "future_counter": 123,       # newer writer: ignored
            "nested": {"also": "fine"},
        }
        stats = EngineStats.from_dict(payload)
        assert stats.layers_simulated == 5
        assert stats.cache_hits == 2
        assert stats.hit_rate == 2 / 5
        assert not hasattr(stats, "future_counter")

    def test_from_dict_defaults_missing_counters(self):
        stats = EngineStats.from_dict({})
        assert stats.backend == "vectorized"
        assert stats.cache_dir is None
        assert stats.layers_total == 0
        assert stats.hit_rate == 0.0

    def test_snapshot_is_independent(self):
        stats = EngineStats(backend="vectorized", layers_simulated=1)
        frozen = stats.snapshot()
        stats.layers_simulated = 9
        stats.cache_hits = 4
        assert frozen.layers_simulated == 1
        assert frozen.cache_hits == 0

    def test_since_yields_exact_deltas_with_current_metadata(self):
        before = EngineStats(
            backend="vectorized", layers_simulated=3, cache_hits=1,
            cache_misses=2, memo_hits=1,
        )
        after = EngineStats(
            backend="vectorized", cache_dir="/tmp/c", layers_simulated=10,
            cache_hits=5, cache_misses=7, memo_hits=2, disk_hits=3,
        )
        delta = after.since(before)
        assert delta.cache_dir == "/tmp/c"
        assert delta.layers_simulated == 7
        assert delta.cache_hits == 4
        assert delta.cache_misses == 5
        assert (delta.memo_hits, delta.disk_hits) == (1, 3)
        # The delta survives its own serialisation round-trip.
        assert EngineStats.from_dict(delta.as_dict()) == delta

    def test_snapshot_since_round_trip_through_real_engine(self, tmp_path):
        rng = np.random.default_rng(11)
        layers = [make_conv_trace(rng, name=f"conv{i}") for i in range(3)]
        engine = SimulationEngine(
            backend="vectorized", cache_dir=tmp_path / "cache",
            max_groups=8, max_batch=2,
        )
        engine.simulate_layers(layers)
        before = engine.stats.snapshot()
        engine.simulate_layers(layers)          # all disk hits
        delta = engine.stats.since(before)
        assert delta.layers_simulated == 0
        assert delta.cache_hits == 3
        assert delta.disk_hits == 3
        assert delta.hit_rate == 1.0
