"""Oracle equivalence and result-cache tests for the simulation engine.

The engine's core guarantee is that its one fused execution path
(``LayerSimulator.simulate_layers`` over the packed kernel) is
bit-identical to the per-cycle oracle (``simulate_layer(...,
oracle=True)``) — same cycle counts, same MAC counts, same traffic —
across sparsity levels and layer shapes.  These tests enforce that at the
operation level (random row groups) and at the system level (traced
layers through the full ``SimulationEngine``), and cover the on-disk
cache's hit/miss/invalidation semantics and its pinned key format.
"""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.config import AcceleratorConfig
from repro.core.tile import TensorDashTile
from repro.engine import (
    ResultCache,
    SimulationEngine,
    config_fingerprint,
    layer_key,
    trace_fingerprint,
)
from repro.simulation.cycle_sim import LayerSimulator, traced_layers
from repro.training.tracing import LayerTrace


def random_groups(rng, num_groups, tile_rows, stream_rows, lanes=16, sparsity=0.6):
    return rng.random((num_groups, tile_rows, stream_rows, lanes)) >= sparsity


def make_conv_trace(rng, name="conv0", channels=6, size=10, batch=2,
                    kernel=3, sparsity=0.6):
    shape = (batch, channels, size, size)
    activation = rng.random(shape) >= sparsity
    gradient = rng.random(shape) >= sparsity
    weights = rng.random((4, channels, kernel, kernel)) >= 0.2
    return LayerTrace(
        layer_name=name,
        layer_type="conv",
        kernel=kernel,
        stride=1,
        padding=1,
        weight_mask=weights,
        activation_mask=activation,
        output_gradient_mask=gradient,
        macs=int(np.prod(shape)) * 9,
    )


def oracle_layers(traces, config=None, max_groups=16, max_batch=4):
    """The reference: every traced layer alone through the oracle loop."""
    simulator = LayerSimulator(config, max_groups=max_groups, max_batch=max_batch)
    return [
        simulator.simulate_layer(trace, oracle=True)
        for trace in traced_layers(traces)
    ]


def assert_results_identical(lhs, rhs):
    assert [r.layer_name for r in lhs] == [r.layer_name for r in rhs]
    for a, b in zip(lhs, rhs):
        assert set(a.operations) == set(b.operations)
        for op in a.operations:
            assert a.operations[op] == b.operations[op], (a.layer_name, op)
        assert a.traffic == b.traffic


class TestOperationEquivalence:
    """Property test: random sparsities/shapes, bit-identical operations."""

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_vectorized_matches_reference_across_sparsity(self, sparsity):
        rng = np.random.default_rng(int(sparsity * 10))
        acc = Accelerator()
        groups = random_groups(rng, 6, 4, 33, sparsity=sparsity)
        ref = acc.run_operation("AxW", groups, oracle=True)
        vec = acc.run_operation("AxW", groups)
        assert ref == vec

    @pytest.mark.parametrize("seed", range(5))
    def test_vectorized_matches_reference_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        num_groups = int(rng.integers(1, 9))
        tile_rows = int(rng.integers(1, 5))
        stream_rows = int(rng.integers(1, 50))
        sparsity = float(rng.random())
        config = AcceleratorConfig().with_pe(
            staging_depth=int(rng.integers(1, 5))
        ).with_tile(rows=tile_rows)
        acc = Accelerator(config)
        groups = random_groups(rng, num_groups, tile_rows, stream_rows,
                               sparsity=sparsity)
        ref = acc.run_operation("WxG", groups, oracle=True)
        vec = acc.run_operation("WxG", groups)
        assert ref == vec

    def test_power_gated_baseline_identical(self):
        rng = np.random.default_rng(7)
        acc = Accelerator(AcceleratorConfig(power_gated=True))
        groups = random_groups(rng, 4, 4, 20, sparsity=0.5)
        ref = acc.run_operation("AxG", groups, oracle=True)
        vec = acc.run_operation("AxG", groups)
        assert ref == vec
        assert ref.tensordash_cycles == ref.baseline_cycles

    def test_accelerator_serial_and_batched_paths_agree(self):
        """The oracle on a list of groups equals the fused packed kernel."""
        rng = np.random.default_rng(11)
        acc = Accelerator()
        groups = random_groups(rng, 5, 4, 29, sparsity=0.7)
        serial = acc.run_operation("AxW", list(groups), oracle=True)
        [batched] = acc.run_operations_batched([("AxW", groups)])
        assert serial == batched


class TestTileFastPath:
    @pytest.mark.parametrize("sparsity", [0.0, 0.4, 0.8])
    def test_vectorized_tile_cycles_match_serial(self, sparsity):
        rng = np.random.default_rng(int(sparsity * 10) + 1)
        a_streams = [rng.random((26, 16)) for _ in range(4)]
        b_streams = []
        for _ in range(4):
            b = rng.random((26, 16))
            b[rng.random((26, 16)) < sparsity] = 0.0
            b_streams.append(b)
        serial = TensorDashTile().process(a_streams, b_streams,
                                          compute_outputs=False)
        effectual = np.stack([b != 0 for b in b_streams])
        fast = Accelerator().run_operation("AxW", effectual[None])
        assert serial.cycles == fast.tensordash_cycles
        assert serial.macs_performed == fast.macs_effectual * len(a_streams)


class TestSystemEquivalence:
    """Traced layers through the full engine against the oracle."""

    @pytest.fixture(scope="class")
    def traces(self):
        rng = np.random.default_rng(42)
        return [
            make_conv_trace(rng, "conv_dense", sparsity=0.1),
            make_conv_trace(rng, "conv_mid", sparsity=0.5),
            make_conv_trace(rng, "conv_sparse", sparsity=0.9),
        ]

    @pytest.fixture(scope="class")
    def reference_results(self, traces):
        return oracle_layers(traces)

    def test_vectorized_bit_identical(self, traces, reference_results):
        engine = SimulationEngine(max_groups=16)
        assert_results_identical(engine.simulate_layers(traces),
                                 reference_results)

    def test_wide_staging_window_runs_on_the_oracle(self, traces):
        """Windows over 64 bits (depth 5 x 16 lanes) fall back, identically."""
        config = AcceleratorConfig().with_pe(staging_depth=5)
        assert not Accelerator(config).batch_scheduler.packable
        reference = oracle_layers(traces, config, max_groups=4)
        fused = SimulationEngine(config, max_groups=4).simulate_layers(traces)
        assert_results_identical(fused, reference)

    def test_all_backends_identical_under_finite_hierarchy(self, traces):
        """Memory-aware results match the oracle too (incl. stalls)."""
        config = AcceleratorConfig().with_hierarchy(
            dram_bandwidth_gbps=4.0, sram_kb=128
        )
        reference = oracle_layers(traces, config)
        assert any(
            op.memory_bound
            for result in reference
            for op in result.operations.values()
        )
        results = SimulationEngine(config, max_groups=16).simulate_layers(traces)
        assert_results_identical(results, reference)

    def test_refill_clamp_equivalence_deep_staging(self):
        """staging depth > scratchpad banks: the clamp binds, oracle agrees."""
        rng = np.random.default_rng(11)
        config = AcceleratorConfig().with_pe(staging_depth=4).with_hierarchy(
            dram_bandwidth_gbps=51.2
        )
        acc = Accelerator(config)
        # Single-row groups: the group advance equals the row advance, so
        # highly sparse streams regularly drain all 4 staging rows at once
        # and hit the 3-bank refill ceiling.
        groups = random_groups(rng, 8, 1, 40, sparsity=0.97)
        ref = acc.run_operation("AxW", groups, oracle=True)
        vec = acc.run_operation("AxW", groups)
        assert ref == vec
        unclamped = Accelerator(
            AcceleratorConfig().with_pe(staging_depth=4)
        ).run_operation("AxW", groups)
        assert vec.tensordash_cycles > unclamped.tensordash_cycles

    def test_layers_without_masks_are_skipped(self, traces):
        engine = SimulationEngine(max_groups=16)
        bare = LayerTrace(layer_name="untraced", layer_type="conv")
        results = engine.simulate_layers([bare] + list(traces))
        assert [r.layer_name for r in results] == [t.layer_name for t in traces]

    def test_stats_count_simulated_layers(self, traces):
        engine = SimulationEngine(max_groups=16)
        engine.simulate_layers(traces)
        assert engine.stats.layers_simulated == len(traces)
        assert engine.stats.as_dict()["backend"] == "vectorized"
        assert engine.stats.as_dict()["hit_rate"] == 0.0


class TestResultCache:
    @pytest.fixture()
    def traces(self):
        rng = np.random.default_rng(3)
        return [make_conv_trace(rng, f"conv{i}", sparsity=0.5) for i in range(3)]

    def test_second_run_is_all_hits_and_bit_identical(self, traces, tmp_path):
        first = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        results_first = first.simulate_layers(traces)
        assert first.stats.cache_misses == len(traces)
        assert first.stats.layers_simulated == len(traces)

        second = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        results_second = second.simulate_layers(traces)
        assert second.stats.cache_hits == len(traces)
        assert second.stats.cache_misses == 0
        assert second.stats.layers_simulated == 0
        assert second.stats.hit_rate == 1.0
        assert_results_identical(results_first, results_second)

    def test_config_change_invalidates(self, traces, tmp_path):
        SimulationEngine(cache_dir=tmp_path, max_groups=16).simulate_layers(traces)
        other = SimulationEngine(
            AcceleratorConfig().with_pe(staging_depth=2),
            cache_dir=tmp_path, max_groups=16,
        )
        other.simulate_layers(traces)
        assert other.stats.cache_hits == 0
        assert other.stats.cache_misses == len(traces)

    def test_hierarchy_change_invalidates(self, traces, tmp_path):
        """Results from differing memory hierarchies must never collide."""
        SimulationEngine(cache_dir=tmp_path, max_groups=16).simulate_layers(traces)
        bounded = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0),
            cache_dir=tmp_path, max_groups=16,
        )
        bounded.simulate_layers(traces)
        assert bounded.stats.cache_hits == 0
        assert bounded.stats.cache_misses == len(traces)
        # A different bandwidth is again a different key...
        other = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=8.0),
            cache_dir=tmp_path, max_groups=16,
        )
        other.simulate_layers(traces)
        assert other.stats.cache_hits == 0
        # ...while re-running the same bounded config is all hits, with
        # the stall/bound fields surviving the round trip.
        again = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0),
            cache_dir=tmp_path, max_groups=16,
        )
        cached = again.simulate_layers(traces)
        assert again.stats.cache_hits == len(traces)
        fresh = SimulationEngine(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0),
            max_groups=16,
        ).simulate_layers(traces)
        assert_results_identical(cached, fresh)
        assert any(
            op.tensordash_stall_cycles > 0
            for result in cached
            for op in result.operations.values()
        )

    def test_layer_key_is_pinned(self):
        """Keys are byte-identical to those existing cache dirs were written
        with; a change here silently orphans every user's cache."""
        config_fp = config_fingerprint(AcceleratorConfig(), 16, 4)
        index = np.arange(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        trace = LayerTrace(
            layer_name="conv", layer_type="conv", kernel=3, stride=1, padding=1,
            weight_mask=np.arange(2 * 3 * 3 * 3).reshape(2, 3, 3, 3) % 4 != 0,
            activation_mask=index % 3 != 0,
            output_gradient_mask=index % 5 != 0,
            macs=864,
        )
        trace_fp = trace_fingerprint(trace)
        assert config_fp == (
            "250e2a8e0d80a7cdd5cb9c5c8ca158e0594720e76da11717a5469e0b5684290c"
        )
        assert trace_fp == (
            "e1a6f77951d15caf6498589de8ec098bd3f5d1bfd10685be7b367bb98f177853"
        )
        assert layer_key(config_fp, trace_fp) == (
            "52c3d3fb879ba95d942cbd0f98ce9ac557b727b7cc10926ae6cb256abc5008ee"
        )

    def test_trace_change_invalidates(self, tmp_path):
        rng = np.random.default_rng(9)
        trace_a = make_conv_trace(rng, "conv", sparsity=0.5)
        trace_b = make_conv_trace(rng, "conv", sparsity=0.5)  # new random masks
        engine = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        engine.simulate_layers([trace_a])
        engine.simulate_layers([trace_b])
        assert engine.stats.cache_misses == 2

    def test_corrupt_entry_is_a_miss(self, traces, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        engine.simulate_layers(traces)
        for path in engine.cache.cache_dir.glob("*/*.json"):
            path.write_text("{not json")
        again = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        again.simulate_layers(traces)
        assert again.stats.cache_hits == 0
        assert again.stats.cache_misses == len(traces)

    def test_fingerprints_are_stable_and_sensitive(self):
        rng = np.random.default_rng(5)
        trace = make_conv_trace(rng, "conv", sparsity=0.5)
        config = AcceleratorConfig()
        fp1 = config_fingerprint(config, 16, 4)
        fp2 = config_fingerprint(config, 16, 4)
        assert fp1 == fp2
        assert fp1 != config_fingerprint(config, 32, 4)
        tfp = trace_fingerprint(trace)
        assert tfp == trace_fingerprint(trace)
        key = layer_key(fp1, tfp)
        assert key == layer_key(fp2, tfp)
        assert key != layer_key(config_fingerprint(config, 32, 4), tfp)

    def test_cache_len_counts_entries(self, traces, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path, max_groups=16)
        engine.simulate_layers(traces)
        assert len(ResultCache(tmp_path)) == len(traces)


class TestRunnerIntegration:
    def test_experiment_runner_exposes_engine_stats(self, tmp_path):
        from repro.simulation.runner import ExperimentRunner
        from repro.training.tracing import EpochTrace

        rng = np.random.default_rng(21)
        epoch = EpochTrace(epoch=0,
                           layers=[make_conv_trace(rng, "c0"),
                                   make_conv_trace(rng, "c1")])
        runner = ExperimentRunner(max_groups=16, cache_dir=tmp_path)
        runner.run_epoch("toy", epoch)
        assert runner.engine_stats.cache_misses == 2
        rerun = ExperimentRunner(max_groups=16, cache_dir=tmp_path)
        rerun.run_epoch("toy", epoch)
        assert rerun.engine_stats.cache_hits == 2
        assert rerun.engine_stats.layers_simulated == 0

    def test_runner_backend_equivalence_on_trained_trace(self):
        """End-to-end: a real (briefly trained) model matches the oracle."""
        from repro.models import build_snli
        from repro.nn.optim import MomentumSGD
        from repro.simulation.runner import ExperimentRunner, ModelResult
        from repro.training import (
            SyntheticSequenceDataset,
            Trainer,
            TrainingConfig,
        )

        model = build_snli(seed=0)
        dataset = SyntheticSequenceDataset(vocab_size=512, sequence_length=20,
                                           num_classes=3, seed=0)
        trainer = Trainer(
            model, MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=1, batches_per_epoch=1, batch_size=4),
        )
        trace = trainer.train(dataset, model_name="snli")
        result = ExperimentRunner(max_groups=8).run_final_epoch(trace)
        reference = oracle_layers(trace.final_epoch().layers, max_groups=8)
        assert reference
        assert_results_identical(result.layer_results, reference)
        oracle_result = ModelResult(
            model_name="snli", epoch=result.epoch, layer_results=reference
        )
        assert result.speedup() == oracle_result.speedup()
