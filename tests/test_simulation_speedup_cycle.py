"""Tests for the layer cycle simulator."""

import numpy as np
import pytest

from repro.core.config import AcceleratorConfig, PEConfig
from repro.simulation.cycle_sim import LayerSimulator
from repro.training.tracing import LayerTrace


def make_conv_trace(activation_sparsity=0.5, gradient_sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    activation_mask = rng.random((2, 16, 8, 8)) >= activation_sparsity
    gradient_mask = rng.random((2, 8, 8, 8)) >= gradient_sparsity
    weight_mask = np.ones((8, 16, 3, 3), dtype=bool)
    return LayerTrace(
        layer_name="conv_test",
        layer_type="conv",
        kernel=3,
        stride=1,
        padding=1,
        activation_mask=activation_mask,
        output_gradient_mask=gradient_mask,
        weight_mask=weight_mask,
        activation_sparsity=activation_sparsity,
        gradient_sparsity=gradient_sparsity,
        macs=1000,
    )


def make_fc_trace(seed=1):
    rng = np.random.default_rng(seed)
    return LayerTrace(
        layer_name="fc_test",
        layer_type="fc",
        activation_mask=rng.random((32, 64)) >= 0.5,
        output_gradient_mask=rng.random((32, 16)) >= 0.5,
        weight_mask=np.ones((16, 64), dtype=bool),
        activation_sparsity=0.5,
        gradient_sparsity=0.5,
        macs=64 * 16 * 32,
    )


class TestLayerSimulator:
    def test_conv_layer_produces_three_operations(self):
        simulator = LayerSimulator(max_groups=32)
        result = simulator.simulate_layer(make_conv_trace())
        assert set(result.operations) == {"AxW", "AxG", "WxG"}
        assert set(result.traffic) == {"AxW", "AxG", "WxG"}

    def test_fc_layer_produces_three_operations(self):
        simulator = LayerSimulator(max_groups=32)
        result = simulator.simulate_layer(make_fc_trace())
        assert set(result.operations) == {"AxW", "AxG", "WxG"}

    def test_speedups_within_hardware_bounds(self):
        simulator = LayerSimulator(max_groups=32)
        result = simulator.simulate_layer(make_conv_trace())
        for op in result.operations.values():
            assert 1.0 <= op.speedup <= 3.0 + 1e-9

    def test_sparser_layers_are_faster(self):
        simulator = LayerSimulator(max_groups=32)
        sparse = simulator.simulate_layer(make_conv_trace(activation_sparsity=0.8, seed=2))
        dense = simulator.simulate_layer(make_conv_trace(activation_sparsity=0.1, seed=2))
        assert sparse.speedup("AxW") > dense.speedup("AxW")

    def test_layers_without_masks_are_skipped(self):
        simulator = LayerSimulator()
        empty = LayerTrace(layer_name="no_mask", layer_type="conv")
        results = simulator.simulate_layers([empty, make_conv_trace()])
        assert len(results) == 1

    def test_power_gated_config_gives_unit_speedup(self):
        config = AcceleratorConfig(power_gated=True)
        simulator = LayerSimulator(config, max_groups=16)
        result = simulator.simulate_layer(make_conv_trace(activation_sparsity=0.9))
        assert result.speedup() == pytest.approx(1.0)

    def test_two_deep_staging_is_no_faster_than_three_deep(self):
        trace = make_conv_trace(activation_sparsity=0.8, gradient_sparsity=0.8, seed=3)
        deep = LayerSimulator(AcceleratorConfig(), max_groups=32).simulate_layer(trace)
        shallow = LayerSimulator(
            AcceleratorConfig(pe=PEConfig(staging_depth=2)), max_groups=32
        ).simulate_layer(trace)
        assert shallow.speedup() <= deep.speedup() + 1e-9

    def test_layer_result_accessors(self):
        simulator = LayerSimulator(max_groups=16)
        result = simulator.simulate_layer(make_conv_trace())
        assert result.baseline_cycles > 0
        assert result.tensordash_cycles > 0
        assert result.total_traffic().dram_bytes > 0

    def test_traffic_scales_with_datatype(self):
        trace = make_conv_trace()
        fp32 = LayerSimulator(AcceleratorConfig(), max_groups=8).simulate_layer(trace)
        bf16 = LayerSimulator(
            AcceleratorConfig(pe=PEConfig(datatype="bfloat16")), max_groups=8
        ).simulate_layer(trace)
        assert bf16.total_traffic().dram_bytes < fp32.total_traffic().dram_bytes
