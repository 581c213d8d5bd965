"""Tests for the memory-hierarchy performance model and its threading.

Covers the bandwidth/capacity math of ``repro.memory.hierarchy``, the
unbounded-default bit-exactness guarantee, the per-operation stall/bound
verdicts the cycle simulator records, the staging-refill clamp, and the
interaction with sampling/compression.
"""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator, OperationResult
from repro.core.config import AcceleratorConfig
from repro.memory.hierarchy import MemoryHierarchy, bytes_per_cycle
from repro.memory.traffic import MemoryTraffic
from repro.simulation.cycle_sim import LayerSimulator
from repro.training.tracing import LayerTrace


def make_fc_trace(rng, name="fc0", batch=8, features=256, sparsity=0.6):
    activation = rng.random((batch, features)) >= sparsity
    gradient = rng.random((batch, features)) >= sparsity
    weights = rng.random((64, features)) >= 0.1
    return LayerTrace(
        layer_name=name,
        layer_type="fc",
        kernel=1,
        stride=1,
        padding=0,
        weight_mask=weights,
        activation_mask=activation,
        output_gradient_mask=gradient,
        macs=batch * features * 64,
    )


class TestMemoryHierarchyModel:
    def test_default_is_unbounded(self):
        assert MemoryHierarchy().is_unbounded
        assert MemoryHierarchy.unbounded().is_unbounded
        assert not MemoryHierarchy(dram_bandwidth_gbps=10.0).is_unbounded
        assert not MemoryHierarchy(sram_kb=256).is_unbounded

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(dram_bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            MemoryHierarchy(sram_bandwidth_gbps=-1.0)
        with pytest.raises(ValueError):
            MemoryHierarchy(sram_kb=0)

    def test_bytes_per_cycle(self):
        # 51.2 GB/s at 500 MHz = 102.4 bytes per cycle.
        assert bytes_per_cycle(51.2, 500) == pytest.approx(102.4)
        with pytest.raises(ValueError):
            bytes_per_cycle(0.0, 500)
        with pytest.raises(ValueError):
            bytes_per_cycle(1.0, 0)

    def test_table2_matches_memory_config(self):
        config = AcceleratorConfig()
        hierarchy = MemoryHierarchy.table2(config)
        assert hierarchy.dram_bandwidth_gbps == pytest.approx(
            config.memory.peak_dram_bandwidth_gbps
        )
        assert hierarchy.sram_kb == config.memory.on_chip_kb_per_tile * config.num_tiles
        assert not hierarchy.is_unbounded

    def test_edge_is_bandwidth_starved(self):
        edge = MemoryHierarchy.edge()
        table2 = MemoryHierarchy.table2()
        assert edge.dram_bandwidth_gbps < table2.dram_bandwidth_gbps
        assert edge.sram_kb < table2.sram_kb

    def test_unbounded_constrain_is_identity(self):
        traffic = MemoryTraffic(dram_bytes=10**9, sram_bytes=10**9)
        verdict = MemoryHierarchy().constrain(1234, traffic, 500)
        assert verdict.total_cycles == 1234
        assert verdict.stall_cycles == 0
        assert verdict.bound == "compute"
        assert not verdict.memory_bound
        assert verdict.dram_bytes == traffic.dram_bytes

    def test_constrain_applies_ceil_of_bytes_over_bandwidth(self):
        # 1.0 GB/s at 500 MHz = 2 bytes/cycle; 1001 bytes -> 501 cycles.
        hierarchy = MemoryHierarchy(dram_bandwidth_gbps=1.0)
        verdict = hierarchy.constrain(100, MemoryTraffic(dram_bytes=1001), 500)
        assert verdict.dram_cycles == 501
        assert verdict.total_cycles == 501
        assert verdict.stall_cycles == 401
        assert verdict.bound == "dram"
        assert verdict.memory_bound
        assert verdict.stall_fraction == pytest.approx(401 / 501)

    def test_compute_bound_when_bandwidth_suffices(self):
        hierarchy = MemoryHierarchy(dram_bandwidth_gbps=1.0)
        verdict = hierarchy.constrain(1000, MemoryTraffic(dram_bytes=10), 500)
        assert verdict.total_cycles == 1000
        assert verdict.stall_cycles == 0
        assert verdict.bound == "compute"

    def test_sram_level_can_bind(self):
        hierarchy = MemoryHierarchy(sram_bandwidth_gbps=1.0)
        traffic = MemoryTraffic(dram_bytes=0, sram_bytes=2000)
        verdict = hierarchy.constrain(10, traffic, 500)
        assert verdict.sram_cycles == 1000
        assert verdict.bound == "sram"

    def test_capacity_overflow_spills_to_dram(self):
        hierarchy = MemoryHierarchy(sram_kb=1)
        traffic = MemoryTraffic(dram_bytes=100, sram_bytes=1024 + 500)
        assert hierarchy.spill_bytes(traffic) == 500
        assert hierarchy.effective_dram_bytes(traffic) == 600
        # Without a bandwidth limit the spill costs no cycles, only bytes.
        verdict = hierarchy.constrain(10, traffic, 500)
        assert verdict.dram_bytes == 600
        assert verdict.stall_cycles == 0

    def test_spill_raises_dram_cycles_under_bandwidth_limit(self):
        traffic = MemoryTraffic(dram_bytes=1000, sram_bytes=4096)
        loose = MemoryHierarchy(dram_bandwidth_gbps=1.0)
        tight = MemoryHierarchy(dram_bandwidth_gbps=1.0, sram_kb=1)
        assert (
            tight.constrain(1, traffic, 500).dram_cycles
            > loose.constrain(1, traffic, 500).dram_cycles
        )


class TestConfigWiring:
    def test_default_config_hierarchy_is_unbounded(self):
        assert AcceleratorConfig().hierarchy.is_unbounded

    def test_with_hierarchy_composes(self):
        config = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=25.6)
        config = config.with_hierarchy(sram_kb=512)
        assert config.hierarchy.dram_bandwidth_gbps == 25.6
        assert config.hierarchy.sram_kb == 512

    def test_describe_mentions_finite_hierarchy_only(self):
        assert "memory:" not in AcceleratorConfig().describe()
        described = AcceleratorConfig().with_hierarchy(
            dram_bandwidth_gbps=12.8
        ).describe()
        assert "12.8 GB/s" in described

    def test_hierarchy_changes_config_repr(self):
        # The engine cache fingerprints configs via repr, so differing
        # hierarchy parameters must never produce colliding keys.
        base = repr(AcceleratorConfig())
        bounded = repr(AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=4.0))
        other = repr(AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=8.0))
        assert len({base, bounded, other}) == 3


class TestRefillClamp:
    def test_unbounded_accelerator_has_no_refill_limit(self):
        assert Accelerator(AcceleratorConfig()).refill_limit is None

    def test_finite_hierarchy_clamps_to_scratchpad_banks(self):
        config = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=51.2)
        assert Accelerator(config).refill_limit == config.memory.scratchpad_banks

    def test_capacity_only_hierarchy_never_changes_compute_cycles(self):
        # sram_kb alone affects DRAM byte counts, never cycle counts: a
        # huge capacity limit must stay bit-identical to unbounded even
        # for geometries where the refill clamp could bind.
        rng = np.random.default_rng(5)
        groups = rng.random((8, 1, 40, 16)) >= 0.97
        deep = AcceleratorConfig().with_pe(staging_depth=4)
        capacity_only = deep.with_hierarchy(sram_kb=10**6)
        assert Accelerator(capacity_only).refill_limit is None
        assert (
            Accelerator(capacity_only).run_operation("AxW", groups).tensordash_cycles
            == Accelerator(deep).run_operation("AxW", groups).tensordash_cycles
        )

    def test_clamp_only_binds_beyond_bank_depth(self):
        # staging depth 4 > 3 scratchpad banks: a fully drained window
        # wants to advance 4 rows but can only refill 3 per cycle.
        rng = np.random.default_rng(0)
        groups = (rng.random((4, 2, 40, 16)) >= 0.95)
        deep = AcceleratorConfig().with_pe(staging_depth=4)
        unbounded = Accelerator(deep)
        bounded = Accelerator(deep.with_hierarchy(dram_bandwidth_gbps=51.2))
        free = unbounded.run_operation("AxW", groups)
        clamped = bounded.run_operation("AxW", groups)
        assert clamped.tensordash_cycles > free.tensordash_cycles
        # At the default depth (3 = banks) the clamp can never bind.
        base = AcceleratorConfig()
        assert (
            Accelerator(base).run_operation("AxW", groups[:, :, :, :])
            == Accelerator(
                base.with_hierarchy(dram_bandwidth_gbps=51.2)
            ).run_operation("AxW", groups[:, :, :, :])
        )


class TestSimulatorThreading:
    def test_unbounded_layer_results_carry_zero_stalls(self):
        rng = np.random.default_rng(1)
        trace = make_fc_trace(rng)
        result = LayerSimulator(AcceleratorConfig(), max_groups=8).simulate_layer(trace)
        assert result.stall_cycles == 0
        assert result.memory_bound_operations() == []
        assert result.stall_fraction() == 0.0
        # Effective DRAM bytes are recorded even without a limit, and
        # match the traffic estimate byte for byte.
        assert result.effective_dram_bytes() == result.total_traffic().dram_bytes

    def test_finite_bandwidth_adds_stalls_and_lowers_speedup(self):
        rng = np.random.default_rng(2)
        trace = make_fc_trace(rng)
        free = LayerSimulator(AcceleratorConfig(), max_groups=8).simulate_layer(trace)
        tight = LayerSimulator(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=0.5),
            max_groups=8,
        ).simulate_layer(trace)
        assert tight.stall_cycles > 0
        assert tight.memory_bound_operations()
        assert tight.speedup() < free.speedup()
        for op in tight.operations.values():
            assert op.tensordash_cycles >= op.tensordash_compute_cycles
            assert op.baseline_cycles >= op.baseline_compute_cycles

    def test_finite_bandwidth_compute_cycles_match_unbounded(self):
        # The constraint only adds stalls on top of the same compute
        # cycles (default geometry: the refill clamp never binds).
        rng = np.random.default_rng(3)
        trace = make_fc_trace(rng)
        free = LayerSimulator(AcceleratorConfig(), max_groups=8).simulate_layer(trace)
        tight = LayerSimulator(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=0.5),
            max_groups=8,
        ).simulate_layer(trace)
        for name, op in tight.operations.items():
            assert op.tensordash_compute_cycles == free.operations[name].tensordash_cycles
            assert op.baseline_compute_cycles == free.operations[name].baseline_cycles

    def test_recorded_speedup_matches_analytical_formula(self):
        # ``bandwidth_bound_speedup`` and ``MemoryHierarchy.constrain``
        # implement the same shared-memory-floor rule; this invariant ties
        # the analytical helper to the simulator so they cannot drift.
        from repro.simulation.speedup import bandwidth_bound_speedup

        rng = np.random.default_rng(7)
        trace = make_fc_trace(rng)
        result = LayerSimulator(
            AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=1.0, sram_kb=2),
            max_groups=8,
        ).simulate_layer(trace)
        for op in result.operations.values():
            assert op.speedup == pytest.approx(
                bandwidth_bound_speedup(
                    op.baseline_compute_cycles,
                    op.tensordash_compute_cycles,
                    op.memory_cycles,
                )
            )

    def test_compression_reduces_bandwidth_pressure(self):
        # Satellite: CompressingDMA ratios feed the DRAM byte counts the
        # bandwidth model consumes, so disabling compression on a sparse
        # trace must increase both traffic and stall cycles.
        rng = np.random.default_rng(4)
        trace = make_fc_trace(rng, sparsity=0.8)
        from dataclasses import replace

        hierarchy_cfg = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=0.5)
        raw_cfg = replace(
            hierarchy_cfg, memory=replace(hierarchy_cfg.memory, compress_offchip=False)
        )
        compressed = LayerSimulator(hierarchy_cfg, max_groups=8).simulate_layer(trace)
        raw = LayerSimulator(raw_cfg, max_groups=8).simulate_layer(trace)
        assert compressed.total_traffic().dram_bytes < raw.total_traffic().dram_bytes
        assert compressed.effective_dram_bytes() < raw.effective_dram_bytes()
        assert compressed.stall_cycles < raw.stall_cycles

    def test_operation_result_properties(self):
        op = OperationResult(
            name="AxW",
            baseline_cycles=200,
            tensordash_cycles=150,
            macs_total=1000,
            macs_effectual=400,
            baseline_stall_cycles=50,
            tensordash_stall_cycles=75,
            memory_cycles=150,
            dram_bytes=4096,
            bound="dram",
        )
        assert op.baseline_compute_cycles == 150
        assert op.tensordash_compute_cycles == 75
        assert op.memory_bound
        assert op.stall_fraction == pytest.approx(0.5)
        assert op.speedup == pytest.approx(200 / 150)
        assert op.compute_speedup == pytest.approx(2.0)
