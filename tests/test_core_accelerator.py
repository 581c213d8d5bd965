"""Tests for the multi-tile accelerator model.

The accelerator counts cycles with the bit-packed kernel; every check
here compares it against the per-cycle oracle (the functional tile model,
:meth:`HardwareScheduler.group_cycles` or ``run_operation(..., oracle=True)``),
never against another fast path.
"""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.scheduler import pack_stream_rows
from repro.core.config import AcceleratorConfig, PEConfig, TileConfig
from repro.core.tile import TensorDashTile
from tests.test_engine_backends import random_groups


def make_groups(num_groups=6, tile_rows=4, stream_rows=25, lanes=16, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((num_groups, tile_rows, stream_rows, lanes)) > sparsity


class TestTileCycles:
    def test_matches_functional_tile_model(self):
        """The packed cycle kernel agrees with the per-value tile model."""
        rng = np.random.default_rng(0)
        stream_rows, lanes = 30, 16
        accelerator = Accelerator()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            b_streams = []
            for _ in range(4):
                b = rng.random((stream_rows, lanes))
                b[rng.random((stream_rows, lanes)) < 0.6] = 0.0
                b_streams.append(b)
            a_streams = [rng.random((stream_rows, lanes)) for _ in range(4)]
            functional = TensorDashTile().process(a_streams, b_streams, compute_outputs=False)
            effectual = np.stack([b != 0 for b in b_streams])
            assert accelerator.group_cycles(effectual[None])[0] == functional.cycles

    def test_batch_matches_individual_groups(self):
        accelerator = Accelerator()
        groups = make_groups(num_groups=8, seed=1)
        batched = accelerator.group_cycles(groups)
        individual = np.array([accelerator.scheduler.group_cycles(g) for g in groups])
        assert np.array_equal(batched, individual)

    def test_power_gated_matches_baseline(self):
        config = AcceleratorConfig(power_gated=True)
        accelerator = Accelerator(config)
        groups = make_groups(sparsity=0.9, seed=2)
        cycles = accelerator.group_cycles(groups)
        assert np.all(cycles == groups.shape[2])

    def test_empty_groups(self):
        accelerator = Accelerator()
        cycles = accelerator.group_cycles(np.zeros((0, 4, 10, 16), dtype=bool))
        assert cycles.shape == (0,)

    def test_rejects_bad_shape(self):
        accelerator = Accelerator()
        with pytest.raises(ValueError):
            accelerator.group_cycles(np.zeros((4, 10, 16), dtype=bool))


class TestRunOperation:
    def test_speedup_between_one_and_depth(self):
        accelerator = Accelerator()
        result = accelerator.run_operation("AxW", make_groups(sparsity=0.7, seed=3))
        assert 1.0 <= result.speedup <= accelerator.config.pe.max_speedup

    def test_dense_operation_has_unit_speedup(self):
        accelerator = Accelerator()
        groups = np.ones((4, 4, 20, 16), dtype=bool)
        result = accelerator.run_operation("AxW", groups)
        assert result.speedup == pytest.approx(1.0)
        assert result.potential_speedup == pytest.approx(1.0)

    def test_potential_speedup_upper_bounds_actual(self):
        accelerator = Accelerator()
        for sparsity in (0.3, 0.6, 0.9):
            result = accelerator.run_operation("AxW", make_groups(sparsity=sparsity, seed=4))
            assert result.speedup <= result.potential_speedup + 1e-9

    def test_accepts_list_of_groups(self):
        accelerator = Accelerator()
        groups = [g for g in make_groups(num_groups=3, seed=5)]
        from_list = accelerator.run_operation("AxW", groups)
        from_array = accelerator.run_operation("AxW", np.stack(groups))
        assert from_list.tensordash_cycles == from_array.tensordash_cycles
        assert from_list.baseline_cycles == from_array.baseline_cycles

    def test_mac_accounting(self):
        accelerator = Accelerator()
        groups = make_groups(num_groups=2, tile_rows=4, stream_rows=10, seed=6)
        result = accelerator.run_operation("WxG", groups)
        assert result.macs_total == 2 * 4 * 10 * 16
        assert result.macs_effectual == int(groups.sum())


class TestConfigPlumbing:
    def test_describe_mentions_geometry(self):
        description = Accelerator().describe()
        assert "16 tiles" in description
        assert "4x4" in description

    def test_staging_depth_two_configuration(self):
        config = AcceleratorConfig(pe=PEConfig(staging_depth=2))
        accelerator = Accelerator(config)
        groups = make_groups(sparsity=0.9, seed=7)
        deep = Accelerator().group_cycles(groups).sum()
        shallow = accelerator.group_cycles(groups).sum()
        assert shallow >= deep

    def test_row_geometry_affects_speedup(self):
        """Fig. 17: grouping more rows per tile cannot increase speedup."""
        rng = np.random.default_rng(8)
        streams = rng.random((16, 40, 16)) > 0.7
        accelerator = Accelerator()

        def speedup_with_rows(rows):
            grouped = streams.reshape(16 // rows, rows, 40, 16)
            tensordash = accelerator.group_cycles(grouped).sum()
            baseline = grouped.shape[0] * 40
            return baseline / tensordash

        assert speedup_with_rows(1) >= speedup_with_rows(4) >= speedup_with_rows(16)


def reference_result(accelerator, name, groups):
    return accelerator.run_operation(name, groups, oracle=True)


class TestRaggedBatchedKernels:
    """Ragged/fused batches must equal the reference oracle per unit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_groups_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        acc = Accelerator()
        tile_rows, lanes, depth = 4, acc.config.pe.lanes, acc.config.pe.staging_depth
        rows = [int(r) for r in rng.integers(1, 30, size=5)]
        groups = np.zeros((len(rows), tile_rows, max(rows), lanes), dtype=bool)
        for index, r in enumerate(rows):
            groups[index, :, :r] = rng.random((tile_rows, r, lanes)) >= 0.6
        packed = np.zeros((len(rows) * tile_rows, max(rows) + depth), dtype=np.uint64)
        packed[:, : max(rows)] = pack_stream_rows(
            groups.reshape(-1, max(rows), lanes)
        )
        ragged = acc.batch_scheduler.group_cycles_packed(packed, tile_rows, rows)
        for index, r in enumerate(rows):
            exact = acc.scheduler.group_cycles(groups[index, :, :r])
            assert ragged[index] == exact, (index, r)

    @pytest.mark.parametrize("lanes,depth", [(16, 3), (32, 3)])
    def test_fused_units_match_reference(self, lanes, depth):
        # lanes=32 exceeds the 64-bit window: exercises the oracle
        # fallback; lanes=16 exercises the packed merge.
        rng = np.random.default_rng(lanes)
        config = AcceleratorConfig().with_pe(lanes=lanes, staging_depth=depth)
        acc = Accelerator(config)
        assert acc.batch_scheduler.packable == (lanes == 16)
        units = []
        for index in range(6):
            num_groups = int(rng.integers(1, 6))
            stream_rows = int(rng.integers(1, 25))
            units.append((
                f"op{index}",
                random_groups(rng, num_groups, 4, stream_rows, lanes=lanes,
                              sparsity=float(rng.random())),
            ))
        units.append(("empty", np.zeros((0, 4, 5, lanes), dtype=bool)))
        units.append(("norows", np.zeros((2, 4, 0, lanes), dtype=bool)))
        fused = acc.run_operations_batched(units)
        for (name, groups), result in zip(units, fused):
            assert result == reference_result(acc, name, groups), name

    def test_rejects_mixed_tile_rows(self):
        acc = Accelerator()
        units = [
            ("a", np.zeros((1, 4, 3, 16), dtype=bool)),
            ("b", np.zeros((1, 2, 3, 16), dtype=bool)),
        ]
        with pytest.raises(ValueError):
            acc.run_operations_batched(units)

    def test_bucket_budget_splits_but_stays_identical(self, monkeypatch):
        rng = np.random.default_rng(99)
        acc = Accelerator()
        units = [
            ("op", random_groups(rng, 3, 4, int(r), sparsity=0.5))
            for r in rng.integers(1, 40, size=8)
        ]
        expected = [reference_result(acc, n, g) for n, g in units]
        monkeypatch.setattr(Accelerator, "BATCH_WORD_BUDGET", 256)  # many tiny buckets
        assert acc.run_operations_batched(units) == expected
