"""Tests for pre-scheduling (scheduled-form storage)."""

import numpy as np
import pytest

from repro.core.backside import PreScheduler
from repro.core.interconnect import ConnectivityPattern


def make_stream(rows=40, lanes=16, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.random((rows, lanes))
    values[rng.random((rows, lanes)) < sparsity] = 0.0
    return values


class TestPreScheduler:
    def test_roundtrip_reproduces_original(self):
        scheduler = PreScheduler()
        for seed in range(5):
            stream = make_stream(seed=seed)
            assert np.allclose(scheduler.roundtrip(stream), stream)

    def test_roundtrip_dense_stream(self):
        scheduler = PreScheduler()
        stream = make_stream(sparsity=0.0, seed=1)
        assert np.allclose(scheduler.roundtrip(stream), stream)

    def test_roundtrip_all_zero_stream(self):
        scheduler = PreScheduler()
        stream = np.zeros((30, 16))
        assert np.allclose(scheduler.roundtrip(stream), stream)

    def test_compression_ratio_grows_with_sparsity(self):
        scheduler = PreScheduler()
        ratios = []
        for sparsity in (0.0, 0.3, 0.6, 0.9):
            stream = make_stream(rows=120, sparsity=sparsity, seed=2)
            ratios.append(scheduler.compress(stream).compression_ratio)
        assert ratios == sorted(ratios)
        assert ratios[0] == pytest.approx(1.0)

    def test_compression_ratio_capped_by_staging_depth(self):
        scheduler = PreScheduler()
        stream = make_stream(rows=90, sparsity=0.99, seed=3)
        assert scheduler.compress(stream).compression_ratio <= 3.0 + 1e-9

    def test_scheduled_rows_never_exceed_dense_rows(self):
        scheduler = PreScheduler()
        for sparsity in (0.0, 0.5, 0.9):
            stream = make_stream(rows=50, sparsity=sparsity, seed=4)
            scheduled = scheduler.compress(stream)
            assert scheduled.scheduled_row_count <= scheduled.dense_rows

    def test_every_nonzero_value_stored_exactly_once(self):
        scheduler = PreScheduler()
        stream = make_stream(rows=40, sparsity=0.7, seed=5)
        scheduled = scheduler.compress(stream)
        stored = sorted(
            value
            for row in scheduled.rows
            for value, idx in zip(row.values, row.indices)
            if idx is not None
        )
        original = sorted(stream[stream != 0].tolist())
        assert np.allclose(stored, original)

    def test_rejects_wrong_lane_count(self):
        scheduler = PreScheduler()
        with pytest.raises(ValueError):
            scheduler.compress(np.zeros((10, 8)))

    def test_works_with_two_deep_pattern(self):
        scheduler = PreScheduler(ConnectivityPattern(staging_depth=2))
        stream = make_stream(rows=40, sparsity=0.7, seed=6)
        assert np.allclose(scheduler.roundtrip(stream), stream)
        assert scheduler.compress(stream).compression_ratio <= 2.0 + 1e-9

    def test_footprint_values(self):
        scheduler = PreScheduler()
        stream = make_stream(rows=40, sparsity=0.8, seed=7)
        scheduled = scheduler.compress(stream)
        assert scheduled.footprint_values() == scheduled.scheduled_row_count * 16
