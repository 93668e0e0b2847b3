"""Unit tests for cache geometry and address decomposition."""

import tracemalloc

import numpy as np
import pytest

from repro.cache.geometry import (CacheGeometry, TINY_LLC, XEON_6140_LLC,
                                  _mix64)


class TestConstruction:
    def test_xeon_6140_matches_table_i(self):
        # Table I: 11-way, 24.75 MB, 18 slices, 64 B lines.
        geo = XEON_6140_LLC
        assert geo.ways == 11
        assert geo.slices == 18
        assert geo.capacity_bytes == int(24.75 * (1 << 20))

    def test_total_sets_and_lines(self):
        geo = CacheGeometry(ways=4, sets_per_slice=16, slices=3)
        assert geo.total_sets == 48
        assert geo.lines == 192
        assert geo.capacity_bytes == 192 * 64

    def test_way_capacity(self):
        geo = TINY_LLC
        assert geo.way_capacity_bytes == geo.total_sets * geo.line_size

    def test_full_mask(self):
        assert CacheGeometry(ways=11).full_mask == 0b111_1111_1111

    @pytest.mark.parametrize("kwargs", [
        {"ways": 0}, {"sets_per_slice": 0}, {"slices": 0},
        {"line_size": 0}, {"line_size": 48},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CacheGeometry(**kwargs)


class TestAddressing:
    def test_locate_in_range(self):
        geo = TINY_LLC
        for addr in range(0, 1 << 16, 64):
            slice_id, set_id, tag = geo.locate(addr)
            assert 0 <= slice_id < geo.slices
            assert 0 <= set_id < geo.sets_per_slice
            assert tag == addr // 64

    def test_same_line_same_frame(self):
        geo = TINY_LLC
        assert geo.locate(128) == geo.locate(129) == geo.locate(191)

    def test_adjacent_lines_differ(self):
        geo = TINY_LLC
        assert geo.locate(0) != geo.locate(64)

    def test_frame_index_consistent_with_locate(self):
        geo = TINY_LLC
        slice_id, set_id, tag = geo.locate(4096)
        index, tag2 = geo.frame_index(4096)
        assert tag2 == tag
        assert index == slice_id * geo.sets_per_slice + set_id

    def test_line_of(self):
        assert TINY_LLC.line_of(0) == 0
        assert TINY_LLC.line_of(63) == 0
        assert TINY_LLC.line_of(64) == 1

    def test_slice_spread_is_even(self):
        """The property Sec. V relies on: lines spread ~evenly over
        slices, so one slice's counters estimate chip-wide traffic."""
        geo = XEON_6140_LLC
        counts = [0] * geo.slices
        n = 18_000
        for i in range(n):
            slice_id, _, _ = geo.locate(i * 64)
            counts[slice_id] += 1
        expected = n / geo.slices
        for count in counts:
            assert abs(count - expected) / expected < 0.15

    def test_strided_addresses_spread_over_sets(self):
        """2 KB-strided mbufs must not collapse onto a few sets."""
        geo = XEON_6140_LLC
        seen = {geo.locate(i * 2048)[:2] for i in range(4096)}
        assert len(seen) > 3000  # nearly all distinct frames

    def test_mix64_is_deterministic(self):
        assert _mix64(12345) == _mix64(12345)
        assert _mix64(1) != _mix64(2)


class TestFrameIndexBatch:
    GEOMETRIES = [TINY_LLC, XEON_6140_LLC,
                  CacheGeometry(ways=4, sets_per_slice=48, slices=3),
                  CacheGeometry(ways=2, sets_per_slice=7, slices=5,
                                line_size=128)]

    @pytest.mark.parametrize("geo", GEOMETRIES)
    def test_equals_frame_index_per_address(self, geo):
        rng = np.random.default_rng(8)
        addrs = np.concatenate([
            rng.integers(0, 1 << 46, 3000),
            np.arange(0, 64 * 2000, 8),
            [0, 1, geo.line_size - 1, geo.line_size, (1 << 62) - 1]])
        index, tag = geo.frame_index_batch(addrs)
        assert index.dtype == tag.dtype == np.int64
        expected = [geo.frame_index(a) for a in addrs.tolist()]
        assert index.tolist() == [i for i, _ in expected]
        assert tag.tolist() == [t for _, t in expected]

    @pytest.mark.parametrize("geo", [XEON_6140_LLC, GEOMETRIES[2]])
    def test_transient_memory_stays_within_half_the_outputs(self, geo):
        """A 163,840-line batch (the largest prefill batch of the KVS
        co-run) allocates little beyond its two result arrays."""
        addrs = np.arange(163_840, dtype=np.int64) * 64 + (1 << 30)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            index, tag = geo.frame_index_batch(addrs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (index.nbytes + tag.nbytes)
