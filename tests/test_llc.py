"""Unit tests for the sliced LLC: hits, fills, LRU, CAT and DDIO semantics."""

import numpy as np
import pytest

from repro.cache.geometry import TINY_LLC, XEON_6140_LLC, CacheGeometry
from repro.cache.llc import DDIO_OWNER, OWNER_MAX, SlicedLLC

#: A single-set geometry makes LRU behaviour fully observable.
ONE_SET = CacheGeometry(ways=4, sets_per_slice=1, slices=1)


def addrs_in_same_set(geometry, count):
    """Distinct line addresses that all map to the same (slice, set)."""
    target = geometry.frame_index(0)[0]
    found = [0]
    addr = 64
    while len(found) < count:
        if geometry.frame_index(addr)[0] == target:
            found.append(addr)
        addr += 64
    return found


def events(llc, before):
    """Fills, evictions and writebacks since the ``stats()`` snapshot
    ``before``: access outcomes carry only hit and writeback, so fills
    and evictions are read off the cache's own counters."""
    after = llc.stats()
    return tuple(after[k] - before[k]
                 for k in ("fills", "evictions", "writebacks"))


class TestBasicAccess:
    backend = "scalar"

    def test_miss_then_hit(self, llc):
        full = llc.geometry.full_mask
        before = llc.stats()
        first = llc.access(0x1000, full)
        assert not first.hit and events(llc, before) == (1, 0, 0)
        second = llc.access(0x1000, full)
        assert second.hit and events(llc, before) == (1, 0, 0)

    def test_same_line_bytes_hit(self, llc):
        full = llc.geometry.full_mask
        llc.access(0x1000, full)
        assert llc.access(0x1030, full).hit  # same 64B line

    def test_contains_and_way_of(self, llc):
        full = llc.geometry.full_mask
        assert not llc.contains(0x2000)
        llc.access(0x2000, full)
        assert llc.contains(0x2000)
        assert llc.way_of(0x2000) is not None
        assert llc.way_of(0x9999999) is None

    def test_valid_lines_counts_fills(self, llc):
        full = llc.geometry.full_mask
        for i in range(10):
            llc.access(i * 64, full)
        assert llc.valid_lines() == 10

    def test_flush_invalidates(self, llc):
        full = llc.geometry.full_mask
        llc.access(0x1000, full)
        llc.flush()
        assert not llc.contains(0x1000)
        assert llc.valid_lines() == 0

    def test_empty_mask_allocation_rejected(self, llc):
        with pytest.raises(ValueError):
            llc.access(0x1000, 0)

    def test_no_allocate_miss_does_not_fill(self, llc):
        out = llc.access(0x1000, 0, allocate=False)
        assert not out.hit and llc.stats()["fills"] == 0
        assert not llc.contains(0x1000)


class TestLRUWithinMask:
    backend = "scalar"

    def test_lru_victim_is_least_recent(self):
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        full = ONE_SET.full_mask
        lines = addrs_in_same_set(ONE_SET, 5)
        for addr in lines[:4]:
            llc.access(addr, full)
        llc.access(lines[0], full)          # refresh line 0
        before = llc.stats()
        llc.access(lines[4], full)          # must evict line 1 (oldest)
        assert events(llc, before) == (1, 1, 0)
        assert llc.contains(lines[0])
        assert not llc.contains(lines[1])

    def test_fill_prefers_invalid_way(self):
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 3)
        llc.access(lines[0], 0b0011)
        before = llc.stats()
        llc.access(lines[1], 0b0011)
        assert events(llc, before) == (1, 0, 0)  # second way was free

    def test_eviction_within_mask_only(self):
        """CAT: a masked agent may only displace lines in its own ways."""
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 6)
        llc.access(lines[0], 0b1100)  # victim lives in ways 2-3
        llc.access(lines[1], 0b1100)
        for addr in lines[2:5]:       # thrash ways 0-1
            llc.access(addr, 0b0011)
        # Lines in ways 2-3 must have survived the way-0-1 thrashing.
        assert llc.contains(lines[0])
        assert llc.contains(lines[1])

    def test_hit_allowed_in_foreign_way(self):
        """Footnote 1: a core hits lines in ways outside its mask."""
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 2)
        llc.access(lines[0], 0b1000)          # allocated in way 3
        out = llc.access(lines[0], 0b0001)    # masked to way 0 only
        assert out.hit

    def test_mask_outside_geometry_rejected(self):
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        with pytest.raises(ValueError):
            llc.access(0, 0b10000)  # way 4 of a 4-way cache


class TestDirtyAndWriteback:
    backend = "scalar"

    def test_clean_eviction_no_writeback(self):
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 5)
        for addr in lines[:4]:
            llc.access(addr, ONE_SET.full_mask)           # clean reads
        before = llc.stats()
        out = llc.access(lines[4], ONE_SET.full_mask)
        assert not out.writeback and events(llc, before) == (1, 1, 0)

    def test_dirty_eviction_writes_back(self):
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 5)
        llc.access(lines[0], ONE_SET.full_mask, write=True)
        for addr in lines[1:4]:
            llc.access(addr, ONE_SET.full_mask)
        before = llc.stats()
        out = llc.access(lines[4], ONE_SET.full_mask)
        assert out.writeback and events(llc, before) == (1, 1, 1)

    def test_write_hit_marks_dirty(self):
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 5)
        llc.access(lines[0], ONE_SET.full_mask)           # clean fill
        llc.access(lines[0], ONE_SET.full_mask, write=True)
        for addr in lines[1:4]:
            llc.access(addr, ONE_SET.full_mask)
        out = llc.access(lines[4], ONE_SET.full_mask)
        assert out.writeback


class TestDdioSemantics:
    backend = "scalar"

    def test_ddio_write_update_on_hit(self, llc):
        full = llc.geometry.full_mask
        llc.access(0x5000, full, owner=7)
        out = llc.ddio_write(0x5000, 0b11)
        assert out.hit  # write update: line present anywhere

    def test_ddio_write_allocate_on_miss(self, llc):
        ways = llc.geometry.ways
        ddio_mask = 0b11 << (ways - 2)
        out = llc.ddio_write(0x6000, ddio_mask)
        assert not out.hit and llc.stats()["fills"] == 1
        assert llc.stats()["ddio_misses"] == 1
        assert llc.way_of(0x6000) >= ways - 2

    def test_ddio_owner_recorded(self, llc):
        llc.ddio_write(0x7000, 0b11)
        assert llc.occupancy_by_owner().get(DDIO_OWNER) == 1

    def test_device_read_hit_from_llc(self, llc):
        full = llc.geometry.full_mask
        llc.access(0x8000, full)
        assert llc.device_read(0x8000).hit

    def test_device_read_never_allocates(self, llc):
        out = llc.device_read(0x9000)
        assert not out.hit
        assert not llc.contains(0x9000)

    def test_write_update_keeps_line_in_place(self):
        """A DDIO hit updates the line where it lives; it does not
        migrate into the DDIO ways."""
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 1)
        llc.access(lines[0], 0b0001, owner=3)  # core fills way 0
        way_before = llc.way_of(lines[0])
        llc.ddio_write(lines[0], 0b1000)
        assert llc.way_of(lines[0]) == way_before


class TestOwnerTracking:
    backend = "scalar"

    def test_occupancy_by_owner(self, llc):
        full = llc.geometry.full_mask
        for i in range(5):
            llc.access(0x10000 + i * 64, full, owner=1)
        for i in range(3):
            llc.access(0x20000 + i * 64, full, owner=2)
        occ = llc.occupancy_by_owner()
        assert occ[1] == 5
        assert occ[2] == 3

    def test_victim_owner_reported(self):
        """The victim's owner loses the line the filler gains."""
        llc = SlicedLLC(ONE_SET, backend=self.backend)
        lines = addrs_in_same_set(ONE_SET, 5)
        for addr in lines[:4]:
            llc.access(addr, ONE_SET.full_mask, owner=9)
        assert llc.occupancy_by_owner() == {9: 4}
        llc.access(lines[4], ONE_SET.full_mask, owner=1)
        assert llc.occupancy_by_owner() == {9: 3, 1: 1}


class TestOwnerRange:
    """Owner ids are limited to what the array backend's int8 owner
    plane holds, ``DDIO_OWNER .. OWNER_MAX``, on both backends."""

    @pytest.mark.parametrize("backend", ["scalar", "array"])
    @pytest.mark.parametrize("owner", [DDIO_OWNER - 1, OWNER_MAX + 1])
    def test_owner_outside_range_rejected(self, backend, owner):
        llc = SlicedLLC(TINY_LLC, backend=backend)
        full = TINY_LLC.full_mask
        addrs = np.arange(16, dtype=np.int64) * 64
        owners = np.ones(16, dtype=np.int64)
        owners[5] = owner
        named = f"owner id {owner} "
        with pytest.raises(ValueError, match=named):
            llc.access(0x1000, full, owner=owner)
        with pytest.raises(ValueError, match=named):
            llc.access_batch(addrs, full, owner=owner)
        with pytest.raises(ValueError, match=named):
            llc.access_batch(addrs, full, owner=owners)
        with pytest.raises(ValueError, match=named):
            llc.access_batch(addrs[:4], full, owner=owners[2:6])
        assert llc.valid_lines() == 0
        assert llc.stats()["fills"] == 0

    def test_owner_max_evictions_count_alike_on_both_backends(self):
        """Owners OWNER_MAX and 1 alternate in way 0, then owner 3
        evicts a mix of them: the victims' owner counts must match the
        scalar backend's (the int8 ids are widened before counting)."""
        lines = np.arange(250, dtype=np.int64) * 64
        owners = np.where(np.arange(250) % 2 == 0, OWNER_MAX, 1)
        occupancy = []
        for backend in ("scalar", "array"):
            llc = SlicedLLC(TINY_LLC, backend=backend)
            llc.access_batch(lines, 0b1, owner=owners)
            llc.access_batch(lines + (1 << 24), 0b1, owner=3)
            occupancy.append(llc.occupancy_by_owner())
        assert occupancy[0] == occupancy[1]
        assert set(occupancy[1]) == {OWNER_MAX, 1, 3}


class TestArrayLayout:
    def test_planes_take_17_bytes_per_line(self):
        """Per line: an int64 tag, an int64 meta word (``stamp << 1 |
        dirty``) and an int8 owner, and no other ``(sets, ways)``
        plane."""
        llc = SlicedLLC(XEON_6140_LLC, backend="array")
        shape = (XEON_6140_LLC.total_sets, XEON_6140_LLC.ways)
        planes = [a for a in vars(llc).values()
                  if isinstance(a, np.ndarray) and a.shape == shape]
        assert XEON_6140_LLC.lines == 405_504
        assert sum(a.nbytes for a in planes) == 17 * 405_504 == 6_893_568


# The semantic classes above again on the array backend, the platform
# default (the ``llc`` fixture and the classes' own caches read the
# class's ``backend``).
class TestBasicAccessArray(TestBasicAccess):
    backend = "array"


class TestLRUWithinMaskArray(TestLRUWithinMask):
    backend = "array"


class TestDirtyAndWritebackArray(TestDirtyAndWriteback):
    backend = "array"


class TestDdioSemanticsArray(TestDdioSemantics):
    backend = "array"


class TestOwnerTrackingArray(TestOwnerTracking):
    backend = "array"
