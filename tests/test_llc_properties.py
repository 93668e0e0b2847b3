"""Property-based tests (hypothesis) for the LLC and CAT invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.cat import is_contiguous, mask_span, mask_ways, ways_to_mask
from repro.cache.geometry import CacheGeometry
from repro.cache.llc import DDIO_OWNER, SlicedLLC

SMALL_GEO = CacheGeometry(ways=4, sets_per_slice=8, slices=2)

addresses = st.integers(min_value=0, max_value=1 << 20).map(lambda a: a * 64)
# Every contiguous mask, built directly: a filter over all masks would
# reject most draws and starve the health check.
masks = st.integers(0, SMALL_GEO.ways - 1).flatmap(
    lambda first: st.integers(1, SMALL_GEO.ways - first).map(
        lambda count: ways_to_mask(first, count)))


@st.composite
def access_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    return [(draw(addresses), draw(masks), draw(st.booleans()))
            for _ in range(n)]


class TestLLCInvariants:
    @given(access_sequences())
    @settings(max_examples=60, deadline=None)
    def test_valid_lines_never_exceed_capacity(self, seq):
        llc = SlicedLLC(SMALL_GEO)
        for addr, mask, write in seq:
            llc.access(addr, mask, write=write)
        assert llc.valid_lines() <= SMALL_GEO.lines

    @given(access_sequences())
    @settings(max_examples=60, deadline=None)
    def test_access_then_immediate_reaccess_hits(self, seq):
        llc = SlicedLLC(SMALL_GEO)
        for addr, mask, write in seq:
            llc.access(addr, mask, write=write)
            assert llc.access(addr, mask).hit

    @given(access_sequences())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_tags_within_a_set(self, seq):
        llc = SlicedLLC(SMALL_GEO)
        for addr, mask, write in seq:
            llc.access(addr, mask, write=write)
        for tags in llc._tags:
            valid = [t for t in tags if t != -1]
            assert len(valid) == len(set(valid))

    @given(access_sequences(), st.integers(0, SMALL_GEO.ways - 1))
    @settings(max_examples=60, deadline=None)
    def test_fills_respect_mask(self, seq, way):
        """Every line must reside in a way some past access could fill
        (trivially true per access: we check the specific mask case of
        single-way fills landing in that way)."""
        llc = SlicedLLC(SMALL_GEO)
        mask = 1 << way
        for addr, _, write in seq:
            llc.access(addr, mask, write=write)
            assert llc.way_of(addr) == way

    @given(access_sequences())
    @settings(max_examples=40, deadline=None)
    def test_occupancy_matches_valid_lines(self, seq):
        llc = SlicedLLC(SMALL_GEO)
        for i, (addr, mask, write) in enumerate(seq):
            llc.access(addr, mask, write=write, owner=i % 3)
        occ = llc.occupancy_by_owner()
        assert sum(occ.values()) == llc.valid_lines()

    @given(access_sequences())
    @settings(max_examples=40, deadline=None)
    def test_device_reads_never_change_state(self, seq):
        llc = SlicedLLC(SMALL_GEO)
        for addr, mask, write in seq:
            llc.access(addr, mask, write=write)
        before = llc.valid_lines()
        for addr, _, _ in seq:
            llc.device_read(addr + (1 << 30))  # cold addresses
        assert llc.valid_lines() == before


@st.composite
def batched_streams(draw):
    """An access sequence split into batches at drawn points.

    Addresses span about three times the cache's lines, so batches hit,
    fill, evict and collide in sets.  Each element draws its own write,
    allocate and owner; each batch draws one way mask or one per
    element (any nonzero mask, contiguous or not).  A batch is
    ``(addrs, mask, write, owner, allocate)``, each argument a list or,
    where every element agrees, that one value.
    """
    line = st.integers(0, 3 * SMALL_GEO.lines - 1)
    elements = draw(st.lists(st.tuples(
        line.map(lambda a: a * 64), st.integers(1, SMALL_GEO.full_mask),
        st.booleans(), st.sampled_from([0, 1, 2, DDIO_OWNER]),
        st.sampled_from([True, True, True, False])),
        min_size=1, max_size=160))
    n = len(elements)
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=6))
                      if n > 1 else []))
    batches = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        addrs, masks, write, owner, allocate = map(list,
                                                   zip(*elements[lo:hi]))
        if draw(st.booleans()):
            masks = masks[0]
        batches.append((addrs,) + tuple(
            column[0] if isinstance(column, list) and len(set(column)) == 1
            else column for column in (masks, write, owner, allocate)))
    return batches


def _batch_arg(value):
    return np.asarray(value) if isinstance(value, list) else value


def _per_element(value, n):
    return value if isinstance(value, list) else [value] * n


class TestBatchEngineMatchesScalarLoop:
    @given(batched_streams())
    @settings(max_examples=120, deadline=None)
    def test_access_batch_equals_per_access_loop(self, batches):
        """The array backend's ``access_batch`` over each batch gives the
        scalar backend's per-access loop: every hit and writeback, after
        every batch the counters and occupancy, and at the end every
        line's tag, stamp, dirty bit and owner."""
        scalar = SlicedLLC(SMALL_GEO, backend="scalar")
        array = SlicedLLC(SMALL_GEO, backend="array")
        for addrs, mask, write, owner, allocate in batches:
            n = len(addrs)
            want = [scalar.access(a, m, write=w, owner=o, allocate=al)
                    for a, m, w, o, al in zip(
                        addrs, _per_element(mask, n),
                        _per_element(write, n), _per_element(owner, n),
                        _per_element(allocate, n))]
            got = array.access_batch(
                np.asarray(addrs), _batch_arg(mask),
                write=_batch_arg(write), owner=_batch_arg(owner),
                allocate=_batch_arg(allocate))
            assert got.hit.tolist() == [o.hit for o in want]
            assert got.writeback.tolist() == [o.writeback for o in want]
            assert array.stats() == scalar.stats()
            assert array.occupancy_by_owner() == scalar.occupancy_by_owner()
            assert array.valid_lines() == scalar.valid_lines()
        assert array._tags.tolist() == scalar._tags
        assert (array._meta >> 1).tolist() == scalar._stamp
        assert (array._meta & 1 == 1).tolist() == scalar._dirty
        assert array._owner.tolist() == scalar._owner


class TestMaskProperties:
    @given(st.integers(0, 20), st.integers(1, 16))
    def test_ways_to_mask_contiguous_and_spans(self, first, count):
        mask = ways_to_mask(first, count)
        assert is_contiguous(mask)
        assert mask_span(mask) == (first, count)
        assert mask_ways(mask) == list(range(first, first + count))

    @given(st.integers(1, 1 << 16))
    def test_contiguous_iff_span_roundtrips(self, mask):
        if is_contiguous(mask):
            low, count = mask_span(mask)
            assert ways_to_mask(low, count) == mask
        else:
            ways = mask_ways(mask)
            assert ways != list(range(ways[0], ways[0] + len(ways)))
