"""Property-based tests (hypothesis) for the LLC and CAT invariants."""

from hypothesis import given, settings, strategies as st

from repro.cache.cat import is_contiguous, mask_span, mask_ways, ways_to_mask
from repro.cache.geometry import CacheGeometry
from repro.cache.llc import SlicedLLC

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
