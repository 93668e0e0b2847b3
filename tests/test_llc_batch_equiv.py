"""Scalar vs. array LLC backend equivalence.

The array backend's batched engine must reproduce the scalar reference
bit-exactly: identical per-access hit and writeback outcomes, and after
every operation identical fill, eviction and writeback counters and
per-owner occupancy (so victim choice and attribution are checked batch
by batch) — over arbitrary interleavings of core accesses, DDIO writes
and device reads, under LRU replacement.  These tests fuzz exactly
that, aim hand-built batches at each shortcut of the vector engine (the
pre-batch lookup that resolves every access before its set's first
allocating miss, the fill suffix's known-miss fill and repeat collapse,
and the bulk all-miss path), and check the engine-level guarantee that
a full simulation produces identical metrics on either backend.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cache.geometry import TINY_LLC, CacheGeometry
from repro.cache.llc import DDIO_OWNER, EMPTY, SlicedLLC

SEEDS = [3, 17, 2021]


def random_stream(rng, steps, *, max_batch, addr_lines):
    """Yield (kind, addrs, kwargs) operations for both backends."""
    full = TINY_LLC.full_mask
    for _ in range(steps):
        n = rng.randint(1, max_batch)
        addrs = [rng.randrange(addr_lines) * 64 for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 0:       # uniform core accesses
            yield ("access", addrs, dict(
                mask=rng.randrange(1, full + 1),
                write=rng.random() < 0.5,
                owner=rng.randrange(4)))
        elif kind == 1:     # DDIO write-allocate/update
            yield ("ddio", addrs, dict(mask=rng.randrange(1, full + 1)))
        elif kind == 2:     # device reads (never allocate)
            yield ("device", addrs, {})
        else:               # fully mixed per-element batch
            yield ("mixed", addrs, dict(
                mask=[rng.randrange(1, full + 1) for _ in range(n)],
                write=[rng.random() < 0.5 for _ in range(n)],
                owner=[rng.choice([0, 1, 2, DDIO_OWNER])
                       for _ in range(n)],
                allocate=[rng.random() < 0.8 for _ in range(n)]))


def apply_scalar(llc, op):
    kind, addrs, kw = op
    if kind == "access":
        return [llc.access(a, kw["mask"], write=kw["write"],
                           owner=kw["owner"]) for a in addrs]
    if kind == "ddio":
        return [llc.ddio_write(a, kw["mask"]) for a in addrs]
    if kind == "device":
        return [llc.device_read(a) for a in addrs]
    if kind == "elementwise":   # one mask, per-element write and owner
        allocate = kw.get("allocate", [True] * len(addrs))
        return [llc.access(a, kw["mask"], write=kw["write"][i],
                           owner=kw["owner"][i], allocate=allocate[i])
                for i, a in enumerate(addrs)]
    return [llc.access(a, kw["mask"][i], write=kw["write"][i],
                       owner=kw["owner"][i], allocate=kw["allocate"][i])
            for i, a in enumerate(addrs)]


def apply_batch(llc, op):
    kind, addrs, kw = op
    addrs = np.asarray(addrs, dtype=np.int64)
    if kind == "access":
        return llc.access_batch(addrs, kw["mask"], write=kw["write"],
                                owner=kw["owner"])
    if kind == "ddio":
        return llc.ddio_write_batch(addrs, kw["mask"])
    if kind == "device":
        return llc.device_read_batch(addrs)
    if kind == "elementwise":
        return llc.access_batch(addrs, kw["mask"],
                                write=np.asarray(kw["write"]),
                                owner=np.asarray(kw["owner"]),
                                allocate=np.asarray(kw.get("allocate", True)))
    return llc.access_batch(addrs, np.asarray(kw["mask"]),
                            write=np.asarray(kw["write"]),
                            owner=np.asarray(kw["owner"]),
                            allocate=np.asarray(kw["allocate"]))


def assert_same_state(scalar, array):
    """Every line's tag, stamp, dirty bit and owner, plus the counters.

    The array backend packs each line's stamp and dirty bit into one
    meta word, ``stamp << 1 | dirty``.
    """
    assert scalar.occupancy_by_owner() == array.occupancy_by_owner()
    assert scalar.stats() == array.stats()
    assert scalar._clock == array._clock
    for row in range(array.geometry.total_sets):
        meta = array._meta[row]
        assert scalar._tags[row] == array._tags[row].tolist()
        assert scalar._stamp[row] == (meta >> 1).tolist()
        assert scalar._dirty[row] == (meta & 1 == 1).tolist()
        assert scalar._owner[row] == array._owner[row].tolist()
    # The incremental occupancy counters recount from the owner plane,
    # and the valid lines from the tag plane.
    valid = array._tags != EMPTY
    owners, counts = np.unique(array._owner[valid], return_counts=True)
    assert dict(zip(owners.tolist(), counts.tolist())) == \
        array.occupancy_by_owner()
    assert array.valid_lines() == int(np.count_nonzero(valid))


class TestBatchEquivalence:
    # LRU is the one replacement policy; it stays in the test ids.
    @pytest.mark.parametrize("policy", ["lru"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzzed_streams_bit_identical(self, policy, seed):
        rng = random.Random(seed)
        check_ops(random_stream(rng, 120, max_batch=96, addr_lines=4096))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_set_colliding_streams(self, seed):
        """Tiny address space: heavy same-set traffic inside each batch,
        exercising the sequential remainder of the vector engine."""
        rng = random.Random(seed)
        check_ops(random_stream(rng, 80, max_batch=200, addr_lines=96))

    def test_batch_equals_sequential_on_same_backend(self):
        """access_batch(v) must equal issuing v element-wise (array)."""
        rng = random.Random(7)
        one = SlicedLLC(TINY_LLC, backend="array")
        many = SlicedLLC(TINY_LLC, backend="array")
        for _ in range(60):
            n = rng.randint(8, 120)
            addrs = [rng.randrange(2048) * 64 for _ in range(n)]
            mask = rng.randrange(1, TINY_LLC.full_mask + 1)
            expected = [one.access(a, mask, owner=1) for a in addrs]
            got = many.access_batch(np.asarray(addrs), mask, owner=1)
            assert [o.hit for o in expected] == got.hit.tolist()
            assert [o.writeback for o in expected] == got.writeback.tolist()
            assert one.stats() == many.stats()
            assert one.occupancy_by_owner() == many.occupancy_by_owner()

    def test_batch_outcome_aggregates(self):
        llc = SlicedLLC(TINY_LLC, backend="array")
        addrs = np.arange(64, dtype=np.int64) * 64
        out = llc.access_batch(addrs, TINY_LLC.full_mask, owner=5)
        assert out.misses == 64 and out.hits == 0 and out.writebacks == 0
        assert llc.stats()["fills"] == 64
        again = llc.access_batch(addrs, TINY_LLC.full_mask, owner=5)
        assert again.hits == 64 and again.writebacks == 0
        assert llc.stats()["fills"] == 64 and llc.stats()["evictions"] == 0
        assert llc.occupancy_by_owner() == {5: 64}

    def test_empty_mask_raises_on_both_backends(self):
        for backend in ("scalar", "array"):
            llc = SlicedLLC(TINY_LLC, backend=backend)
            with pytest.raises(ValueError):
                llc.access_batch(np.zeros(16, dtype=np.int64)
                                 + np.arange(16) * 64, 0)


def lines_in_set(count):
    """``count`` distinct line addresses that share one TINY_LLC set,
    plus that set's index."""
    by_set = {}
    line = 0
    while True:
        index, _ = TINY_LLC.frame_index(line * 64)
        members = by_set.setdefault(index, [])
        members.append(line * 64)
        if len(members) == count:
            return members, index
        line += 1


def padding_lines(count, avoid):
    """Addresses of ``count`` distinct sets, none of them in ``avoid``."""
    seen = set(avoid)
    out = []
    line = 1 << 20
    while len(out) < count:
        index, _ = TINY_LLC.frame_index(line * 64)
        if index not in seen:
            seen.add(index)
            out.append(line * 64)
        line += 1
    return out


def check_ops(ops, pair=None):
    """Apply ``ops`` to both backends (fresh ones unless ``pair`` holds
    a scalar and an array LLC).  Each access's outcome must match, then
    after every op the counters and per-owner occupancy (so victim
    choice and attribution are checked op by op), and at the end the
    whole state.  Returns the pair."""
    if pair is None:
        pair = (SlicedLLC(TINY_LLC, backend="scalar"),
                SlicedLLC(TINY_LLC, backend="array"))
    scalar, array = pair
    for op in ops:
        apply_both(scalar, array, op)
    assert_same_state(scalar, array)
    return pair


def apply_both(scalar, array, op):
    """Apply one op to both backends; each access's outcome, then the
    counters and per-owner occupancy must match.  Returns the array
    backend's :class:`BatchOutcome`."""
    expected = apply_scalar(scalar, op)
    got = apply_batch(array, op)
    for i, out in enumerate(expected):
        assert out == got.outcome_at(i), (op[0], i)
    assert scalar.stats() == array.stats(), op[0]
    assert scalar.occupancy_by_owner() == array.occupancy_by_owner(), op[0]
    return got


def mixed_op(accesses):
    """A per-element ``mixed`` op from (addr, mask, write, owner,
    allocate) tuples."""
    addrs, mask, write, owner, allocate = map(list, zip(*accesses))
    return ("mixed", addrs, dict(mask=mask, write=write, owner=owner,
                                 allocate=allocate))


def pairs_in_sets(count):
    """``count`` pairs of line addresses, each pair sharing a TINY_LLC
    set of its own."""
    by_set = {}
    pairs = []
    line = 1 << 18
    while len(pairs) < count:
        members = by_set.setdefault(TINY_LLC.frame_index(line * 64)[0], [])
        members.append(line * 64)
        if len(members) == 2:
            pairs.append(tuple(members))
        line += 1
    return pairs


@pytest.fixture
def round_sizes(monkeypatch):
    """The group size of every vectorized round the engine applies."""
    sizes = []
    real = SlicedLLC._apply_round

    def spy(self, sel, rows, *args):
        sizes.append(rows.shape[0])
        return real(self, sel, rows, *args)

    monkeypatch.setattr(SlicedLLC, "_apply_round", spy)
    return sizes


def reread_batch(warm):
    """Read, write and re-read of one line per set, as a ``mixed`` op:
    three lines in sets of their own take the repeat collapse (one
    reads-writes-reads, one writes first, one writes last), and 24 more
    share each set with another tag, so their repeats go through the
    rank rounds.  ``warm`` prepends an op that leaves every line
    resident and clean, so each first access hits instead of filling."""
    f = TINY_LLC.full_mask
    pairs = pairs_in_sets(24)
    solo = padding_lines(3, [TINY_LLC.frame_index(x)[0] for x, _ in pairs])
    batch = [(x, f, w, 1, True) for x, pattern in zip(solo, (
                 (False, True, False), (True, False, False),
                 (False, False, True)))
             for w in pattern]
    for x, y in pairs:
        batch += [(x, f, False, 1, True), (y, f, False, 2, True),
                  (x, f, True, 1, True), (x, f, False, 1, True)]
    ops = [mixed_op(batch)]
    if warm:
        ops.insert(0, ("access", solo + [x for x, _ in pairs],
                       dict(mask=f, write=False, owner=1)))
    return ops


class TestTargetedBatches:
    """Hand-built batches aimed at the vector engine's shortcuts.  One
    lookup against the pre-batch tags resolves every access before its
    set's first allocating miss; from that miss on (the set's fill
    suffix), followers may skip a second lookup only when no other tag
    touches the suffix."""

    FULL = TINY_LLC.full_mask

    def test_warm_all_hit_batch_runs_no_round(self, round_sizes):
        """Every access hits its pre-batch slot, over sets that two
        resident tags share, with repeated lines and a write between two
        reads of one line: the pre-batch lookup resolves the whole batch
        (no rank round runs), and X keeps the write's dirty bit."""
        f = self.FULL
        pairs = pairs_in_sets(12)
        scalar, array = check_ops([("access", [a for p in pairs for a in p],
                                    dict(mask=f, write=False, owner=1))])
        del round_sizes[:]
        batch = []
        for x, y in pairs:
            batch += [(x, f, False, 1, True), (y, f, False, 2, True),
                      (x, f, True, 1, True), (y, f, False, 2, False),
                      (x, f, False, 1, True)]
        out = apply_both(scalar, array, mixed_op(batch))
        assert out.hits == len(batch)
        assert round_sizes == []
        assert_same_state(scalar, array)
        for x, y in pairs:
            index, _ = TINY_LLC.frame_index(x)
            meta = array._meta[index]
            assert meta[array.way_of(x)] & 1 == 1
            assert meta[array.way_of(y)] & 1 == 0

    def test_early_hit_then_evicting_fill_then_refill(self):
        """One set under a 1-way mask, ``[A, B, A]`` with A resident in
        that way: A hits before the set's first allocating miss, B fills
        and evicts A, so the second A misses and refills over B."""
        (a, b), index = lines_in_set(2)
        pad = padding_lines(8, [index])
        scalar, array = check_ops([("access", [a], dict(
            mask=0b1, write=True, owner=1))])
        batch = [(a, 0b1, False, 1, True), (b, 0b1, False, 2, True),
                 (a, 0b1, False, 1, True)]
        batch += [(p, self.FULL, False, 3, True) for p in pad]
        out = apply_both(scalar, array, mixed_op(batch))
        assert out.hit[:3].tolist() == [True, False, False]
        assert out.writeback[:3].tolist() == [False, True, False]
        assert array.way_of(a) == 0 and not array.contains(b)
        assert_same_state(scalar, array)

    @pytest.mark.parametrize("filler", ["same", "other"])
    def test_device_read_before_and_after_the_fill(self, filler):
        """A device read of X before its set's first allocating miss
        misses and changes nothing; after a fill brought X in, another
        device read hits.  The fill is X's own (the suffix collapse), or
        follows another tag's (the per-access remainder)."""
        (x, y), index = lines_in_set(2)
        pad = padding_lines(8, [index])
        f = self.FULL
        batch = [(x, f, False, 1, False)]
        if filler == "other":
            batch.append((y, f, False, 2, True))
        batch += [(x, f, True, 1, True), (x, f, False, 1, False)]
        batch += [(p, f, False, 3, True) for p in pad]
        scalar, array = check_ops([])
        out = apply_both(scalar, array, mixed_op(batch))
        reads = [0, len(batch) - len(pad) - 1]
        assert out.hit[reads].tolist() == [False, True]
        assert_same_state(scalar, array)

    @pytest.mark.parametrize("keep", [1, 2, 3, 5])
    def test_cut_inside_the_early_hit_entry(self, keep):
        """A journaled batch whose early hits touch X four times (read,
        write, read, read), then fill a new line into X's set, is cut
        with ``rollback(keep=)`` between two of X's accesses: the kept
        hits are re-applied from the ``_J_REPEAT`` entry, and the cache
        equals its twin that issued only the batch's prefix."""
        (x, y, z), index = lines_in_set(3)
        pad = padding_lines(6, [index])
        f = self.FULL
        scalar, array = check_ops([("access", [x, y] + pad, dict(
            mask=f, write=False, owner=1))])
        batch = [(x, f, False, 1, True), (x, f, True, 1, True),
                 (y, f, False, 2, True), (x, f, False, 1, True)]
        batch += [(p, f, p == pad[0], 2, True) for p in pad]
        batch += [(x, f, False, 1, True), (z, 0b1, True, 3, True),
                  (y, f, False, 2, True)]
        clock0 = array.clock
        array.snapshot()
        apply_batch(array, mixed_op(batch))
        assert [entry[0] for entry in array._journal] == [1, 2, 0]
        array.rollback(keep=clock0 + keep)
        apply_scalar(scalar, mixed_op(batch[:keep]))
        assert_same_state(scalar, array)
        check_ops([mixed_op(batch)], (scalar, array))

    @pytest.mark.parametrize("warm", [False, True])
    def test_non_allocating_miss_then_allocating_access(self, warm):
        (x, y), index = lines_in_set(2)
        pad = padding_lines(8, [index])
        f = self.FULL
        batch = [(x, f, False, 1, False),   # device read: miss, no fill
                 (x, f, True, 1, True),     # core write: fills X
                 (x, f, False, 1, False),   # device read: hits X
                 (x, f, False, 1, True)]
        batch += [(a, f, False, 2, True) for a in pad]
        batch += [(a, f, False, 2, False) for a in pad]
        ops = [mixed_op(batch)]
        if warm:
            # Y resident in the set: X's fill must still pick the LRU
            # victim, not a slot the collapse guessed.
            ops.insert(0, ("access", [y], dict(mask=f, write=True,
                                               owner=3)))
        check_ops(ops)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("b_mask", [0b1, 0b11])
    def test_same_tag_follower_in_mixed_set_can_miss(self, b_mask, warm):
        """``[A, C, B, A]`` in one set: B's narrow mask evicts A, so the
        second A misses even though it repeats the set's first tag."""
        (a, b, c), index = lines_in_set(3)
        pad = padding_lines(8, [index])
        f = self.FULL
        batch = [(a, f, True, 1, True), (c, f, False, 1, True),
                 (b, b_mask, False, 2, True), (a, f, False, 1, True)]
        batch += [(p, f, False, 2, True) for p in pad]
        ops = [mixed_op(batch)]
        if warm:
            # A resident in way 0 beforehand: its first access hits.
            ops.insert(0, ("access", [a], dict(mask=0b1, write=False,
                                               owner=1)))
        check_ops(ops)

    @pytest.mark.parametrize("warm", [False, True])
    def test_read_write_reread_keeps_dirty_bit(self, warm, round_sizes):
        """Collapsed repeats keep their slot's last stamp and OR in every
        write of the batch (a last-wins write vector would clear the
        middle write's dirty bit); the rank rounds OR theirs in per
        round."""
        check_ops(reread_batch(warm))
        # One rank round per follower of the mixed-tag sets' fill
        # suffixes: cold, each opens on X's fill and Y, X, X follow;
        # warm, X's first read hits before Y fills, and X, X follow.
        assert round_sizes == ([24, 24] if warm else [24, 24, 24])

    def test_flush_clears_dirty_bits_and_keeps_stamps(self):
        scalar, array = check_ops(reread_batch(False) + [
            ("access", region(1 << 12, 300), dict(mask=FULL, write=True,
                                                   owner=2))])
        stamps = array._meta >> 1
        assert (array._meta & 1).any()
        scalar.flush()
        array.flush()
        assert_same_state(scalar, array)
        assert not (array._meta & 1).any()
        assert np.array_equal(array._meta >> 1, stamps)
        check_ops(reread_batch(True), pair=(scalar, array))

    def test_rollback_over_reread_batches(self):
        """A journaled run of the read-write-reread batches over lines
        resident before the snapshot (so its hits journal meta words)
        rolls back to the pre-snapshot tags, meta words and owners."""
        scalar, array = check_ops(reread_batch(True) + [
            ("access", region(1 << 12, 300), dict(mask=FULL, write=True,
                                                   owner=2))])
        array.snapshot()
        for op in reread_batch(True) + reread_batch(False):
            apply_batch(array, op)
        array.rollback()
        assert_same_state(scalar, array)
        check_ops(reread_batch(True), pair=(scalar, array))

    @pytest.mark.parametrize("packets", [1, 4])
    def test_core_reads_then_device_reads(self, packets):
        """The Tx shape: DDIO writes packet buffers, then one batch has
        the core read their lines and the NIC read the same lines back,
        so every device read repeats a core read's tag."""
        k = 24
        rng = random.Random(5)
        ddio = 0b11 << (TINY_LLC.ways - 2)
        core = 0b111
        ops = []
        for _ in range(6):
            bufs = [rng.randrange(1 << 14) * 64 * 32 for _ in range(packets)]
            lines = [buf + 64 * i for buf in bufs for i in range(k)]
            ops.append(("ddio", lines, dict(mask=ddio)))
            reads = [(a, core, False, 1, True) for a in lines]
            reads += [(a, core, False, 1, False) for a in lines]
            ops.append(mixed_op(reads))
            # A polluter between packets keeps the sets under eviction.
            ops.append(("access", [rng.randrange(4096) * 64
                                   for _ in range(64)],
                        dict(mask=core, write=True, owner=2)))
        check_ops(ops)


SETS = TINY_LLC.total_sets
FULL = TINY_LLC.full_mask


def region(first_line, count, step=1):
    """Addresses of ``count`` lines from ``first_line`` on, ``step``
    lines apart."""
    return [(first_line + i * step) * 64 for i in range(count)]


@pytest.fixture
def bulk_calls(monkeypatch):
    """One entry per call of the bulk all-miss path: True where it
    resolved the batch, False where it declined it to the rank engine."""
    calls = []
    real = SlicedLLC._access_bulk

    def spy(self, *args):
        out = real(self, *args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(SlicedLLC, "_access_bulk", spy)
    return calls


def prior_ops(prior, mask):
    """Pre-batch contents for the bulk batches: lines of another region,
    owned by other tenants.  ``partial`` leaves each set's ``mask`` ways
    partly filled by two batches (so residents differ in age); ``full``
    and ``dirty`` fill every way of every set, ``dirty`` by writes."""
    if prior == "empty":
        return []
    if prior == "partial":
        return [("access", region(1 << 16, 200), dict(
                    mask=mask, write=True, owner=7)),
                ("access", region(1 << 17, 200), dict(
                    mask=mask, write=False, owner=8))]
    return [("access", region(1 << 16, 3 * TINY_LLC.lines), dict(
        mask=FULL, write=prior == "dirty", owner=7))]


def bulk_op(mask, elementwise, seed=0):
    """A bulk batch under ``mask``: about ``w + 2`` distinct lines per
    set, so every set cycles through its allowed ways."""
    w = bin(mask).count("1")
    addrs = region(1 << 12, (w + 2) * SETS)
    if not elementwise:
        return ("access", addrs, dict(mask=mask, write=True, owner=3))
    rng = random.Random(seed)
    return ("elementwise", addrs, dict(
        mask=mask, write=[rng.random() < 0.5 for _ in addrs],
        owner=[rng.choice([0, 1, 2, DDIO_OWNER]) for _ in addrs]))


class TestBulkAllMiss:
    """Batches of at least one line per set, all misses under one way
    mask, resolved in closed form; each case checks which path ran."""

    @pytest.mark.parametrize("elementwise", [False, True])
    @pytest.mark.parametrize("prior", ["empty", "partial", "full", "dirty"])
    @pytest.mark.parametrize("mask", [0b1, 0b11 << 9, 0b111 << 4, FULL])
    def test_matches_scalar(self, bulk_calls, mask, prior, elementwise):
        pair = check_ops(prior_ops(prior, mask))
        if prior in ("full", "dirty"):
            assert pair[1].valid_lines() == TINY_LLC.lines
        del bulk_calls[:]
        check_ops([bulk_op(mask, elementwise)], pair)
        assert bulk_calls == [True]

    def test_ddio_write_batch(self, bulk_calls):
        ddio = 0b11 << 9
        pair = check_ops(prior_ops("partial", ddio))
        del bulk_calls[:]
        check_ops([("ddio", region(1 << 12, 3 * SETS), dict(mask=ddio))],
                  pair)
        assert bulk_calls == [True]

    def test_rollback_then_replay(self, bulk_calls):
        """Under a snapshot the bulk path declines (it may fill a cell
        more than once, which the journal cannot cut between), so the
        rank engine runs the batch, rolls back and replays exactly."""
        mask = 0b111 << 4
        scalar, array = check_ops(prior_ops("dirty", mask))
        op = bulk_op(mask, elementwise=True)
        array.snapshot()
        apply_batch(array, op)
        array.rollback()
        assert_same_state(scalar, array)
        array.snapshot()
        check_ops([op], (scalar, array))
        array.commit()
        assert bulk_calls[-2:] == [False, False]

    @pytest.mark.parametrize("mask", [0b1, 0b111])
    def test_repeat_beyond_w_stays_exact(self, bulk_calls, mask):
        """A line repeated ``w + 1`` accesses apart in its set was
        evicted by the access before, so it misses and the batch stays
        bulk (``[X, Y, X]`` under one way, ``[X, A, B, C, X]`` under
        three)."""
        w = bin(mask).count("1")
        members, _ = lines_in_set(w + 1)
        addrs = members + members[:1] + region(1 << 12, SETS)
        check_ops([("access", addrs, dict(mask=mask, write=True, owner=3))])
        assert bulk_calls == [True]

    def test_interleaved_region_falls_back_to_exact_compare(self,
                                                           bulk_calls):
        """Resident lines interleave with the batch's, so the range
        proof fails in their sets; none is a batch line, so the exact
        compare clears the batch."""
        ops = [("access", region(1 << 12, 200, step=2), dict(
                   mask=FULL, write=False, owner=7)),
               ("access", region((1 << 12) + 1, 3 * SETS, step=2), dict(
                   mask=0b111, write=True, owner=3))]
        check_ops(ops)
        assert bulk_calls == [True]

    def test_resident_line_declines(self, bulk_calls):
        prior = prior_ops("partial", 0b111)
        addrs = region(1 << 12, 3 * SETS)
        addrs.insert(SETS, prior[0][1][5])
        check_ops(prior + [("access", addrs, dict(mask=0b111, write=True,
                                                  owner=3))])
        assert bulk_calls == [False]

    @pytest.mark.parametrize("gap", [1, 3])
    def test_repeat_within_w_declines(self, bulk_calls, gap):
        """Under three ways a line repeated ``gap <= 3`` accesses apart
        in its set is still resident, so it hits: the batch declines."""
        members, _ = lines_in_set(gap)
        addrs = members + members[:1] + region(1 << 12, 3 * SETS)
        check_ops([("access", addrs, dict(mask=0b111, write=False,
                                          owner=3))])
        assert bulk_calls == [False]

    def test_non_allocating_access_declines(self, bulk_calls):
        """A device read among the batch's accesses misses without
        filling, which breaks the fill cycle."""
        op = bulk_op(0b111, elementwise=True)
        op[2]["allocate"] = [i % 7 != 3 for i in range(len(op[1]))]
        check_ops([op])
        assert bulk_calls == [False]

    def test_per_element_mask_declines(self, bulk_calls):
        addrs = region(1 << 12, 3 * SETS)
        n = len(addrs)
        check_ops([mixed_op(zip(addrs, [0b111] * n, [True] * n, [3] * n,
                                [True] * n))])
        assert bulk_calls == [False]

    def test_wide_set_index_sorts_without_16_bit_keys(self, bulk_calls,
                                                      monkeypatch):
        """Past 2**16 sets the set sort runs on the full-width index;
        the result equals the rank engine's on the same backend."""
        geom = CacheGeometry(ways=2, sets_per_slice=1 << 15, slices=3)
        assert geom.total_sets > 1 << 16
        lines = np.arange(2 * geom.total_sets, dtype=np.int64)
        bulk = SlicedLLC(geom, backend="array")
        engine = SlicedLLC(geom, backend="array")
        for addr in ((lines[:500] + (1 << 24)) * 64, lines * 64):
            got = bulk.access_batch(addr, 0b11, write=True, owner=3)
            with monkeypatch.context() as m:
                m.setattr(SlicedLLC, "_access_bulk", lambda *args: None)
                want = engine.access_batch(addr, 0b11, write=True, owner=3)
            assert np.array_equal(got.hit, want.hit)
            assert np.array_equal(got.writeback, want.writeback)
            assert bulk.stats() == engine.stats()
            assert bulk.occupancy_by_owner() == engine.occupancy_by_owner()
        assert np.array_equal(bulk._tags, engine._tags)
        assert np.array_equal(bulk._meta >> 1, engine._meta >> 1)
        assert np.array_equal(bulk._meta & 1, engine._meta & 1)
        assert np.array_equal(bulk._owner, engine._owner)
        assert bulk_calls == [True]


class TestEngineBackendEquivalence:
    def test_quickstart_style_metrics_identical(self):
        """A small two-tenant simulation produces identical metrics on
        both backends (the engine-level acceptance criterion)."""
        from repro.experiments.common import leaky_dma_scenario
        from repro.sim.config import TINY_PLATFORM

        def fingerprint(backend):
            spec = dataclasses.replace(TINY_PLATFORM, llc_backend=backend)
            scen = leaky_dma_scenario(packet_size=512, spec=spec)
            metrics = scen.sim.run(0.6)
            return [(r.time, r.ddio_hits, r.ddio_misses,
                     r.mem_read_bytes, r.mem_write_bytes,
                     tuple(sorted((name, snap.ipc, snap.llc_references,
                                   snap.llc_misses)
                                  for name, snap in r.tenants.items())),
                     tuple(sorted(r.vf_delivered.items())),
                     tuple(sorted(r.vf_dropped.items())))
                    for r in metrics.records]

        assert fingerprint("scalar") == fingerprint("array")
