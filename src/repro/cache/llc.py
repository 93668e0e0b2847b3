"""Way-partitioned, sliced, LRU last-level cache simulator.

This is the substrate for everything in the reproduction.  It implements
the two hardware behaviours the paper's mechanics depend on:

* **CAT semantics** (paper footnote 1): an agent may only *allocate*
  (fill) lines into the ways its class-of-service mask selects, but a
  lookup *hits* in any way.
* **DDIO semantics** (paper Sec. II-B): an inbound device write performs an
  LLC lookup; if the line is present it is updated in place (*write
  update*, counted as a DDIO hit); if absent it is allocated into the DDIO
  way mask (*write allocate*, counted as a DDIO miss), evicting an LRU
  victim from those ways.  A device read never allocates.

The replacement policy is true LRU within the permitted ways, with
eviction preferring invalid ways.

Two interchangeable storage backends implement the same semantics:

* ``backend="scalar"`` — per-set Python lists, the reference
  implementation (:meth:`SlicedLLC.access` and its fill).  Fastest for
  one-at-a-time accesses.
* ``backend="array"``  — NumPy structure-of-arrays state with a
  vectorized :meth:`SlicedLLC.access_batch` engine that processes an
  entire address vector per call.  Outcomes are bit-identical to the
  scalar backend for the same access sequence (the equivalence suite in
  ``tests/test_llc_batch_equiv.py`` fuzzes this).  Each line takes 17
  bytes in three ``(sets, ways)`` planes: an int64 tag, an int64 *meta
  word* ``stamp << 1 | dirty``, and an int8 owner.  The stamps of a
  set's valid lines are distinct, so ordering its lines by meta word is
  exact LRU, and a victim's writeback bit sits in the word its key read.
  One per-access step serves both a single :meth:`SlicedLLC.access` and
  the accesses a batch leaves to be applied one at a time.

Batch ordering guarantee: ``access_batch`` behaves exactly as if its
addresses were issued one at a time in vector order.  Recency stamps are
pre-assigned from the batch position, and accesses to different sets are
independent under LRU, so the engine may process them concurrently.
Within a set only a fill changes the tags, so one lookup of every access
against the pre-batch tags resolves each access before the set's first
allocating miss: a hit rewrites its line's meta word, and a miss that
does not allocate changes nothing.  The set's accesses from that miss
on, its *fill suffix*, are applied in vector order after those early
hits, so every cell sees its accesses in stamp order.

The array backend additionally supports cheap speculation via a
copy-on-write journal: :meth:`SlicedLLC.snapshot` arms per-cell logging
at every mutation site (each entry keeps the cells' pre-images and the
meta words its accesses wrote, hence their stamps),
:meth:`SlicedLLC.rollback` undoes, newest entry first, every access
stamped after a given clock and with it the scalar state
(clock/occupancy/cumulative stats), and :meth:`SlicedLLC.commit` drops
the journal.  The vectorized drains use this for optimistic
run-ahead chunk admission (execute a large chunk, cut it back to its
admitted prefix on budget overshoot) — journal cost is proportional to
the cells *touched*, not to cache size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..obs.tracer import current_tracer
from .geometry import CacheGeometry

#: Sentinel tag marking an invalid (empty) way.
EMPTY = -1

#: Owner id used for lines brought in by DDIO.
DDIO_OWNER = -2

#: Largest owner id: the array backend stores owners as int8.  Both
#: backends accept exactly the ids ``DDIO_OWNER .. OWNER_MAX``.
OWNER_MAX = 127

#: Large sentinels for vectorized victim selection: invalid ways sort
#: below every real meta word, disallowed ways above.  Stamps are access
#: counts, so meta words ``stamp << 1 | dirty`` stay far below 2**62.
_STAMP_LO = -(1 << 62)
_STAMP_HI = 1 << 62

#: Batches smaller than this are processed with the per-access loop even
#: on the array backend — NumPy kernel-launch overhead dominates under it.
_VECTOR_MIN = 8

#: Fill-suffix followers left after the repeat collapse (those in
#: mixed-tag sets) are applied with the per-access loop when fewer than
#: this, instead of rank rounds.
_SEQ_MAX = 24

#: A rank round over those mixed-set followers must cover at least this
#: many distinct sets to be worth a kernel launch; below it the whole
#: remainder drains through the per-access loop (a tiny round means a
#: few sets carry deep same-set chains, which would otherwise decay into
#: one near-empty round per chain link).
_ROUND_MIN = 12

#: Journal entry kinds, over flat ``set * ways + way`` slots (an array,
#: or one int for a per-access entry): a meta-word update by hits,
#: ``(_J_META, slots, pre_meta, words)``; the same for the batch
#: engine's early hits and collapsed repeats, whose slots may repeat,
#: ``(_J_REPEAT, ...)``; or a cell replacement by fills, ``(_J_FILL,
#: slots, pre_tag, pre_meta, pre_owner, words)``.  ``words`` are the
#: meta words the accesses wrote, so their stamps date each access.  An
#: array entry lists its accesses in issue order, so its stamps ascend.
_J_META = 0
_J_REPEAT = 1
_J_FILL = 2


@lru_cache(maxsize=4096)
def _ways_of_mask(mask: int) -> "tuple[int, ...]":
    """Way indices selected by a bitmask, cached per distinct mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class AccessOutcome:
    """Result of a single cache access: what its caller charges.

    ``hit``       the line was present.
    ``writeback`` the access's fill displaced a dirty line (memory write
                  needed).

    Fills, evictions and their victims' owners are counted once, in
    :meth:`SlicedLLC.stats` and :meth:`SlicedLLC.occupancy_by_owner`.
    """

    hit: bool
    writeback: bool = False


#: The three outcomes an access can have, shared so that no access
#: allocates one.
HIT = AccessOutcome(hit=True)
MISS = AccessOutcome(hit=False)
MISS_WRITEBACK = AccessOutcome(hit=False, writeback=True)


@dataclass
class BatchOutcome:
    """Struct-of-arrays result of one :meth:`SlicedLLC.access_batch`.

    Element ``i`` holds the :class:`AccessOutcome` fields of address
    ``i`` of the batch.
    """

    hit: "np.ndarray"           # bool
    writeback: "np.ndarray"     # bool
    #: Flat set index of each address where the vector engine computed
    #: it (``None`` from the per-access loop), so a caller that needs
    #: each line's slice need not hash the batch again.
    index: "np.ndarray | None" = None

    def __len__(self) -> int:
        return len(self.hit)

    # -- aggregates (what the batched callers actually consume) ----------
    @property
    def hits(self) -> int:
        return int(np.count_nonzero(self.hit))

    @property
    def misses(self) -> int:
        return len(self.hit) - self.hits

    @property
    def writebacks(self) -> int:
        return int(np.count_nonzero(self.writeback))

    def outcome_at(self, i: int) -> AccessOutcome:
        """Element ``i`` as a scalar :class:`AccessOutcome` (tests)."""
        return AccessOutcome(hit=bool(self.hit[i]),
                             writeback=bool(self.writeback[i]))


def _empty_batch(n: int, index: "np.ndarray | None" = None) -> BatchOutcome:
    return BatchOutcome(hit=np.zeros(n, dtype=bool),
                        writeback=np.zeros(n, dtype=bool), index=index)


def _scalar_or_array(value, n: int, dtype):
    """Pass a scalar through; validate a per-element array's shape.

    The vector engine branches on scalar-vs-array instead of
    broadcasting — ``np.broadcast_to`` costs several microseconds per
    call, which dominates small batches.
    """
    if isinstance(value, np.ndarray) and value.ndim:
        if value.shape != (n,):
            raise ValueError(f"per-element argument has shape "
                             f"{value.shape}, expected ({n},)")
        if value.dtype != dtype:
            value = value.astype(dtype)
        return value
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim:
        if arr.shape != (n,):
            raise ValueError(f"per-element argument has shape {arr.shape}, "
                             f"expected ({n},)")
        return arr
    return arr.item()


def _pick(value, idx):
    """Index a per-element array, or pass a scalar through."""
    return value[idx] if isinstance(value, np.ndarray) else value


def _check_owner(owner) -> None:
    """Raise unless every owner id lies in ``DDIO_OWNER .. OWNER_MAX``.

    ``owner`` is a scalar or a per-element sequence; the error names the
    first offending id.
    """
    if isinstance(owner, (list, tuple, np.ndarray)):
        ids = np.asarray(owner).reshape(-1)
        bad = ids[(ids < DDIO_OWNER) | (ids > OWNER_MAX)]
        if bad.size == 0:
            return
        owner = bad[0]
    if not DDIO_OWNER <= owner <= OWNER_MAX:
        raise ValueError(f"owner id {owner} outside the supported range "
                         f"{DDIO_OWNER}..{OWNER_MAX}")


def _owner_counts(owners: "np.ndarray"):
    """``(owner, count)`` pairs of an owner-id vector, ascending by id.

    Owner ids are never below :data:`DDIO_OWNER`, so shifting by it
    hands ``np.bincount`` the non-negative input it needs; a lower id
    would make it raise rather than corrupt the counts.  The shift is
    computed in int64: the owner plane is int8, where it overflows.
    """
    counts = np.bincount(np.subtract(owners, DDIO_OWNER, dtype=np.int64))
    ids = np.flatnonzero(counts)
    return zip((ids + DDIO_OWNER).tolist(), counts[ids].tolist())


def _element_list(value, n: int, dtype) -> list:
    """Per-element python list of length ``n`` (scalar replicated)."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return [arr.item()] * n
    if arr.shape != (n,):
        raise ValueError(f"per-element argument has shape {arr.shape}, "
                         f"expected ({n},)")
    return arr.tolist()


def _record(out: BatchOutcome, at, outcomes) -> None:
    """Write per-access outcomes into ``out`` at batch positions ``at``."""
    hit = out.hit
    writeback = out.writeback
    for i, o in zip(at, outcomes):
        if o.hit:
            hit[i] = True
        elif o.writeback:
            writeback[i] = True


def _raise_mask_error(raw_masks) -> None:
    """Raise the error for way masks, one or a vector, that let a fill
    take no way."""
    empty = (bool((raw_masks == 0).any())
             if isinstance(raw_masks, np.ndarray) else raw_masks == 0)
    if empty:
        raise ValueError("cannot allocate with an empty way mask")
    raise ValueError("way mask selects no ways within geometry")


class SlicedLLC:
    """Cacheline-accurate sliced LLC with per-way owner tracking.

    Owners are small integers identifying the agent (tenant id or
    ``DDIO_OWNER``) that allocated each line; they feed occupancy
    introspection (used by tests and the Fig. 11 timeline), where an
    evicted line's owner loses it.  Both backends accept owner ids
    ``DDIO_OWNER .. OWNER_MAX`` (-2 .. 127, what the array backend's
    int8 owner plane holds) and raise ``ValueError`` on any other.
    Per-owner valid-line counts are maintained incrementally and are
    the only count of valid lines, so :meth:`occupancy_by_owner` and
    :meth:`valid_lines` are O(owners), not O(lines).

    ``backend`` selects the storage engine (see module docstring):
    ``"scalar"`` Python lists or ``"array"`` NumPy arrays with the
    vectorized batch path.  The array backend keeps each line's LRU
    stamp and dirty bit in one int64 meta word, ``stamp << 1 | dirty``.
    """

    def __init__(self, geometry: CacheGeometry, *,
                 backend: str = "scalar") -> None:
        if backend not in ("scalar", "array"):
            raise ValueError(f"unknown LLC backend {backend!r}")
        self.geometry = geometry
        self.backend = backend
        nsets, nways = geometry.total_sets, geometry.ways
        if backend == "scalar":
            # One flat list per set keeps the per-access work at a C-speed
            # ``list.index`` plus a tiny scan of <= `ways` entries.
            self._tags = [[EMPTY] * nways for _ in range(nsets)]
            self._stamp = [[0] * nways for _ in range(nsets)]
            self._dirty = [[False] * nways for _ in range(nsets)]
            self._owner = [[0] * nways for _ in range(nsets)]
        else:
            self._tags = np.full((nsets, nways), EMPTY, dtype=np.int64)
            self._meta = np.zeros((nsets, nways), dtype=np.int64)
            self._owner = np.zeros((nsets, nways), dtype=np.int8)
            self._way_range = np.arange(nways, dtype=np.int64)
            # Flat views over the (sets, ways) state: the batch engine
            # addresses cells as ``set * ways + way`` with single-index
            # fancy operations, which are cheaper than index pairs.
            self._nways = nways
            self._tags_flat = self._tags.reshape(-1)
            self._meta_flat = self._meta.reshape(-1)
            self._owner_flat = self._owner.reshape(-1)
            self._invalid_key = _STAMP_LO + self._way_range
            self._total_lines = nsets * nways
            # Per-mask cache of the (ways,) allowed-way row used by the
            # batch victim key (way masks are a handful of CLOS values).
            self._allowed_rows: "dict[int, np.ndarray]" = {}
            # Per-set scratch for the batch engine: each touched set's
            # first allocating miss, then its fill slot (contents are
            # never read beyond the cells a batch writes, so no init
            # needed).
            self._first_scratch = np.empty(nsets, dtype=np.int64)
        self._clock = 0
        # Copy-on-write journal: None when inactive; while a snapshot
        # is armed, its entries (see _J_META) in the order the writes
        # were applied.
        self._journal: "list[tuple] | None" = None
        self._snap: "tuple | None" = None
        # Incremental occupancy accounting: owner id -> valid lines.
        self._occ: "dict[int, int]" = {}
        # Cumulative event counters (cheap ints, identical across
        # backends); the engine samples per-quantum deltas for tracing.
        self.stat_fills = 0
        self.stat_evictions = 0
        self.stat_writebacks = 0
        self.stat_ddio_hits = 0
        self.stat_ddio_misses = 0

    # ------------------------------------------------------------------
    # Speculation: copy-on-write snapshot / rollback
    # ------------------------------------------------------------------
    @property
    def can_snapshot(self) -> bool:
        """Whether this backend supports :meth:`snapshot` (array only)."""
        return self.backend == "array"

    def snapshot(self) -> None:
        """Arm copy-on-write journaling of every subsequent mutation.

        Only the array backend supports snapshots (the journal stores
        flat-slot pre-images of the structure-of-arrays state).  Exactly
        one snapshot may be active at a time; close it with
        :meth:`rollback` or :meth:`commit`.
        """
        if self.backend != "array":
            raise RuntimeError("snapshot() requires the array backend")
        if self._journal is not None:
            raise RuntimeError("a snapshot is already active")
        self._journal = []
        self._snap = (self._clock, self.stat_ddio_hits,
                      self.stat_ddio_misses)

    @property
    def journaling(self) -> bool:
        """Whether a :meth:`snapshot` is active."""
        return self._journal is not None

    @property
    def clock(self) -> int:
        """Accesses issued so far: the stamp of the latest one."""
        return self._clock

    def rollback(self, keep: "int | None" = None) -> None:
        """Undo every access stamped after clock ``keep`` and close the
        active :meth:`snapshot`, keeping the accesses up to ``keep``.

        ``keep`` defaults to the snapshot's clock, which undoes
        everything.  Accesses apply to a cell in stamp order, so undoing
        the journal newest entry first, and in each entry the elements
        stamped after ``keep``, leaves every cell as its last kept
        access left it.  Each undone fill gives its counters back, and
        the clock, occupancy and :meth:`stats` end where the kept
        accesses left them.  DDIO writes are counted outside the
        journal, so a snapshot that issued any can only be rolled back
        whole.
        """
        journal = self._journal
        if journal is None:
            raise RuntimeError("rollback() without an active snapshot")
        clock0, ddio_hits, ddio_misses = self._snap
        if keep is None:
            keep = clock0
        elif not clock0 <= keep <= self._clock:
            raise ValueError(f"keep={keep} outside the snapshot's clocks "
                             f"{clock0}..{self._clock}")
        if (self.stat_ddio_hits != ddio_hits
                or self.stat_ddio_misses != ddio_misses):
            if keep != clock0:
                raise RuntimeError("cannot cut a snapshot that issued "
                                   "DDIO writes")
            self.stat_ddio_hits = ddio_hits
            self.stat_ddio_misses = ddio_misses
        if keep < self._clock:
            self._undo(journal, (keep + 1) << 1)
            self._clock = keep
        self._journal = None
        self._snap = None

    def _undo(self, journal: list, cut_word: int) -> None:
        """Undo, newest entry first, every journaled write whose meta
        word is at least ``cut_word`` (its stamp is past the cut)."""
        tags = self._tags_flat
        meta = self._meta_flat
        owner = self._owner_flat
        for entry in reversed(journal):
            kind = entry[0]
            slots = entry[1]
            words = entry[5] if kind == _J_FILL else entry[3]
            if not isinstance(slots, np.ndarray):
                # A per-access entry: undone whole or not at all.
                if words < cut_word:
                    continue
                if kind != _J_FILL:
                    meta[slots] = entry[2]
                    continue
                _, _, ptag, pmeta, powner, _ = entry
                self._unfill(int(owner[slots]), ptag, pmeta, powner)
                tags[slots] = ptag
                meta[slots] = pmeta
                owner[slots] = powner
                continue
            # Stamps ascend, so the undone accesses are a suffix.
            a = int(words.searchsorted(cut_word))
            if a == words.shape[0]:
                continue
            if kind != _J_FILL:
                meta[slots[a:]] = entry[2][a:]
                if kind == _J_REPEAT and a:
                    # A repeated slot may also hold kept accesses, which
                    # precede its undone ones: re-apply those by the
                    # forward rule, the last stamp winning and any write
                    # ORing in the dirty bit (a kept word carries it).
                    # They are the kept words newer than their cell now
                    # is; every other kept cell holds its word already,
                    # or a newer kept one.
                    ks = slots[:a]
                    kw = words[:a]
                    redo = meta[ks] < kw
                    if redo.any():
                        ks = ks[redo]
                        kw = kw[redo]
                        meta[ks] = kw
                        meta[ks[(kw & 1) != 0]] |= 1
                continue
            _, _, ptag, pmeta, powner, _ = entry
            if a:
                slots = slots[a:]
                ptag = ptag[a:]
                pmeta = pmeta[a:]
                powner = powner[a:]
            # Newer writes are undone, so a cell's current owner is its
            # fill's; a valid pre-tag was that fill's victim.
            valid = ptag != EMPTY
            n_evicted = int(np.count_nonzero(valid))
            self.stat_fills -= slots.shape[0]
            self.stat_evictions -= n_evicted
            self.stat_writebacks -= int(np.count_nonzero(pmeta[valid] & 1))
            self._occ_update(powner[valid], n_evicted, owner[slots])
            tags[slots] = ptag
            meta[slots] = pmeta
            owner[slots] = powner

    def _unfill(self, fill_owner: int, ptag: int, pmeta: int,
                powner: int) -> None:
        """Give back the counters of one undone fill."""
        occ = self._occ
        self.stat_fills -= 1
        if ptag != EMPTY:
            self.stat_evictions -= 1
            if pmeta & 1:
                self.stat_writebacks -= 1
            occ[powner] = occ.get(powner, 0) + 1
        left = occ[fill_owner] - 1
        if left:
            occ[fill_owner] = left
        else:
            del occ[fill_owner]

    def commit(self) -> None:
        """Drop the active snapshot's journal, keeping all mutations."""
        if self._journal is None:
            raise RuntimeError("commit() without an active snapshot")
        self._journal = None
        self._snap = None

    # ------------------------------------------------------------------
    # Core access paths
    # ------------------------------------------------------------------
    def access(self, addr: int, mask: int, *, write: bool = False,
               owner: int = 0, allocate: bool = True) -> AccessOutcome:
        """Access one cacheline address on behalf of ``owner``.

        ``mask`` is the CAT way mask governing *allocation*; hits are
        honoured in any way.  With ``allocate=False`` a miss does not fill
        (used for device reads).  The array backend takes its
        :meth:`_step`; the rest is the scalar reference.
        """
        # Inline compare: the per-access path pays no call unless the
        # owner is out of range, and then _check_owner raises.
        if not DDIO_OWNER <= owner <= OWNER_MAX:
            _check_owner(owner)
        index, tag = self.geometry.frame_index(addr)
        self._clock += 1
        if self.backend == "array":
            return self._step(index, tag, self._clock << 1 | bool(write),
                              mask, owner, allocate)
        tags = self._tags[index]
        try:
            way = tags.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            self._stamp[index][way] = self._clock
            if write:
                self._dirty[index][way] = True
            return HIT
        if not allocate:
            return MISS
        return self._fill(index, tag, mask, write=write, owner=owner)

    def ddio_write(self, addr: int, ddio_mask: int) -> AccessOutcome:
        """Inbound device write: write update on hit, else write allocate.

        Returns an outcome whose ``hit`` flag distinguishes the two DDIO
        counter events (hit = write update, miss = write allocate).
        """
        outcome = self.access(addr, ddio_mask, write=True, owner=DDIO_OWNER)
        if outcome.hit:
            self.stat_ddio_hits += 1
        else:
            self.stat_ddio_misses += 1
        return outcome

    def device_read(self, addr: int) -> AccessOutcome:
        """Outbound device read: served from LLC if present, never fills."""
        return self.access(addr, 0, allocate=False)

    # ------------------------------------------------------------------
    # Batched access paths
    # ------------------------------------------------------------------
    def access_batch(self, addrs, mask, *, write=False, owner=0,
                     allocate=True) -> BatchOutcome:
        """Access a vector of cacheline addresses in vector order.

        ``mask``, ``write``, ``owner`` and ``allocate`` may each be a
        scalar (applied to every element) or a per-element array.
        Outcomes are bit-identical to issuing the same sequence through
        :meth:`access` one address at a time, on either backend (see the
        module docstring for the ordering guarantee).
        """
        _check_owner(owner)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        n = addrs.shape[0]
        if n == 0:
            return _empty_batch(0)
        if self.backend == "array" and n >= _VECTOR_MIN:
            return self._access_batch_vector(addrs, mask, write, owner,
                                             allocate)
        return self._access_batch_loop(addrs, mask, write, owner, allocate)

    def ddio_write_batch(self, addrs, ddio_mask, allocate=True
                         ) -> BatchOutcome:
        """Batched :meth:`ddio_write` over an address vector.

        ``ddio_mask`` and ``allocate`` may be per-element arrays.  An
        element that does not allocate is a device write bypassing DDIO
        (a header-only VF's payload line): it updates the line in place
        on a hit and otherwise leaves the cache alone.  It is not a DDIO
        transaction, so only allocating elements count as DDIO hits and
        misses.
        """
        out = self.access_batch(addrs, ddio_mask, write=True,
                                owner=DDIO_OWNER, allocate=allocate)
        if isinstance(allocate, np.ndarray) and allocate.ndim:
            hits = int(np.count_nonzero(out.hit & allocate))
            writes = int(np.count_nonzero(allocate))
        elif allocate:
            hits = out.hits
            writes = len(out)
        else:
            hits = writes = 0
        self.stat_ddio_hits += hits
        self.stat_ddio_misses += writes - hits
        return out

    def device_read_batch(self, addrs) -> BatchOutcome:
        """Batched :meth:`device_read` over an address vector."""
        return self.access_batch(addrs, 0, allocate=False)

    def _access_batch_loop(self, addrs, mask, write, owner,
                           allocate) -> BatchOutcome:
        """Reference batch path: per-access loop in vector order."""
        n = addrs.shape[0]
        out = _empty_batch(n)
        access = self.access
        _record(out, range(n), (
            access(addr, m, write=w, owner=o, allocate=a)
            for addr, m, w, o, a in zip(
                addrs.tolist(), _element_list(mask, n, np.int64),
                _element_list(write, n, bool),
                _element_list(owner, n, np.int64),
                _element_list(allocate, n, bool))))
        return out

    def _access_batch_vector(self, addrs, mask, write, owner,
                             allocate) -> BatchOutcome:
        """Vectorized batch engine (array backend).

        A bulk all-miss batch is resolved in closed form by
        :meth:`_access_bulk`.  Every other batch first looks each access
        up once against the pre-batch tags.  Only a fill changes a set's
        tags, so that lookup resolves every access issued before its
        set's first allocating miss: a hit lands on its pre-batch slot,
        and a miss that does not allocate changes nothing.  The rest of
        each set, its *fill suffix*, opens with that miss: the suffix's
        first accesses fill in one round without a second compare, and
        their followers take the repeat collapse and the rank rounds.
        """
        n = addrs.shape[0]
        geom = self.geometry
        index, tag = geom.frame_index_batch(addrs)
        if n >= geom.total_sets:
            out = self._access_bulk(index, tag, mask, write, owner,
                                    allocate)
            if out is not None:
                return out
        mask = _scalar_or_array(mask, n, np.int64)
        write = _scalar_or_array(write, n, bool)
        owner = _scalar_or_array(owner, n, np.int64)
        allocate = _scalar_or_array(allocate, n, bool)
        # Each access's meta word as its fill writes it, ``clock << 1 |
        # write``; a hit also keeps the line's dirty bit.
        clk0 = self._clock
        self._clock = clk0 + n
        new_meta = np.arange(2 * clk0 + 2, 2 * (clk0 + n) + 2, 2,
                             dtype=np.int64)
        if write is not False:
            new_meta |= write
        out = _empty_batch(n, index)

        # The pre-batch lookup.  A line sits in at most one way of its
        # set, so the compare's nonzeros are exactly the hits, one per
        # hitting access, in batch order: ``hit_flat`` is ``hit_at *
        # ways + way``.
        ways = self._nways
        hit_flat = np.flatnonzero(
            np.take(self._tags, index, axis=0) == tag[:, None])
        hit_at = hit_flat // ways
        hit_slot = (index[hit_at] - hit_at) * ways + hit_flat
        fill = np.ones(n, dtype=bool)
        fill[hit_at] = False
        if allocate is not True:
            fill &= allocate
        am = np.flatnonzero(fill)
        if am.shape[0]:
            # Each set's first allocating miss, without sorting: scatter
            # the misses' positions in *reverse* batch order — fancy
            # assignment keeps the last value written per repeated
            # index, so each such set's cell ends on its earliest miss;
            # the other sets hold n.  Only the hits before it are early.
            fpos = self._first_scratch
            fpos[index] = n
            fpos[index[am[::-1]]] = am[::-1]
            ffill = fpos[index]
            early = hit_at < ffill[hit_at]
            if not early.all():
                hit_at, hit_slot = hit_at[early], hit_slot[early]
        # The early hits apply as one last-wins write, before any fill
        # of their set picks a victim by the stamps they leave.
        if hit_at.shape[0]:
            self._hit(hit_at, hit_slot, new_meta, write, out, _J_REPEAT)
        if am.shape[0] == 0:
            return out

        # The fill suffixes.  Each set's first allocating miss fills;
        # the accesses after it in its set are its followers.
        sel0 = am[ffill[am] == am]
        rows0 = index[sel0]
        alloc_mask = mask & geom.full_mask
        slot0 = self._fill_round(sel0, rows0, tag, new_meta, alloc_mask,
                                 mask, owner, out)
        rest = np.flatnonzero(ffill < np.arange(n))
        if rest.shape[0] == 0:
            return out

        # Collapse guaranteed repeats.  A follower is a hit on its set's
        # fill slot when no other tag touches the set's suffix: only a
        # fill of another tag could evict the line.  The scratch cells
        # are rewritten to each set's fill slot, with -1 marking a
        # mixed-tag set; its followers go through the rank rounds below.
        rrow = index[rest]
        fpos[rows0] = slot0
        mixed = tag[rest] != tag[ffill[rest]]
        if mixed.any():
            fpos[rrow[mixed]] = -1
        slot = fpos[rrow]
        rep = slot >= 0
        if rep.any():
            self._hit(rest[rep], slot[rep], new_meta, write, out,
                      _J_REPEAT)
        keep = ~rep
        rest, rrow = rest[keep], rrow[keep]
        args = (tag, new_meta, alloc_mask, mask, write, owner, allocate,
                out)
        if rest.shape[0] < _SEQ_MAX:
            if rest.shape[0]:
                self._apply_sequential(rest, index, *args)
            return out
        # Mixed-tag collision load: rank rounds over the remainder only
        # (entries with rank r are the (r+2)-th suffix access to their
        # set).  Once the remainder shrinks below the vectorization
        # payoff — or a round itself is too small to amortize a kernel
        # launch — the rest is applied one access at a time in its
        # set-major, batch-position order, which preserves per-set
        # access order.
        ro = rest[np.argsort(rrow, kind="stable")]
        si = index[ro]
        newset = np.empty(ro.size, dtype=bool)
        newset[0] = True
        np.not_equal(si[1:], si[:-1], out=newset[1:])
        pos_r = np.arange(ro.size, dtype=np.int64)
        rank = pos_r - pos_r[newset][np.cumsum(newset) - 1]
        rest = ro
        r = 0
        while rest.size:
            if rest.size < _SEQ_MAX:
                self._apply_sequential(rest, index, *args)
                break
            head = rank == r
            sel = rest[head]
            # Issue order within the round, which the journal expects
            # (the round's sets are distinct, so the order is free).
            sel.sort()
            if sel.shape[0] < _ROUND_MIN:
                # A tiny round means a few sets carry long chains: the
                # whole remainder drains faster access-at-a-time than
                # as dozens of near-empty vectorized rounds.
                self._apply_sequential(rest, index, *args)
                break
            self._apply_round(sel, index[sel], *args)
            keep = ~head
            rest = rest[keep]
            rank = rank[keep]
            r += 1
        return out

    def _access_bulk(self, index, tag, mask, write, owner, allocate):
        """Resolve a bulk all-miss batch in closed form (one pass).

        The caller has checked that the batch holds at least one line
        per set of the geometry.  The batch must also allocate
        everywhere under one way mask, and this path proves the rest of
        its precondition: no tag of the batch is resident, and no tag
        repeats within ``w`` accesses of its set.  Where any of that
        fails it returns ``None``, having changed nothing.  It also
        declines under a snapshot: it may fill one cell several times,
        which one journal entry per cell cannot cut between (only
        prefill issues such batches, outside any snapshot).

        Then every access misses and fills, and LRU cycles a set's
        fills through its ``w`` allowed ways in one fixed order: empty
        ways in way order, then resident ways oldest stamp first (every
        batch stamp is newer).  The set's j-th access fills
        ``order[j mod w]``, evicting that way's pre-batch line while
        j < w and the line of the set's access j - w after.  A repeat
        more than ``w`` accesses apart has been evicted by then, so it
        misses and refills like any other line.
        """
        n = index.shape[0]
        mask = _scalar_or_array(mask, n, np.int64)
        if (self._journal is not None
                or _scalar_or_array(allocate, n, bool) is not True
                or isinstance(mask, np.ndarray)):
            return None
        amask = mask & self.geometry.full_mask
        if amask == 0:
            return None     # the rank engine raises the mask error
        write = _scalar_or_array(write, n, bool)
        owner = _scalar_or_array(owner, n, np.int64)
        ways = self._nways
        tags = self._tags
        # Absence: a set whose pre-batch row holds no tag inside the
        # batch's tag range holds none of its tags (tenant regions are
        # disjoint ranges), so only accesses to sets holding such a tag
        # take the exact compare.
        near = tags >= tag.min()
        near &= tags <= tag.max()
        hot = np.flatnonzero(near)
        del near
        if hot.size:
            suspect = np.zeros(tags.shape[0], dtype=bool)
            suspect[hot // ways] = True
            sus = np.flatnonzero(suspect[index])
            if (tags[index[sus]] == tag[sus, None]).any():
                return None
            del suspect, sus
        # Group by set in batch order with one stable sort (a radix
        # sort on 16-bit keys); positions below are in this set-major
        # order.  Equal tags share a set, so a repeat d accesses apart
        # in its set sits exactly d places apart here.
        aw = np.array(_ways_of_mask(amask), dtype=np.int64)
        w = aw.shape[0]
        key = (index.astype(np.uint16)
               if tags.shape[0] <= 1 << 16 else index)
        perm = np.argsort(key, kind="stable")
        si = key[perm]
        del key
        ts = tag[perm]
        for d in range(1, w + 1):
            if (ts[d:] == ts[:-d]).any():
                return None

        # Per touched set: its first position, its access count, and
        # the cells of its allowed ways in cycle order, one row each.
        # Transient arrays are dropped as soon as they are dead: bulk
        # batches are the largest the cache sees.
        newset = np.empty(n, dtype=bool)
        newset[0] = True
        np.not_equal(si[1:], si[:-1], out=newset[1:])
        starts = np.flatnonzero(newset)
        del newset
        count = np.diff(starts, append=n)
        cells = si[starts].astype(np.int64)[:, None] * ways + aw
        vkey = np.where(self._tags_flat[cells] == EMPTY, _STAMP_LO + aw,
                        self._meta_flat[cells])
        if not (vkey[:, 1:] >= vkey[:, :-1]).all():
            cells = np.take_along_axis(
                cells, np.argsort(vkey, axis=1, kind="stable"), axis=1)
        del vkey
        # Column k is filled first by the set's access k and last by its
        # final access congruent to k mod w; a set with fewer than w
        # accesses leaves its last columns untouched.
        k = np.arange(w)
        used = k < count[:, None]
        first = starts[:, None] + k
        last = ((count[:, None] - 1 - k) // w * w + first)[used]
        first = first[used]
        cells = cells[used]
        del used, starts, count

        # The first fills evict the cells' pre-batch lines; each later
        # fill evicts the line of its set's access w places before it.
        pre_meta = self._meta_flat[cells]
        pre_valid = self._tags_flat[cells] != EMPTY
        ev_owner = self._owner_flat[cells][pre_valid]
        out = _empty_batch(n, index)
        out.writeback[perm[first]] = (pre_meta & 1) & pre_valid
        del first, pre_meta, pre_valid
        prev = np.flatnonzero(si[w:] == si[:-w])
        del si
        out.writeback[perm[prev + w]] = _pick(write, perm[prev])
        evictions = ev_owner.shape[0] + prev.shape[0]
        del prev

        # The last fills are the final state.
        at = perm[last]
        del perm
        clk0 = self._clock
        self._clock = clk0 + n
        new_owner = _pick(owner, at)
        self._tags_flat[cells] = ts[last]
        self._meta_flat[cells] = ((at + (clk0 + 1)) << 1) | _pick(write, at)
        self._owner_flat[cells] = new_owner
        self.stat_fills += n
        self.stat_evictions += evictions
        self.stat_writebacks += int(np.count_nonzero(out.writeback))
        # Fills evicted within the batch cancel out: what stays is the
        # final residents in, the evicted pre-batch lines out.
        self._occ_update(new_owner, cells.shape[0], ev_owner)
        return out

    def _apply_sequential(self, sel, index, tag, new_meta, alloc_mask,
                          raw_mask, write, owner, allocate, out) -> None:
        """Apply the set-colliding remainder ``sel`` of a batch in
        order, one :meth:`_step` per access (the write bit is already
        in ``new_meta``)."""
        n = sel.shape[0]
        _record(out, sel.tolist(), map(
            self._step, index[sel].tolist(), tag[sel].tolist(),
            new_meta[sel].tolist(),
            _element_list(_pick(raw_mask, sel), n, np.int64),
            _element_list(_pick(owner, sel), n, np.int64),
            _element_list(_pick(allocate, sel), n, bool)))

    def _hit(self, sel, slot, new_meta, write, out, kind) -> None:
        """Apply the hits of batch positions ``sel`` on flat slots
        ``slot`` (``set * ways + way``), as one journal entry of
        ``kind``.

        A hit writes its access's meta word with the line's dirty bit
        kept (a scalar write sets it anyway, so DDIO write updates skip
        the gather).  Under :data:`_J_REPEAT` a slot may repeat: fancy
        assignment leaves it its last stamp, and any write among its
        hits ORs in the dirty bit, exactly what the scalar loop would
        leave.  The entry keeps each hit's own word, so a cut can
        re-apply a prefix.
        """
        meta = self._meta_flat
        words = new_meta[sel]
        journal = self._journal
        if write is not True or journal is not None:
            pre = meta[slot]
            words |= pre & 1
            if journal is not None:
                journal.append((kind, slot, pre, words))
        meta[slot] = words
        if kind == _J_REPEAT and isinstance(write, np.ndarray):
            wr = write[sel]
            if wr.any():
                meta[slot[wr]] |= 1
        out.hit[sel] = True

    def _apply_round(self, sel, rows, tag, new_meta, alloc_mask, raw_mask,
                     write, owner, allocate, out) -> None:
        """Look up and apply one rank round: batch positions ``sel``, in
        issue order, in the distinct sets ``rows``.

        One ``np.take`` gathers the round's tag rows from current state;
        the hits take their slots, and the allocating misses fill
        through :meth:`_fill_round`.
        """
        ways = self._nways
        m = rows.shape[0]
        hit_flat = np.flatnonzero(
            np.take(self._tags, rows, axis=0) == tag[sel][:, None])
        hit_at = hit_flat // ways
        if hit_at.shape[0]:
            self._hit(sel[hit_at], (rows[hit_at] - hit_at) * ways + hit_flat,
                      new_meta, write, out, _J_META)
            if hit_at.shape[0] == m:
                return
        miss = np.ones(m, dtype=bool)
        miss[hit_at] = False
        if isinstance(allocate, np.ndarray):
            miss &= allocate[sel]
        if miss.any():
            self._fill_round(sel[miss], rows[miss], tag, new_meta,
                             alloc_mask, raw_mask, owner, out)

    def _fill_round(self, sel, rows, tag, new_meta, alloc_mask, raw_mask,
                    owner, out) -> "np.ndarray":
        """Fill the known misses ``sel`` (batch positions in issue order)
        into their distinct sets ``rows``.

        Returns the flat slot (``set * ways + way``) each access filled.
        Meta rows are gathered only under a wide way mask, and tag rows
        only there and while the cache has invalid lines.
        """
        ways = self._nways
        k = sel.shape[0]
        journal = self._journal
        amask = _pick(alloc_mask, sel)
        if isinstance(amask, np.ndarray):
            a0 = amask[0]
            uniform = bool((amask == a0).all())
        else:
            a0 = amask
            uniform = True
        if uniform:
            a0 = int(a0)
            if a0 == 0:
                _raise_mask_error(_pick(raw_mask, sel))
            # (ways,)-shaped row; ufunc broadcasting against the
            # (k, ways) meta words below is free.
            cached = self._allowed_rows.get(a0)
            if cached is None:
                allowed = (a0 >> self._way_range) & 1 != 0
                # Disallowed ways as an OR-able sentinel row: meta words
                # are non-negative, so ``word | _STAMP_HI`` always
                # exceeds every allowed key (which stays below the
                # sentinel bit).
                cached = (allowed, np.where(allowed, 0, _STAMP_HI),
                          tuple(int(w) for w in np.flatnonzero(allowed)))
                self._allowed_rows[a0] = cached
            allowed, dis_row, aw = cached
        else:
            allowed = (amask[:, None] >> self._way_range) & 1 != 0
            dis_row = aw = None
            if not allowed.any(axis=1).all():
                _raise_mask_error(_pick(raw_mask, sel))
        # Victim selection: invalid allowed ways sort first (lowest way
        # index wins), then the LRU meta word among allowed ways (valid
        # lines' stamps are distinct, so the dirty bit never decides);
        # first-match tie-breaks mirror the scalar scan order.  Narrow
        # uniform masks (e.g. the two DDIO ways) scan their allowed
        # columns with flat 1-D gathers — short-axis ``argmin`` over
        # (k, ways) costs far more than a handful of length-k passes,
        # and the per-way tag and meta rows are never materialized.
        # Wide masks build the per-way key and let ``argmin`` pick; a
        # full cache (no invalid ways anywhere) skips the tag comparison
        # entirely, and its narrow scan's best key is the victim's word.
        full = self.valid_lines() == self._total_lines
        base = rows * ways
        tags_flat = self._tags_flat
        meta_flat = self._meta_flat
        if aw is not None and len(aw) <= 4:
            w = aw[0]
            fslot = base + w
            if full:
                best = meta_flat[fslot]
                for w in aw[1:]:
                    col = base + w
                    cand = meta_flat[col]
                    better = cand < best
                    best = np.where(better, cand, best)
                    fslot = np.where(better, col, fslot)
                victim_meta = best
            else:
                best = np.where(tags_flat[fslot] == EMPTY,
                                _STAMP_LO + w, meta_flat[fslot])
                for w in aw[1:]:
                    col = base + w
                    cand = np.where(tags_flat[col] == EMPTY,
                                    _STAMP_LO + w, meta_flat[col])
                    better = cand < best
                    best = np.where(better, cand, best)
                    fslot = np.where(better, col, fslot)
                victim_meta = meta_flat[fslot]
        else:
            words = np.take(self._meta, rows, axis=0)
            if full:
                key = words | dis_row if dis_row is not None else \
                    np.where(allowed, words, _STAMP_HI)
            else:
                key = np.where(np.take(self._tags, rows, axis=0) == EMPTY,
                               self._invalid_key, words)
                if aw is None or len(aw) != ways:
                    # Partial mask: push disallowed ways past every
                    # valid key (the key can be negative, so the OR
                    # trick does not apply here).
                    key = np.where(allowed, key, _STAMP_HI)
            fslot = base + key.argmin(axis=1)
            victim_meta = meta_flat[fslot]
        dirty_pre = victim_meta & 1
        victim_owner = self._owner_flat[fslot]
        new_owner = _pick(owner, sel)
        fill_meta = new_meta[sel]
        if journal is not None or not full:
            victim_tags = tags_flat[fslot]
        if journal is not None:
            # Flat-slot gathers of the pre-write state (written below).
            journal.append((_J_FILL, fslot, victim_tags, victim_meta,
                            victim_owner, fill_meta))
        if not full:
            evicted = victim_tags != EMPTY
        tags_flat[fslot] = tag[sel]
        meta_flat[fslot] = fill_meta
        self._owner_flat[fslot] = new_owner
        self.stat_fills += k
        if full:
            # Every fill evicts: no per-element valid/evicted masking.
            out.writeback[sel] = dirty_pre
            self.stat_evictions += k
            self.stat_writebacks += int(np.count_nonzero(dirty_pre))
            self._occ_update(new_owner, k, victim_owner)
            return fslot
        writeback = evicted & dirty_pre
        out.writeback[sel] = writeback
        ev_owner = victim_owner[evicted]
        self.stat_evictions += ev_owner.shape[0]
        self.stat_writebacks += int(np.count_nonzero(writeback))
        self._occ_update(new_owner, k, ev_owner)
        return fslot

    def _occ_update(self, filled_owners, n_filled, evicted_owners) -> None:
        occ = self._occ
        if not isinstance(filled_owners, np.ndarray):
            f0 = int(filled_owners)
            occ[f0] = occ.get(f0, 0) + n_filled
        elif n_filled:
            f0 = int(filled_owners[0])
            if bool((filled_owners == f0).all()):
                occ[f0] = occ.get(f0, 0) + n_filled
            else:
                for o, c in _owner_counts(filled_owners):
                    occ[o] = occ.get(o, 0) + c
        if evicted_owners.size:
            e0 = int(evicted_owners[0])
            if bool((evicted_owners == e0).all()):
                left = occ[e0] - evicted_owners.shape[0]
                if left:
                    occ[e0] = left
                else:
                    del occ[e0]
                return
            for o, c in _owner_counts(evicted_owners):
                left = occ[o] - c
                if left:
                    occ[o] = left
                else:
                    del occ[o]

    # ------------------------------------------------------------------
    # Per-access fills: the scalar reference and the array step
    # ------------------------------------------------------------------
    def _fill(self, index: int, tag: int, mask: int, *, write: bool,
              owner: int) -> AccessOutcome:
        allowed = _ways_of_mask(mask & self.geometry.full_mask)
        if not allowed:
            _raise_mask_error(mask)
        tags = self._tags[index]
        stamps = self._stamp[index]
        victim = -1
        victim_stamp = None
        for way in allowed:
            if tags[way] == EMPTY:
                victim = way
                break
            if victim_stamp is None or stamps[way] < victim_stamp:
                victim = way
                victim_stamp = stamps[way]
        # Occupancy and event bookkeeping.
        occ = self._occ
        outcome = MISS
        if tags[victim] != EMPTY:
            victim_owner = self._owner[index][victim]
            left = occ[victim_owner] - 1
            if left:
                occ[victim_owner] = left
            else:
                del occ[victim_owner]
            self.stat_evictions += 1
            if self._dirty[index][victim]:
                self.stat_writebacks += 1
                outcome = MISS_WRITEBACK
        occ[owner] = occ.get(owner, 0) + 1
        self.stat_fills += 1
        tags[victim] = tag
        stamps[victim] = self._clock
        self._dirty[index][victim] = write
        self._owner[index][victim] = owner
        return outcome

    def _step(self, row: int, tag: int, word: int, mask: int, owner: int,
              allocate: bool) -> AccessOutcome:
        """One access to set ``row`` on the array planes.

        ``word`` is the access's fill word ``stamp << 1 | write``; a hit
        writes it with the line's dirty bit kept.  A miss that allocates
        fills the first invalid way ``mask`` allows, else its oldest
        (meta words order valid lines exactly as their stamps do).  The
        write is journaled while a snapshot is armed.  :meth:`access`
        and the batch engine's per-access remainder both run on it.
        """
        tags = self._tags[row].tolist()
        journal = self._journal
        try:
            way = tags.index(tag)
        except ValueError:
            way = -1
        if way >= 0:
            slot = row * self._nways + way
            pre = int(self._meta_flat[slot])
            new = word | (pre & 1)
            if journal is not None:
                journal.append((_J_META, slot, pre, new))
            self._meta_flat[slot] = new
            return HIT
        if not allocate:
            return MISS
        allowed = _ways_of_mask(mask & self.geometry.full_mask)
        if not allowed:
            _raise_mask_error(mask)
        words = self._meta[row].tolist()
        victim = -1
        victim_word = None
        for w in allowed:
            if tags[w] == EMPTY:
                victim = w
                break
            if victim_word is None or words[w] < victim_word:
                victim = w
                victim_word = words[w]
        slot = row * self._nways + victim
        pre_tag = tags[victim]
        pre = words[victim]
        pre_owner = int(self._owner_flat[slot])
        if journal is not None:
            journal.append((_J_FILL, slot, pre_tag, pre, pre_owner, word))
        self._tags_flat[slot] = tag
        self._meta_flat[slot] = word
        self._owner_flat[slot] = owner
        # Occupancy and event bookkeeping.
        occ = self._occ
        outcome = MISS
        if pre_tag != EMPTY:
            left = occ[pre_owner] - 1
            if left:
                occ[pre_owner] = left
            else:
                del occ[pre_owner]
            self.stat_evictions += 1
            if pre & 1:
                self.stat_writebacks += 1
                outcome = MISS_WRITEBACK
        occ[owner] = occ.get(owner, 0) + 1
        self.stat_fills += 1
        return outcome

    # ------------------------------------------------------------------
    # Introspection (tests, Fig. 11 timeline, debugging)
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        index, tag = self.geometry.frame_index(addr)
        if self.backend == "scalar":
            return tag in self._tags[index]
        return bool((self._tags[index] == tag).any())

    def way_of(self, addr: int) -> "int | None":
        index, tag = self.geometry.frame_index(addr)
        if self.backend == "scalar":
            tags = self._tags[index]
        else:
            tags = self._tags[index].tolist()
        try:
            return tags.index(tag)
        except ValueError:
            return None

    def occupancy_by_owner(self) -> "dict[int, int]":
        """Valid-line counts per owner id across the whole cache.

        O(owners): served from the incrementally maintained counters.
        """
        return dict(self._occ)

    def valid_lines(self) -> int:
        """Valid lines in the whole cache: the occupancy's sum."""
        return sum(self._occ.values())

    def stats(self) -> "dict[str, int]":
        """Cumulative event counters (identical on both backends).

        Counters survive :meth:`flush` — they describe the access
        history, not the current contents.  Consumers wanting a rate
        sample the deltas (see ``Simulation._trace_quantum``).
        """
        return {"fills": self.stat_fills,
                "evictions": self.stat_evictions,
                "writebacks": self.stat_writebacks,
                "ddio_hits": self.stat_ddio_hits,
                "ddio_misses": self.stat_ddio_misses}

    def flush(self) -> None:
        """Invalidate every line (no writeback accounting)."""
        if self._journal is not None:
            raise RuntimeError("flush() during an active snapshot")
        current_tracer().instant("llc", "flush",
                                 valid_lines=self.valid_lines())
        if self.backend == "scalar":
            nways = self.geometry.ways
            for index in range(len(self._tags)):
                self._tags[index] = [EMPTY] * nways
                self._dirty[index] = [False] * nways
        else:
            self._tags.fill(EMPTY)
            self._meta &= ~1        # clear dirty bits, keep stamps
        self._clock = 0
        self._occ = {}
