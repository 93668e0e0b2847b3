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
  implementation.  Fastest for one-at-a-time accesses.
* ``backend="array"``  — NumPy structure-of-arrays state with a
  vectorized :meth:`SlicedLLC.access_batch` engine that processes an
  entire address vector per call.  Outcomes are bit-identical to the
  scalar backend for the same access sequence (the equivalence suite in
  ``tests/test_llc_batch_equiv.py`` fuzzes this).

Batch ordering guarantee: ``access_batch`` behaves exactly as if its
addresses were issued one at a time in vector order.  Recency stamps are
pre-assigned from the batch position, and accesses mapping to the same
set are applied in vector order; accesses to different sets are
independent under LRU, so the engine may process them concurrently.
Under the ``"random"`` policy the replacement LCG is global state, so
batches degrade to an in-order loop to keep seed-for-seed equivalence.

The array backend additionally supports cheap speculation via a
copy-on-write journal: :meth:`SlicedLLC.snapshot` arms per-cell
pre-image logging at every mutation site, :meth:`SlicedLLC.rollback`
replays the journal in reverse and restores the scalar state
(clock/occupancy/cumulative stats/LCG), and :meth:`SlicedLLC.commit`
drops the journal.  The vectorized drains use this for optimistic
run-ahead chunk admission (execute a large chunk, roll back on budget
overshoot) — journal cost is proportional to the cells *touched*, not
to cache size.
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

#: ``victim_owner`` placeholder in batched outcomes when nothing was
#: evicted (owner ids are >= DDIO_OWNER, so this value never collides).
NO_VICTIM = -3

#: Large stamp sentinels for vectorized victim selection: invalid ways
#: sort below every real stamp, disallowed ways above.  Real stamps are
#: access counts and stay far below 2**62.
_STAMP_LO = -(1 << 62)
_STAMP_HI = 1 << 62

#: Batches smaller than this are processed with the per-access loop even
#: on the array backend — NumPy kernel-launch overhead dominates under it.
_VECTOR_MIN = 8

#: Followers left after the repeat collapse (those in mixed-tag sets, or
#: in sets whose first access missed without allocating) are applied
#: with the per-access loop when fewer than this, instead of rank rounds.
_SEQ_MAX = 24

#: A rank round over those mixed-set followers must cover at least this
#: many distinct sets to be worth a kernel launch; below it the whole
#: remainder drains through the per-access loop (a tiny round means a
#: few sets carry deep same-set chains, which would otherwise decay into
#: one near-empty round per chain link).
_ROUND_MIN = 12

#: Journal entry kinds: a recency/dirty update (hit path) or a full
#: cell replacement (fill path).  Entries store flat-slot pre-images.
_J_TOUCH = 0
_J_FILL = 1


@lru_cache(maxsize=4096)
def _ways_of_mask(mask: int) -> "tuple[int, ...]":
    """Way indices selected by a bitmask, cached per distinct mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class AccessOutcome:
    """Result of a single cache access.

    ``hit``          the line was present.
    ``fill``         a line was allocated (miss with allocation).
    ``evicted``      a valid line was displaced to make room.
    ``writeback``    the displaced line was dirty (memory write needed).
    ``victim_owner`` owner id of the displaced line (or ``None``).
    """

    hit: bool
    fill: bool = False
    evicted: bool = False
    writeback: bool = False
    victim_owner: "int | None" = None


#: Shared immutable outcomes for the two allocation-free cases (avoids a
#: dataclass allocation per access in the hot loops).
HIT = AccessOutcome(hit=True)
MISS = AccessOutcome(hit=False)


@dataclass
class BatchOutcome:
    """Struct-of-arrays result of one :meth:`SlicedLLC.access_batch`.

    Element ``i`` describes the outcome of address ``i`` of the batch,
    with the same meaning as the :class:`AccessOutcome` fields;
    ``victim_owner`` holds :data:`NO_VICTIM` where nothing was evicted.
    """

    hit: "np.ndarray"           # bool
    fill: "np.ndarray"          # bool
    evicted: "np.ndarray"       # bool
    writeback: "np.ndarray"     # bool
    victim_owner: "np.ndarray"  # int64, NO_VICTIM where not evicted
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
    def fills(self) -> int:
        return int(np.count_nonzero(self.fill))

    @property
    def evictions(self) -> int:
        return int(np.count_nonzero(self.evicted))

    @property
    def writebacks(self) -> int:
        return int(np.count_nonzero(self.writeback))

    def victim_owner_counts(self) -> "dict[int, int]":
        """Evicted-line counts per owner id (empty if no evictions)."""
        owners = self.victim_owner[self.evicted]
        if owners.size == 0:
            return {}
        vals, counts = np.unique(owners, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def outcome_at(self, i: int) -> AccessOutcome:
        """Element ``i`` as a scalar :class:`AccessOutcome` (tests)."""
        evicted = bool(self.evicted[i])
        return AccessOutcome(
            hit=bool(self.hit[i]), fill=bool(self.fill[i]), evicted=evicted,
            writeback=bool(self.writeback[i]),
            victim_owner=int(self.victim_owner[i]) if evicted else None)


def _empty_batch(n: int, index: "np.ndarray | None" = None) -> BatchOutcome:
    return BatchOutcome(hit=np.zeros(n, dtype=bool),
                        fill=np.zeros(n, dtype=bool),
                        evicted=np.zeros(n, dtype=bool),
                        writeback=np.zeros(n, dtype=bool),
                        victim_owner=np.full(n, NO_VICTIM, dtype=np.int64),
                        index=index)


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


def _owner_counts(owners: "np.ndarray"):
    """``(owner, count)`` pairs of an owner-id vector, ascending by id.

    Owner ids are never below :data:`DDIO_OWNER`, so shifting by it
    hands ``np.bincount`` the non-negative input it needs; a lower id
    would make it raise rather than corrupt the counts.
    """
    counts = np.bincount(owners - DDIO_OWNER)
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


class SlicedLLC:
    """Cacheline-accurate sliced LLC with per-way owner tracking.

    Owners are small integers identifying the agent (tenant id or
    ``DDIO_OWNER``) that allocated each line; they feed occupancy
    introspection (used by tests and the Fig. 11 timeline) and victim
    attribution.  Per-owner valid-line counts are maintained
    incrementally, so :meth:`occupancy_by_owner` and :meth:`valid_lines`
    are O(owners), not O(lines).

    ``policy`` selects the replacement policy within the permitted
    ways: ``"lru"`` (default, what the paper's analysis assumes) or
    ``"random"`` (a cheaper hardware policy, available for ablations —
    real Skylake LLCs use an adaptive policy between the two).

    ``backend`` selects the storage engine (see module docstring):
    ``"scalar"`` Python lists or ``"array"`` NumPy arrays with the
    vectorized batch path.
    """

    def __init__(self, geometry: CacheGeometry, *,
                 policy: str = "lru", seed: int = 11,
                 backend: str = "scalar") -> None:
        if policy not in ("lru", "random"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        if backend not in ("scalar", "array"):
            raise ValueError(f"unknown LLC backend {backend!r}")
        self.geometry = geometry
        self.policy = policy
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
            self._stamp = np.zeros((nsets, nways), dtype=np.int64)
            self._dirty = np.zeros((nsets, nways), dtype=bool)
            self._owner = np.zeros((nsets, nways), dtype=np.int64)
            self._way_range = np.arange(nways, dtype=np.int64)
            # Flat views over the (sets, ways) state: the batch engine
            # addresses cells as ``set * ways + way`` with single-index
            # fancy operations, which are cheaper than index pairs.
            self._nways = nways
            self._tags_flat = self._tags.reshape(-1)
            self._stamp_flat = self._stamp.reshape(-1)
            self._dirty_flat = self._dirty.reshape(-1)
            self._owner_flat = self._owner.reshape(-1)
            self._invalid_key = _STAMP_LO + self._way_range
            self._total_lines = nsets * nways
            # Per-mask cache of the (ways,) allowed-way row used by the
            # batch victim key (way masks are a handful of CLOS values).
            self._allowed_rows: "dict[int, np.ndarray]" = {}
            # Per-set scratch for the batch engine's sort-free
            # first-occurrence scatter (contents are never read beyond
            # the cells a batch writes, so no init needed).
            self._first_scratch = np.empty(nsets, dtype=np.int64)
        self._clock = 0
        # Cheap deterministic LCG for the random policy (avoids numpy
        # overhead in the per-access hot path).
        self._rand_state = seed or 1
        # Copy-on-write journal: None when inactive; a list of
        # (_J_TOUCH/_J_FILL, slots, pre-images...) entries while a
        # snapshot is armed.  Mutation sites append pre-images before
        # writing, so rollback replays them in reverse.
        self._journal: "list[tuple] | None" = None
        self._snap: "tuple | None" = None
        # Incremental occupancy accounting: owner id -> valid lines.
        self._occ: "dict[int, int]" = {}
        self._valid = 0
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
        self._snap = (self._clock, self._valid, dict(self._occ),
                      self.stat_fills, self.stat_evictions,
                      self.stat_writebacks, self.stat_ddio_hits,
                      self.stat_ddio_misses, self._rand_state)

    def rollback(self) -> None:
        """Restore the state captured by the active :meth:`snapshot`.

        Cell pre-images are replayed newest-first; duplicate slots in
        one entry are safe because every pre-image was read before any
        write of its site, so duplicates carry identical values.
        """
        journal = self._journal
        if journal is None:
            raise RuntimeError("rollback() without an active snapshot")
        tags = self._tags_flat
        stamps = self._stamp_flat
        dirty = self._dirty_flat
        owner = self._owner_flat
        for entry in reversed(journal):
            if entry[0] == _J_TOUCH:
                _, slots, spre, dpre = entry
                stamps[slots] = spre
                dirty[slots] = dpre
            else:
                _, slots, tpre, spre, dpre, opre = entry
                tags[slots] = tpre
                stamps[slots] = spre
                dirty[slots] = dpre
                owner[slots] = opre
        (self._clock, self._valid, occ, self.stat_fills,
         self.stat_evictions, self.stat_writebacks, self.stat_ddio_hits,
         self.stat_ddio_misses, self._rand_state) = self._snap
        self._occ = occ
        self._journal = None
        self._snap = None

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
        (used for device reads).
        """
        index, tag = self.geometry.frame_index(addr)
        self._clock += 1
        if self.backend == "scalar":
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
        else:
            tags = self._tags[index].tolist()
            try:
                way = tags.index(tag)
            except ValueError:
                way = -1
            if way >= 0:
                journal = self._journal
                if journal is not None:
                    slot = index * self._nways + way
                    journal.append((_J_TOUCH, slot,
                                    int(self._stamp_flat[slot]),
                                    bool(self._dirty_flat[slot])))
                self._stamp[index, way] = self._clock
                if write:
                    self._dirty[index, way] = True
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
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        n = addrs.shape[0]
        if n == 0:
            return _empty_batch(0)
        if (self.backend == "array" and self.policy == "lru"
                and n >= _VECTOR_MIN):
            return self._access_batch_vector(addrs, mask, write, owner,
                                             allocate)
        return self._access_batch_loop(addrs, mask, write, owner, allocate)

    def ddio_write_batch(self, addrs, ddio_mask: int) -> BatchOutcome:
        """Batched :meth:`ddio_write` over an address vector."""
        out = self.access_batch(addrs, ddio_mask, write=True,
                                owner=DDIO_OWNER)
        hits = out.hits
        self.stat_ddio_hits += hits
        self.stat_ddio_misses += len(out) - hits
        return out

    def device_read_batch(self, addrs) -> BatchOutcome:
        """Batched :meth:`device_read` over an address vector."""
        return self.access_batch(addrs, 0, allocate=False)

    def _access_batch_loop(self, addrs, mask, write, owner,
                           allocate) -> BatchOutcome:
        """Reference batch path: per-access loop in vector order."""
        n = addrs.shape[0]
        out = _empty_batch(n)
        mask = _element_list(mask, n, np.int64)
        write = _element_list(write, n, bool)
        owner = _element_list(owner, n, np.int64)
        allocate = _element_list(allocate, n, bool)
        hit = out.hit
        fill = out.fill
        evicted = out.evicted
        writeback = out.writeback
        victim_owner = out.victim_owner
        for i, addr in enumerate(addrs.tolist()):
            o = self.access(addr, mask[i], write=write[i], owner=owner[i],
                            allocate=allocate[i])
            if o.hit:
                hit[i] = True
            elif o.fill:
                fill[i] = True
                if o.evicted:
                    evicted[i] = True
                    victim_owner[i] = o.victim_owner
                    if o.writeback:
                        writeback[i] = True
        return out

    def _access_batch_vector(self, addrs, mask, write, owner,
                             allocate) -> BatchOutcome:
        """Vectorized set-grouped batch engine (array backend, LRU).

        A bulk all-miss batch is resolved in closed form by
        :meth:`_access_bulk`; every other batch takes the first-touch
        round, the repeat collapse and the rank rounds below.
        """
        n = addrs.shape[0]
        geom = self.geometry
        index, tag = geom.frame_index_batch(addrs)
        if n >= geom.total_sets:
            out = self._access_bulk(index, tag, mask, write, owner,
                                    allocate)
            if out is not None:
                return out
        clk0 = self._clock
        self._clock = clk0 + n
        clk = np.arange(clk0 + 1, clk0 + n + 1, dtype=np.int64)
        mask = _scalar_or_array(mask, n, np.int64)
        write = _scalar_or_array(write, n, bool)
        owner = _scalar_or_array(owner, n, np.int64)
        allocate = _scalar_or_array(allocate, n, bool)
        out = _empty_batch(n, index)
        args = (tag, clk, mask & geom.full_mask, mask, write, owner,
                allocate, out)

        # Group by set, without sorting: scatter each access's batch
        # position into a per-set cell in *reverse* batch order — fancy
        # assignment keeps the last value written per repeated index,
        # so after the reversed pass each touched cell holds its set's
        # earliest position.  An access is its set's first touch iff
        # the cell holds its own position.  First touches are distinct
        # sets, hence one conflict-free round and the batch's only tag
        # lookup per set; followers apply afterwards, so same-set
        # accesses land in vector order (cross-set order is irrelevant
        # under LRU because the pre-assigned clocks encode batch
        # position).
        pos = np.arange(n, dtype=np.int64)
        fpos = self._first_scratch
        fpos[index[::-1]] = pos[::-1]
        fsel = fpos[index]
        first = fsel == pos
        if first.all():
            self._apply_round(None, index, *args)
            return out
        sel0 = np.flatnonzero(first)
        rows0 = index[sel0]
        slot0 = self._apply_round(sel0, rows0, *args)

        # Collapse guaranteed repeats.  A follower is a hit on its first
        # access's slot when that access left the line resident (hit or
        # fill) and no other tag touches the set in this batch: only a
        # fill of another tag could evict the line.  The scratch cells
        # are rewritten to each set's resident slot, with -1 marking a
        # non-allocating first miss or a mixed-tag set; those followers
        # go through the rank rounds below.  Collapsed repeats need no
        # journal entry: they only restamp (and maybe dirty) a slot the
        # first access already journaled, and rollback replays
        # newest-first, so that older entry restores the slot last.
        rest = np.flatnonzero(~first)
        rrow = index[rest]
        fpos[rows0] = slot0
        mixed = tag[rest] != tag[fsel[rest]]
        if mixed.any():
            fpos[rrow[mixed]] = -1
        slot = fpos[rrow]
        rep = slot >= 0
        if rep.all():
            rep_sel, rest = rest, rest[:0]
        else:
            rep_sel, slot = rest[rep], slot[rep]
            keep = ~rep
            rest, rrow = rest[keep], rrow[keep]
        # Duplicate slots take the latest stamp via last-wins fancy
        # assignment, exactly what the scalar loop would leave.
        self._stamp_flat[slot] = clk[rep_sel]
        self._set_dirty(slot, _pick(write, rep_sel))
        out.hit[rep_sel] = True
        if rest.size < _SEQ_MAX:
            self._apply_sequential(rest.tolist(), index, *args)
            return out
        # Mixed-tag collision load: rank rounds over the remainder only
        # (entries with rank r are the (r+2)-th access to their set).
        # Once the remainder shrinks below the vectorization payoff —
        # or a round itself is too small to amortize a kernel launch —
        # the rest is applied one access at a time in its set-major,
        # batch-position order, which preserves per-set access order.
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
                self._apply_sequential(rest.tolist(), index, *args)
                break
            head = rank == r
            sel = rest[head]
            if sel.shape[0] < _ROUND_MIN:
                # A tiny round means a few sets carry long chains: the
                # whole remainder drains faster access-at-a-time than
                # as dozens of near-empty vectorized rounds.
                self._apply_sequential(rest.tolist(), index, *args)
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
        fails it returns ``None``, having changed nothing.

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
        if (_scalar_or_array(allocate, n, bool) is not True
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
                        self._stamp_flat[cells])
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
        pre_tag = self._tags_flat[cells]
        pre_dirty = self._dirty_flat[cells]
        pre_owner = self._owner_flat[cells]
        if self._journal is not None:
            # The used cells are exactly the cells the batch writes.
            self._journal.append((_J_FILL, cells, pre_tag,
                                  self._stamp_flat[cells], pre_dirty,
                                  pre_owner))
        out = _empty_batch(n, index)
        out.fill[:] = True
        pre_valid = pre_tag != EMPTY
        ev_owner = pre_owner[pre_valid]
        at = perm[first]
        del first
        out.evicted[at] = pre_valid
        out.writeback[at] = pre_dirty & pre_valid
        out.victim_owner[at[pre_valid]] = ev_owner
        del pre_tag, pre_dirty, pre_owner, pre_valid
        prev = np.flatnonzero(si[w:] == si[:-w])
        del si
        at = perm[prev + w]
        prev = perm[prev]
        out.evicted[at] = True
        out.writeback[at] = _pick(write, prev)
        out.victim_owner[at] = _pick(owner, prev)
        del prev

        # The last fills are the final state.
        at = perm[last]
        del perm
        clk0 = self._clock
        self._clock = clk0 + n
        new_owner = _pick(owner, at)
        self._tags_flat[cells] = ts[last]
        self._stamp_flat[cells] = at + (clk0 + 1)
        self._dirty_flat[cells] = _pick(write, at)
        self._owner_flat[cells] = new_owner
        n_evicted = int(np.count_nonzero(out.evicted))
        self.stat_fills += n
        self.stat_evictions += n_evicted
        self.stat_writebacks += int(np.count_nonzero(out.writeback))
        self._valid += n - n_evicted
        # Fills evicted within the batch cancel out: what stays is the
        # final residents in, the evicted pre-batch lines out.
        self._occ_update(new_owner, cells.shape[0], ev_owner)
        return out

    def _set_dirty(self, slot, write) -> None:
        """Mark ``slot`` cells dirty where ``write`` (scalar-aware)."""
        if isinstance(write, np.ndarray):
            if write.any():
                self._dirty_flat[slot[write]] = True
        elif write:
            self._dirty_flat[slot] = True

    def _apply_sequential(self, sel, index, tag, clk, alloc_mask, raw_mask,
                          write, owner, allocate, out) -> None:
        """Apply the set-colliding remainder of a batch in order (LRU)."""
        tags_m = self._tags
        stamp_m = self._stamp
        dirty_m = self._dirty
        owner_m = self._owner
        occ = self._occ
        journal = self._journal
        ways = self._nways
        for i in sel:
            row = int(index[i])
            tg = int(tag[i])
            row_tags = tags_m[row].tolist()
            try:
                way = row_tags.index(tg)
            except ValueError:
                way = -1
            if way >= 0:
                if journal is not None:
                    journal.append((_J_TOUCH, row * ways + way,
                                    int(stamp_m[row, way]),
                                    bool(dirty_m[row, way])))
                stamp_m[row, way] = clk[i]
                if _pick(write, i):
                    dirty_m[row, way] = True
                out.hit[i] = True
                continue
            if not _pick(allocate, i):
                continue
            m = int(_pick(alloc_mask, i))
            if m == 0:
                if int(_pick(raw_mask, i)) == 0:
                    raise ValueError("cannot allocate with an empty way mask")
                raise ValueError("way mask selects no ways within geometry")
            allowed = _ways_of_mask(m)
            stamps = stamp_m[row].tolist()
            victim = -1
            victim_stamp = None
            for w in allowed:
                if row_tags[w] == EMPTY:
                    victim = w
                    victim_stamp = None
                    break
                if victim_stamp is None or stamps[w] < victim_stamp:
                    victim = w
                    victim_stamp = stamps[w]
            evicted = row_tags[victim] != EMPTY
            new_owner = int(_pick(owner, i))
            out.fill[i] = True
            self.stat_fills += 1
            if evicted:
                out.evicted[i] = True
                self.stat_evictions += 1
                victim_owner = int(owner_m[row, victim])
                out.victim_owner[i] = victim_owner
                if dirty_m[row, victim]:
                    out.writeback[i] = True
                    self.stat_writebacks += 1
                left = occ[victim_owner] - 1
                if left:
                    occ[victim_owner] = left
                else:
                    del occ[victim_owner]
            else:
                self._valid += 1
            occ[new_owner] = occ.get(new_owner, 0) + 1
            if journal is not None:
                journal.append((_J_FILL, row * ways + victim,
                                row_tags[victim], stamps[victim],
                                bool(dirty_m[row, victim]),
                                int(owner_m[row, victim])))
            tags_m[row, victim] = tg
            stamp_m[row, victim] = clk[i]
            dirty_m[row, victim] = bool(_pick(write, i))
            owner_m[row, victim] = new_owner

    def _apply_round(self, sel, rows, tag, clk, alloc_mask, raw_mask,
                     write, owner, allocate, out) -> "np.ndarray":
        """Look up and apply one conflict-free (distinct-set) group.

        ``sel`` holds the group's batch positions (``None`` meaning the
        whole batch in position order) and ``rows`` their set indices.
        One ``np.take`` gathers the group's tag rows from current state;
        the sets are distinct and a hit never changes a tag, so the
        miss path's victim scan reuses them.  Stamp rows are gathered
        for the group's *misses* only, and only under a wide way mask.

        Returns the flat slot (``set * ways + way``) each access
        resolved to — the way it hit, or the victim it filled — and -1
        where a miss did not allocate.
        """
        ways = self._nways
        m = rows.shape[0]
        journal = self._journal
        row_tags = np.take(self._tags, rows, axis=0)
        # A line sits in at most one way of its set, so the compare's
        # nonzeros are exactly the hits, one per hitting row, in group
        # order: ``hit_flat`` is ``hit_at * ways + way``.
        hit_flat = np.flatnonzero(
            row_tags == (tag if sel is None else tag[sel])[:, None])
        hit_at = hit_flat // ways
        nhit = hit_at.shape[0]
        if nhit:
            if nhit == m:
                hit_sel = sel
                slot = (rows - hit_at) * ways + hit_flat
            else:
                hit_sel = hit_at if sel is None else sel[hit_at]
                slot = (rows[hit_at] - hit_at) * ways + hit_flat
            if journal is not None:
                journal.append((_J_TOUCH, slot, self._stamp_flat[slot],
                                self._dirty_flat[slot]))
            if hit_sel is None:
                self._stamp_flat[slot] = clk
                self._set_dirty(slot, write)
                out.hit[:] = True
            else:
                self._stamp_flat[slot] = clk[hit_sel]
                self._set_dirty(slot, _pick(write, hit_sel))
                out.hit[hit_sel] = True
            if nhit == m:
                return slot
        slots = np.full(m, -1, dtype=np.int64)
        miss = np.ones(m, dtype=bool)
        if nhit:
            slots[hit_at] = slot
            miss[hit_at] = False
        if isinstance(allocate, np.ndarray):
            miss &= allocate if sel is None else allocate[sel]
        elif not allocate:
            return slots
        miss_sel = np.flatnonzero(miss) if sel is None else sel[miss]
        k = miss_sel.shape[0]
        if k == 0:
            return slots
        miss_rows = rows if k == m else rows[miss]
        amask = _pick(alloc_mask, miss_sel)
        if isinstance(amask, np.ndarray):
            a0 = amask[0]
            uniform = bool((amask == a0).all())
        else:
            a0 = amask
            uniform = True
        if uniform:
            a0 = int(a0)
            if a0 == 0:
                self._raise_mask_error(_pick(raw_mask, miss_sel))
            # (ways,)-shaped row; ufunc broadcasting against the
            # (k, ways) stamps below is free.
            cached = self._allowed_rows.get(a0)
            if cached is None:
                allowed = (a0 >> self._way_range) & 1 != 0
                # Disallowed ways as an OR-able sentinel row: stamps are
                # non-negative, so ``stamp | _STAMP_HI`` always exceeds
                # every allowed key (which stays below the sentinel bit).
                cached = (allowed, np.where(allowed, 0, _STAMP_HI),
                          tuple(int(w) for w in np.flatnonzero(allowed)))
                self._allowed_rows[a0] = cached
            allowed, dis_row, aw = cached
        else:
            allowed = (amask[:, None] >> self._way_range) & 1 != 0
            dis_row = aw = None
            if not allowed.any(axis=1).all():
                self._raise_mask_error(_pick(raw_mask, miss_sel))
        # Victim selection: invalid allowed ways sort first (lowest way
        # index wins), then LRU stamp among allowed ways; first-match
        # tie-breaks mirror the scalar scan order.  Narrow uniform masks
        # (e.g. the two DDIO ways) scan their allowed columns with flat
        # 1-D gathers — short-axis ``argmin`` over (k, ways) costs far
        # more than a handful of length-k passes, and the per-way tag
        # and stamp rows are never materialized.  Wide masks build the
        # per-way key and let ``argmin`` pick; a full cache (no invalid
        # ways anywhere) skips the tag comparison entirely.
        full = self._valid == self._total_lines
        base = miss_rows * ways
        tags_flat = self._tags_flat
        if aw is not None and len(aw) <= 4:
            stamp_flat = self._stamp_flat
            w = aw[0]
            fslot = base + w
            if full:
                best = stamp_flat[fslot]
                for w in aw[1:]:
                    col = base + w
                    cand = stamp_flat[col]
                    better = cand < best
                    best = np.where(better, cand, best)
                    fslot = np.where(better, col, fslot)
            else:
                best = np.where(tags_flat[fslot] == EMPTY,
                                _STAMP_LO + w, stamp_flat[fslot])
                for w in aw[1:]:
                    col = base + w
                    cand = np.where(tags_flat[col] == EMPTY,
                                    _STAMP_LO + w, stamp_flat[col])
                    better = cand < best
                    best = np.where(better, cand, best)
                    fslot = np.where(better, col, fslot)
        else:
            stamps = np.take(self._stamp, miss_rows, axis=0)
            if full:
                key = stamps | dis_row if dis_row is not None else \
                    np.where(allowed, stamps, _STAMP_HI)
            else:
                mtags = row_tags if k == m else row_tags[miss]
                key = np.where(mtags == EMPTY, self._invalid_key, stamps)
                if aw is None or len(aw) != ways:
                    # Partial mask: push disallowed ways past every
                    # valid key (the key can be negative, so the OR
                    # trick does not apply here).
                    key = np.where(allowed, key, _STAMP_HI)
            fslot = base + key.argmin(axis=1)
        if k == m:
            slots = fslot
        else:
            slots[miss] = fslot
        dirty_flat = self._dirty_flat
        dirty_pre = dirty_flat[fslot]
        victim_owner = self._owner_flat[fslot]
        new_owner = _pick(owner, miss_sel)
        if journal is not None or not full:
            victim_tags = tags_flat[fslot]
        if journal is not None:
            # Flat-slot gathers of the pre-write state (written below).
            journal.append((_J_FILL, fslot, victim_tags,
                            self._stamp_flat[fslot], dirty_pre,
                            victim_owner))
        if not full:
            evicted = victim_tags != EMPTY
        tags_flat[fslot] = tag[miss_sel]
        self._stamp_flat[fslot] = clk[miss_sel]
        dirty_flat[fslot] = _pick(write, miss_sel)
        self._owner_flat[fslot] = new_owner
        out.fill[miss_sel] = True
        self.stat_fills += k
        if full:
            # Every fill evicts: no per-element valid/evicted masking.
            out.evicted[miss_sel] = True
            out.writeback[miss_sel] = dirty_pre
            out.victim_owner[miss_sel] = victim_owner
            self.stat_evictions += k
            self.stat_writebacks += int(np.count_nonzero(dirty_pre))
            self._occ_update(new_owner, k, victim_owner)
            return slots
        writeback = evicted & dirty_pre
        out.evicted[miss_sel] = evicted
        out.writeback[miss_sel] = writeback
        ev_owner = victim_owner[evicted]
        out.victim_owner[miss_sel[evicted]] = ev_owner
        n_evicted = int(np.count_nonzero(evicted))
        self.stat_evictions += n_evicted
        self.stat_writebacks += int(np.count_nonzero(writeback))
        # Occupancy bookkeeping.
        self._valid += k - n_evicted
        self._occ_update(new_owner, k, ev_owner)
        return slots

    def _raise_mask_error(self, raw_masks) -> None:
        empty = (bool((raw_masks == 0).any())
                 if isinstance(raw_masks, np.ndarray) else raw_masks == 0)
        if empty:
            raise ValueError("cannot allocate with an empty way mask")
        raise ValueError("way mask selects no ways within geometry")

    def _occ_update(self, filled_owners, n_filled, evicted_owners) -> None:
        occ = self._occ
        if not isinstance(filled_owners, np.ndarray):
            f0 = int(filled_owners)
            occ[f0] = occ.get(f0, 0) + n_filled
        else:
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
    # Fill / eviction
    # ------------------------------------------------------------------
    def _fill(self, index: int, tag: int, mask: int, *, write: bool,
              owner: int) -> AccessOutcome:
        if mask == 0:
            raise ValueError("cannot allocate with an empty way mask")
        allowed = _ways_of_mask(mask & self.geometry.full_mask)
        if not allowed:
            raise ValueError("way mask selects no ways within geometry")
        scalar = self.backend == "scalar"
        if scalar:
            tags = self._tags[index]
            stamps = self._stamp[index]
        else:
            tags = self._tags[index].tolist()
            stamps = self._stamp[index].tolist()
        victim = -1
        victim_stamp = None
        for way in allowed:
            if tags[way] == EMPTY:
                victim = way
                victim_stamp = None
                break
            if victim_stamp is None or stamps[way] < victim_stamp:
                victim = way
                victim_stamp = stamps[way]
        if victim_stamp is not None and self.policy == "random":
            # No invalid way: pick uniformly among the permitted ways.
            # Use the LCG's high bits — its low bits cycle with a tiny
            # period and would degenerate into round-robin.
            self._rand_state = (self._rand_state * 1103515245 + 12345) \
                & 0x7FFFFFFF
            victim = allowed[(self._rand_state >> 16) % len(allowed)]
        evicted = tags[victim] != EMPTY
        if scalar:
            writeback = evicted and self._dirty[index][victim]
            victim_owner = self._owner[index][victim] if evicted else None
            tags[victim] = tag
            stamps[victim] = self._clock
            self._dirty[index][victim] = write
            self._owner[index][victim] = owner
        else:
            writeback = evicted and bool(self._dirty[index, victim])
            victim_owner = int(self._owner[index, victim]) if evicted \
                else None
            journal = self._journal
            if journal is not None:
                journal.append((_J_FILL, index * self._nways + victim,
                                tags[victim], stamps[victim],
                                bool(self._dirty[index, victim]),
                                int(self._owner[index, victim])))
            self._tags[index, victim] = tag
            self._stamp[index, victim] = self._clock
            self._dirty[index, victim] = write
            self._owner[index, victim] = owner
        # Occupancy bookkeeping.
        if evicted:
            left = self._occ[victim_owner] - 1
            if left:
                self._occ[victim_owner] = left
            else:
                del self._occ[victim_owner]
        else:
            self._valid += 1
        self._occ[owner] = self._occ.get(owner, 0) + 1
        self.stat_fills += 1
        if evicted:
            self.stat_evictions += 1
            if writeback:
                self.stat_writebacks += 1
        return AccessOutcome(hit=False, fill=True, evicted=evicted,
                             writeback=writeback, victim_owner=victim_owner)

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
        return self._valid

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
        current_tracer().instant("llc", "flush", valid_lines=self._valid)
        if self.backend == "scalar":
            nways = self.geometry.ways
            for index in range(len(self._tags)):
                self._tags[index] = [EMPTY] * nways
                self._dirty[index] = [False] * nways
        else:
            self._tags.fill(EMPTY)
            self._dirty.fill(False)
        self._clock = 0
        self._occ = {}
        self._valid = 0
