"""Copy-on-write rollback correctness for speculative chunk admission.

The run-ahead engine (:meth:`repro.workloads.base.Workload._run_ahead`,
shared by the ring, RocksDB and X-Mem drains) admits chunks on
*predicted* cost and cuts any overshooting chunk back to its admitted
prefix with the LLC's copy-on-write journal and the port's last-batch
record; a ring drain applies its rings, EMC and virtio posts only for
the admitted prefix, afterwards.
These tests attack that machinery from four sides:

* **journal fuzz** — randomized mixed mutation streams against
  :class:`~repro.cache.llc.SlicedLLC` between ``snapshot()`` and
  ``rollback()``, asserting the full structure-of-arrays state (tags,
  LRU stamps, dirty bits, owners), the occupancy accounting and every
  cumulative stat counter come back bit-exact;
* **cut twins** — ``rollback(keep=c)`` of the LLC and the cut of a
  core port, and a kept prefix of a chunk's ring posts, ring consumes
  and EMC lookups, must each equal a twin that only ever ran the
  accesses, packets or lookups up to the cut;
* **commit twin** — the journal must be *pure overhead*: a committed
  speculative run ends in the same state as an unjournaled twin;
* **forced mispredictions** — end-to-end runs with
  ``SPEC_HEADROOM`` cranked up so the run-ahead engine overshoots its
  quantum budget constantly (the pathological spiky-cost case: an
  X-Mem thrasher beside the I/O app, plus the fig. 8 OVS chain, also
  behind virtio rings small enough to drop), then field-for-field
  record equality against the scalar reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache.llc import DDIO_OWNER, EMPTY, CacheGeometry, SlicedLLC
from repro.core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from repro.experiments import common
from repro.experiments.common import leaky_dma_scenario
from repro.net.traffic import TrafficSpec
from repro.pci.ring import DescRing
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.vswitch.flowtable import FlowTables
from repro.vswitch.ovs import OvsDataplane
from repro.workloads import base
from repro.workloads.base import ENGINE_STATS, VectorPlan, Workload
from repro.workloads.netbase import _Backlog
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem

ARRAY_TINY = dataclasses.replace(TINY_PLATFORM, llc_backend="array")

GEOMETRY = CacheGeometry(ways=4, sets_per_slice=32, slices=2)


# ---------------------------------------------------------------------------
# LLC journal: fuzzed snapshot/rollback roundtrips
# ---------------------------------------------------------------------------
def _recount(llc: SlicedLLC) -> "tuple[int, dict]":
    """Valid lines recounted from the tag plane, and occupancy per owner
    from the owner plane."""
    valid = llc._tags != EMPTY
    owners, counts = np.unique(llc._owner[valid], return_counts=True)
    return (int(np.count_nonzero(valid)),
            dict(zip(owners.tolist(), counts.tolist())))


def _llc_state(llc: SlicedLLC) -> tuple:
    """A deep copy of everything rollback promises to restore.

    Stamps and dirty bits are read from the meta words,
    ``stamp << 1 | dirty``.  The cache's own valid-line and occupancy
    counts must equal their recounts from the planes.
    """
    valid, occ = _recount(llc)
    assert (llc.valid_lines(), llc.occupancy_by_owner()) == (valid, occ)
    return (llc._tags.copy(), llc._meta >> 1, llc._meta & 1,
            llc._owner.copy(), llc._clock, valid, occ,
            llc.stat_fills, llc.stat_evictions, llc.stat_writebacks,
            llc.stat_ddio_hits, llc.stat_ddio_misses)


def _assert_state_equal(a: tuple, b: tuple) -> None:
    names = ("tags", "stamp", "dirty", "owner", "clock", "valid", "occ",
             "fills", "evictions", "writebacks", "ddio_hits",
             "ddio_misses")
    for name, xa, xb in zip(names, a, b):
        if isinstance(xa, np.ndarray):
            assert np.array_equal(xa, xb), f"LLC {name} diverged"
        else:
            assert xa == xb, f"LLC {name} diverged: {xa} != {xb}"


def _mutate(llc: SlicedLLC, rng: np.random.Generator) -> None:
    """One random mutation step mixing every journaled entry point."""
    nlines = GEOMETRY.lines
    kind = rng.integers(0, 6)
    n = int(rng.integers(1, 160))
    # Tight address pool so hits, refills and evictions all happen.
    addrs = rng.integers(0, nlines * 3, size=n) * 64
    full = (1 << GEOMETRY.ways) - 1
    if kind == 0:
        mask = int(rng.integers(1, full + 1))
        llc.access_batch(addrs, mask, write=bool(rng.integers(0, 2)),
                         owner=int(rng.integers(0, 4)))
    elif kind == 1:
        # Per-element masks/owners/write flags force the sequential path.
        llc.access_batch(addrs, rng.integers(1, full + 1, size=n),
                         write=rng.integers(0, 2, size=n).astype(bool),
                         owner=rng.integers(0, 4, size=n))
    elif kind == 2:
        llc.ddio_write_batch(addrs, int(rng.integers(1, full + 1)))
    elif kind == 3:
        llc.device_read_batch(addrs)
    elif kind == 4:
        for addr in addrs[:16]:
            llc.access(int(addr), full, write=bool(rng.integers(0, 2)),
                       owner=int(rng.integers(0, 4)))
    else:
        # One batch that re-reads its own lines as device reads (the Tx
        # shape): the repeats collapse onto their first access's slot
        # and journal a repeat entry.
        core = np.arange(2 * n) < n
        llc.access_batch(np.concatenate([addrs, addrs]),
                         int(rng.integers(1, full + 1)),
                         write=core & rng.integers(0, 2, size=2 * n)
                         .astype(bool),
                         owner=int(rng.integers(0, 4)), allocate=core)


class TestLLCJournal:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_rollback_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        llc = SlicedLLC(GEOMETRY, backend="array")
        for _ in range(4):  # warm to a non-trivial mixed-owner state
            _mutate(llc, rng)
        before = _llc_state(llc)
        llc.snapshot()
        for _ in range(int(rng.integers(1, 6))):
            _mutate(llc, rng)
        llc.rollback()
        _assert_state_equal(_llc_state(llc), before)
        # The journal is gone: state keeps evolving normally afterwards.
        _mutate(llc, rng)

    def test_commit_matches_unjournaled_twin(self):
        """Journaling must not perturb outcomes: snapshot+commit lands in
        exactly the state an unjournaled twin reaches."""
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        a = SlicedLLC(GEOMETRY, backend="array")
        b = SlicedLLC(GEOMETRY, backend="array")
        _mutate(a, rng_a)
        _mutate(b, rng_b)
        a.snapshot()
        for _ in range(4):
            _mutate(a, rng_a)
        a.commit()
        for _ in range(4):
            _mutate(b, rng_b)
        _assert_state_equal(_llc_state(a), _llc_state(b))

    def test_rollback_then_replay_equals_plain_run(self):
        """Execute, roll back whole, replay a prefix: the end state
        must match never having speculated."""
        rng = np.random.default_rng(9)
        addrs = rng.integers(0, GEOMETRY.lines * 2, size=200) * 64
        full = (1 << GEOMETRY.ways) - 1
        spec = SlicedLLC(GEOMETRY, backend="array")
        plain = SlicedLLC(GEOMETRY, backend="array")
        spec.access_batch(addrs[:50], full)
        plain.access_batch(addrs[:50], full)
        spec.snapshot()
        spec.access_batch(addrs[50:], full, write=True, owner=1)
        spec.rollback()
        spec.access_batch(addrs[50:120], full, write=True, owner=1)
        plain.access_batch(addrs[50:120], full, write=True, owner=1)
        _assert_state_equal(_llc_state(spec), _llc_state(plain))

    def test_snapshot_guards(self):
        llc = SlicedLLC(GEOMETRY, backend="array")
        assert llc.can_snapshot
        llc.snapshot()
        with pytest.raises(RuntimeError):
            llc.snapshot()
        with pytest.raises(RuntimeError):
            llc.flush()
        llc.commit()
        with pytest.raises(RuntimeError):
            llc.rollback()
        scalar = SlicedLLC(GEOMETRY, backend="scalar")
        assert not scalar.can_snapshot
        with pytest.raises(RuntimeError):
            scalar.snapshot()

    def test_ddio_counters_restored(self):
        llc = SlicedLLC(GEOMETRY, backend="array")
        llc.ddio_write_batch(np.arange(8, dtype=np.int64) * 64, 0b11)
        hits, misses = llc.stat_ddio_hits, llc.stat_ddio_misses
        llc.snapshot()
        llc.ddio_write_batch(np.arange(64, dtype=np.int64) * 64, 0b11)
        assert llc.stat_ddio_hits + llc.stat_ddio_misses > hits + misses
        llc.rollback()
        assert (llc.stat_ddio_hits, llc.stat_ddio_misses) == (hits, misses)
        assert llc.occupancy_by_owner() == {DDIO_OWNER: _recount(llc)[0]}


# ---------------------------------------------------------------------------
# LLC cut: rollback(keep=c) equals a twin that ran only accesses <= c
# ---------------------------------------------------------------------------
#: Eight ways, so way masks reach both victim scans: the narrow one over
#: at most four allowed ways and the wide one over more.
CUT_GEOMETRY = CacheGeometry(ways=8, sets_per_slice=16, slices=2)
CUT_MASKS = (0b1, 0b11, 0b111100, 0xFF)


def _cut_ops(rng: np.random.Generator, count: int) -> list:
    """``count`` random ops, each ``(kind, addrs, kwargs)``: a batch
    (``kwargs`` scalars or per-element arrays) or per-access calls."""
    ops = []
    for _ in range(count):
        kind = int(rng.integers(0, 6))
        n = int(rng.integers(8, 240))
        # A pool of three cache sizes over 32 sets: hits, fills and
        # evictions, and every set touched by several tags per batch,
        # deep enough for rank rounds and the per-access tail.
        addrs = rng.integers(0, CUT_GEOMETRY.lines * 3, size=n) * 64
        mask = int(rng.choice(CUT_MASKS))
        owner = int(rng.integers(0, 4))
        write = rng.integers(0, 2, size=n).astype(bool)
        if kind == 0:
            ops.append(("batch", addrs,
                        dict(mask=mask, write=write, owner=owner)))
        elif kind == 1:
            # Lines revisited within the batch: collapsed repeats with
            # a mixed write vector.
            again = np.concatenate([addrs, addrs[::-1]])
            ops.append(("batch", again, dict(
                mask=mask, write=rng.integers(0, 2, size=2 * n)
                .astype(bool), owner=owner)))
        elif kind == 2:
            # Per-element masks and owners.
            ops.append(("batch", addrs, dict(
                mask=rng.choice(CUT_MASKS, size=n),
                write=write, owner=rng.integers(0, 4, size=n))))
        elif kind == 3:
            # The Tx shape: the batch re-reads its own lines as device
            # reads, which never allocate.
            core = np.arange(2 * n) < n
            ops.append(("batch", np.concatenate([addrs, addrs]), dict(
                mask=mask, write=core & np.concatenate([write, write]),
                owner=owner, allocate=core)))
        elif kind == 4:
            ops.append(("batch", addrs,
                        dict(mask=0, write=False, allocate=False)))
        else:
            ops.append(("access", addrs[:12], dict(
                mask=mask, write=bool(write[0]), owner=owner,
                allocate=bool(rng.integers(0, 4)))))
    return ops


def _apply_cut_op(llc: SlicedLLC, op, limit: "int | None" = None) -> int:
    """Issue the op's first ``limit`` accesses (all by default); returns
    how many it issued."""
    kind, addrs, kwargs = op
    n = addrs.shape[0] if limit is None else min(limit, addrs.shape[0])
    if n <= 0:
        return 0
    if kind == "access":
        for addr in addrs[:n].tolist():
            llc.access(addr, **kwargs)
        return n
    llc.access_batch(addrs[:n], **{
        key: value[:n] if isinstance(value, np.ndarray) else value
        for key, value in kwargs.items()})
    return n


def _cut_llc(warm: str) -> SlicedLLC:
    llc = SlicedLLC(CUT_GEOMETRY, backend="array")
    if warm == "full":
        # Eight cache sizes of distinct lines, a quarter of them
        # written: every way valid, a dirty mix of owners.
        lines = np.arange(CUT_GEOMETRY.lines * 8, dtype=np.int64)
        llc.access_batch(lines * 64, 0xFF, write=lines % 4 == 0,
                         owner=lines % 3)
        assert llc.valid_lines() == CUT_GEOMETRY.lines
    return llc


def _speculate(llc: SlicedLLC, ops: list) -> int:
    """Arm a snapshot and issue ``ops`` under it; returns the snapshot's
    clock."""
    clock0 = llc.clock
    llc.snapshot()
    for op in ops:
        _apply_cut_op(llc, op)
    return clock0


class TestLLCCut:
    # LRU is the one replacement policy; it stays in the test ids.
    @pytest.mark.parametrize("policy", ["lru"])
    @pytest.mark.parametrize("warm", ["cold", "full"])
    @pytest.mark.parametrize("seed", range(12))
    def test_cut_equals_prefix_twin(self, seed, warm, policy):
        rng = np.random.default_rng(seed)
        ops = _cut_ops(rng, int(rng.integers(2, 6)))
        spec = _cut_llc(warm)
        twin = _cut_llc(warm)
        clock0 = _speculate(spec, ops)
        keep = int(rng.integers(clock0, spec.clock + 1))
        spec.rollback(keep=keep)
        left = keep - clock0
        for op in ops:
            left -= _apply_cut_op(twin, op, left)
        assert spec.occupancy_by_owner() == twin.occupancy_by_owner()
        assert spec.stats() == twin.stats()
        _assert_state_equal(_llc_state(spec), _llc_state(twin))
        # The journal is closed: the cut cache keeps evolving like its
        # twin.
        for op in ops[:1]:
            _apply_cut_op(spec, op)
            _apply_cut_op(twin, op)
        _assert_state_equal(_llc_state(spec), _llc_state(twin))

    @pytest.mark.parametrize("keep", [70, 111, 150, 172, 199])
    def test_cut_inside_collapsed_repeats(self, keep):
        """Cuts among a batch's collapsed repeats: a line's kept repeats
        stay applied (last stamp, any write's dirty bit), its undone
        ones go."""
        rng = np.random.default_rng(keep)
        lines = rng.choice(CUT_GEOMETRY.lines * 2, size=60,
                           replace=False) * 64
        addrs = np.concatenate([lines, lines[::-1], lines, lines[:20]])
        op = ("batch", addrs, dict(
            mask=0xFF, owner=2,
            write=rng.integers(0, 4, size=addrs.shape[0]) == 0))
        spec = _cut_llc("full")
        twin = _cut_llc("full")
        clock0 = _speculate(spec, [op])
        assert any(entry[0] == 1 for entry in spec._journal)
        spec.rollback(keep=clock0 + keep)
        _apply_cut_op(twin, op, keep)
        _assert_state_equal(_llc_state(spec), _llc_state(twin))

    @pytest.mark.parametrize("policy", ["lru"])
    def test_keep_at_snapshot_clock_is_rollback(self, policy):
        ops = _cut_ops(np.random.default_rng(5), 5)
        cut = _cut_llc("full")
        whole = _cut_llc("full")
        before = _llc_state(cut)
        clock0 = _speculate(cut, ops)
        cut.rollback(keep=clock0)
        _speculate(whole, ops)
        whole.rollback()
        _assert_state_equal(_llc_state(cut), _llc_state(whole))
        _assert_state_equal(_llc_state(cut), before)

    def test_fuzz_reaches_every_journal_path(self, monkeypatch):
        """The cut fuzz's streams journal early hits and collapsed
        repeats, rank rounds, per-access entries and both victim
        scans."""
        rounds = []
        real_round = SlicedLLC._apply_round

        def spy(self, sel, rows, *args):
            rounds.append(rows.shape[0])
            return real_round(self, sel, rows, *args)

        monkeypatch.setattr(SlicedLLC, "_apply_round", spy)
        kinds = set()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            llc = _cut_llc("full" if seed % 2 else "cold")
            llc.snapshot()
            for op in _cut_ops(rng, int(rng.integers(2, 6))):
                del rounds[:]
                _apply_cut_op(llc, op)
                if rounds:
                    kinds.add("rank round")
            for entry in llc._journal:
                kinds.add((entry[0], isinstance(entry[1], np.ndarray)))
            llc.commit()
        assert "rank round" in kinds
        assert {(0, True), (1, True), (2, True), (0, False),
                (2, False)} <= kinds

    def test_cut_guards(self):
        llc = _cut_llc("cold")
        llc.snapshot()
        llc.access_batch(np.arange(40, dtype=np.int64) * 64, 0xFF)
        with pytest.raises(ValueError):
            llc.rollback(keep=llc.clock + 1)
        llc.commit()
        # DDIO counters live outside the journal: only a whole rollback
        # may undo a DDIO write.
        clock0 = llc.clock
        llc.snapshot()
        llc.ddio_write_batch(np.arange(40, 80, dtype=np.int64) * 64, 0b11)
        with pytest.raises(RuntimeError):
            llc.rollback(keep=clock0 + 1)
        llc.rollback()
        assert llc.stat_ddio_hits + llc.stat_ddio_misses == 0


class TestCorePortCut:
    def test_cut_equals_prefix_twin(self):
        """A port cut at a packet slot leaves the LLC, the core's
        references and misses, and the memory controller's byte
        counters as a twin port that issued only the kept slots."""
        rng = np.random.default_rng(4)
        k = 40
        counts = rng.integers(1, 6, size=k)
        pkt = np.repeat(np.arange(k, dtype=np.int64), counts)
        n = pkt.shape[0]
        addrs = (1 << 24) + rng.integers(0, 4 * ARRAY_TINY.llc.lines,
                                          size=n) * 64
        write = rng.integers(0, 2, size=n).astype(bool)
        device = rng.integers(0, 4, size=n) == 0
        mlp_inv = np.where(device, 0.0, 0.5)
        ports = []
        for _ in range(2):
            platform = Platform(ARRAY_TINY)
            port = platform.core_port(0, 1)
            # A dirty, full cache: the batch's fills write back.
            warm = np.arange(4 * ARRAY_TINY.llc.lines, dtype=np.int64)
            port.access_batch(warm * 64, write=True)
            ports.append((platform, port))
        (p_spec, spec), (p_twin, twin) = ports
        cut = 23
        p_spec.llc.snapshot()
        spec.run_lines(addrs, write, mlp_inv, device, pkt, k)
        written = p_spec.mem.write_bytes
        spec.cut(cut)
        assert p_spec.mem.write_bytes < written, \
            "the cut suffix was expected to write back dirty lines"
        a = int(np.searchsorted(pkt, cut))
        twin.run_lines(addrs[:a], write[:a], mlp_inv[:a], device[:a],
                       pkt[:a], cut)

        def counters(platform, port):
            mem = platform.mem
            return (port.block.llc_references, port.block.llc_misses,
                    mem.read_bytes, mem.write_bytes, mem.end_window())

        assert counters(p_spec, spec) == counters(p_twin, twin)
        _assert_state_equal(_llc_state(p_spec.llc), _llc_state(p_twin.llc))


# ---------------------------------------------------------------------------
# Descriptor rings: a chunk plans its posts, then keeps a prefix
# ---------------------------------------------------------------------------
def _ring_fields(ring: DescRing) -> tuple:
    return (ring._head, ring._rd, ring._count, ring.enqueued,
            ring.dequeued, ring.dropped,
            tuple(map(tuple, ring.peek_batch())))


class TestRingCut:
    def _ring(self, queued: int) -> DescRing:
        ring = DescRing(32, base_addr=1 << 20)
        ring.post_batch(np.full(queued, 64), np.arange(queued),
                        np.arange(queued, dtype=float))
        ring.consume_batch(2)
        return ring

    @pytest.mark.parametrize("queued", [4, 27])
    @pytest.mark.parametrize("n", [0, 3, 11, 20])
    def test_post_cut_equals_prefix(self, queued, n):
        """A chunk reads a burst's buffer addresses with ``post_addrs``,
        which leaves the ring as it was and equals what ``post_batch``
        of the whole burst accepts, a prefix once the ring fills.
        Posting only the kept ``n`` packets then returns a prefix of
        those addresses and ends the ring as per-packet posts of the
        ``n`` do."""
        sizes = np.arange(20) + 64
        flows = np.arange(20) * 7
        arrivals = np.arange(20) * 0.5
        spec, twin, whole = (self._ring(queued) for _ in range(3))
        before = _ring_fields(spec)
        planned = spec.post_addrs(20)
        assert _ring_fields(spec) == before
        np.testing.assert_array_equal(
            whole.post_batch(sizes, flows, arrivals), planned)
        if queued == 27:
            assert planned.shape[0] < 20, "the ring was expected to fill"
        kept = spec.post_batch(sizes[:n], flows[:n], arrivals[:n])
        assert kept.shape[0] == min(n, planned.shape[0])
        np.testing.assert_array_equal(kept, planned[:kept.shape[0]])
        for i in range(n):
            out = twin.post(int(sizes[i]), int(flows[i]), float(arrivals[i]))
            assert (out is None) == (i >= kept.shape[0])
        assert _ring_fields(spec) == _ring_fields(twin)

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_consume_cut_equals_prefix(self, n):
        """``RingConsumer._keep`` applies a chunk's kept packets of a
        three-ring backlog, a first chunk of 3 and then one of ``n``:
        each ring, the round-robin cursor and the Tx bytes end as the
        scalar loop's pops of the same packets leave them."""
        def drain() -> TestPmd:
            rings = [DescRing(16, base_addr=(1 + r) << 20)
                     for r in range(3)]
            for r, queued in enumerate((5, 2, 7)):
                for i in range(queued):
                    rings[r].post(64 + 8 * i + r, flow_id=i, now=0.1 * i)
            pmd = TestPmd("pmd", rings)
            pmd._ring_cursor = 1
            return pmd

        spec, twin = drain(), drain()
        backlog = _Backlog(spec.rings, spec._ring_cursor, 1.0, 1.0)
        start = 0
        for size in (3, n):
            if size:
                backlog.cover(start + size, start)
                spec._keep(backlog, start, size)
                start += size
        popped = [twin._next_packet() for _ in range(start)]
        twin.tx_bytes += sum(record.size for record in popped)
        for got, want in zip(spec.rings, twin.rings):
            assert _ring_fields(got) == _ring_fields(want)
        assert spec._ring_cursor == twin._ring_cursor
        assert spec.tx_bytes == twin.tx_bytes


# ---------------------------------------------------------------------------
# FlowTables (EMC): a chunk's lookups, then its kept prefix
# ---------------------------------------------------------------------------
class _NullPort:
    """Satisfies the lookup path's port surface with unit-cost accesses."""

    def access(self, addr, **kwargs):
        return 1.0


class TestFlowTablesJournal:
    """``lookup_chunk`` leaves the EMC as it was; ``keep(n)`` then makes
    it what a twin that looked up only the chunk's first ``n`` flows
    holds, by ``lookup_chunk`` and by the scalar ``lookup`` alike."""

    def _tables(self) -> FlowTables:
        return FlowTables(1 << 30, emc_entries=64)

    @staticmethod
    def _emc(tables: FlowTables) -> tuple:
        return (tables._emc_tags.tolist(), tables.emc_hits,
                tables.emc_misses)

    @pytest.mark.parametrize("n", [0, 1, 37, 80])
    @pytest.mark.parametrize("single_flow", [False, True])
    def test_chunk_cut_equals_prefix_twin(self, n, single_flow):
        rng = np.random.default_rng(31)
        spec, twin, scalar = (self._tables() for _ in range(3))
        warm = rng.integers(0, 500, size=120)
        for tables in (spec, twin):
            tables.lookup_chunk(VectorPlan(), warm, np.arange(120))
            tables.keep(120)
        for flow in warm.tolist():
            scalar.lookup(_NullPort(), flow)
        assert self._emc(spec) == self._emc(scalar)
        flows = np.full(80, warm[5]) if single_flow \
            else rng.integers(0, 500, size=80)
        before = self._emc(spec)
        hit, _ = spec.lookup_chunk(VectorPlan(), flows, np.arange(80))
        assert self._emc(spec) == before
        spec.keep(n)
        if n:
            twin.lookup_chunk(VectorPlan(), flows[:n], np.arange(n))
            twin.keep(n)
        hits = [scalar.lookup(_NullPort(), flow).emc_hit
                for flow in flows[:n].tolist()]
        assert hit[:n].tolist() == hits
        assert self._emc(spec) == self._emc(twin) == self._emc(scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_cut_across_lookups_equals_prefix_twin(self, seed):
        """Colliding chunks, single-flow chunks and scalar probes, each
        chunk kept at a random prefix: every chunk's kept hits and the
        EMC after it match a twin that made only the kept lookups, one
        scalar ``lookup`` at a time."""
        rng = np.random.default_rng(seed)
        for _ in range(25):
            spec, twin = self._tables(), self._tables()
            for flow in rng.integers(0, 300, size=100).tolist():
                spec.lookup(_NullPort(), flow)
                twin.lookup(_NullPort(), flow)
            for _ in range(rng.integers(1, 5)):
                kind = int(rng.integers(3))
                if kind == 2:
                    flow = int(rng.integers(0, 300))
                    assert spec.lookup(_NullPort(), flow) == \
                        twin.lookup(_NullPort(), flow)
                    continue
                m = int(rng.integers(1, 90))
                flows = rng.integers(0, 300, size=m) if kind \
                    else np.full(m, rng.integers(0, 300))
                n = int(rng.integers(0, m + 1))
                hit, _ = spec.lookup_chunk(VectorPlan(), flows,
                                           np.arange(m))
                spec.keep(n)
                assert hit[:n].tolist() == [
                    twin.lookup(_NullPort(), flow).emc_hit
                    for flow in flows[:n].tolist()]
                assert self._emc(spec) == self._emc(twin)

    def test_chunk_lookup_rollback_and_commit_twin(self):
        """A chunk kept at 0 leaves the EMC and its counters as they
        were; the same chunk kept whole equals a twin that looked its
        flows up one at a time."""
        rng = np.random.default_rng(23)
        spec, plain = self._tables(), self._tables()
        warm = rng.integers(0, 500, size=120)
        spec.lookup_chunk(VectorPlan(), warm, np.arange(120))
        spec.keep(120)
        for flow in warm.tolist():
            plain.lookup(_NullPort(), flow)
        before = self._emc(spec)
        flows = rng.integers(0, 500, size=80)
        spec.lookup_chunk(VectorPlan(), flows, np.arange(80))
        spec.keep(0)
        assert self._emc(spec) == before
        spec.lookup_chunk(VectorPlan(), flows, np.arange(80))
        spec.keep(80)
        for flow in flows.tolist():
            plain.lookup(_NullPort(), flow)
        assert self._emc(spec) == self._emc(plain)


# ---------------------------------------------------------------------------
# End-to-end: forced mispredictions cut back to the scalar truth
# ---------------------------------------------------------------------------
def _records(metrics) -> list:
    return [dataclasses.asdict(record) for record in metrics.records]


def _run_leaky(exec_mode: str, seed: int) -> list:
    scen = leaky_dma_scenario(packet_size=512, n_flows=16,
                              ring_entries=128, spec=ARRAY_TINY, seed=seed)
    scen.sim.exec_mode = exec_mode
    return _records(scen.sim.run(0.4))


def _run_pmd_xmem(exec_mode: str, seed: int) -> "tuple[list, list]":
    """TestPmd beside an X-Mem thrasher under the IAT daemon: the
    thrash-driven miss spikes make per-packet cost wildly non-uniform,
    the worst case for run-ahead admission."""
    platform = Platform(ARRAY_TINY)
    sim = Simulation(platform, seed=seed, exec_mode=exec_mode)
    nic = platform.add_nic("n0", 40.0)
    # Deep ring + overload: backlogs larger than a quantum budget, so an
    # over-admitted chunk genuinely overshoots instead of draining dry.
    vf = nic.add_vf(entries=256, name="vf0")
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(Tenant("pmd", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=2), pmd)
    xmem = XMem("xmem", 64 << 10)
    xmem.l2_bytes = 8 << 10
    sim.add_tenant(Tenant("xmem", cores=(1,), priority=Priority.BE,
                          initial_ways=2), xmem)
    sim.attach_traffic(nic, vf, TrafficSpec(pps=30000.0, packet_size=512,
                                            n_flows=64, zipf_theta=0.9,
                                            burstiness=0.6))
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    daemon = ControllerDaemon(control,
                              IATPolicy(IATParams(interval_s=0.2)))
    sim.add_controller(daemon)
    metrics = sim.run(0.8)
    return _records(metrics), [dataclasses.asdict(h)
                               for h in daemon.history]


def _run_flows(exec_mode: str, seed: int) -> list:
    """``flows-64``'s shape: 64 B packets over 100k flows at 0.6 line
    rate, so OVS drains two NIC rings through a multi-flow EMC into two
    virtio rings."""
    scen = leaky_dma_scenario(packet_size=64, n_flows=100_000,
                              rate_fraction=0.6, spec=ARRAY_TINY,
                              seed=seed)
    scen.sim.exec_mode = exec_mode
    return _records(scen.sim.run(0.4))


def _run_small_virtio(exec_mode: str,
                      containers: int) -> "tuple[list, int]":
    """Fig. 8's OVS chain, 512 B over 16 flows, behind virtio rings too
    small for OVS's bursts (with four containers each NIC port spreads
    its flows over two); returns the records and OVS's output drops."""
    scen = leaky_dma_scenario(packet_size=512, n_flows=16,
                              n_containers=containers,
                              spec=dataclasses.replace(ARRAY_TINY,
                                                       cores=10),
                              seed=8)
    scen.sim.exec_mode = exec_mode
    records = _records(scen.sim.run(0.4))
    return records, scen.workloads["ovs"].output_drops


class TestForcedMisprediction:
    @pytest.mark.parametrize("seed", [8, 21])
    def test_overshoot_rollback_matches_scalar(self, monkeypatch, seed):
        """Crank the run-ahead headroom so nearly every speculative chunk
        overshoots its quantum budget: the engine must cut chunks back
        constantly, and every record must still equal scalar."""
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.5)
        ENGINE_STATS.reset()
        vec = _run_leaky("vector", seed)
        assert ENGINE_STATS.rollbacks > 0, \
            "headroom 2.5 was expected to force mispredicted admissions"
        assert ENGINE_STATS.wasted_packets > 0
        assert (ENGINE_STATS.exec_packets
                == ENGINE_STATS.packets + ENGINE_STATS.wasted_packets)
        assert vec == _run_leaky("scalar", seed)

    def test_many_flows_cuts_match_scalar(self, monkeypatch):
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.5)
        ENGINE_STATS.reset()
        vec = _run_flows("vector", 8)
        assert ENGINE_STATS.rollbacks > 0
        assert (ENGINE_STATS.exec_packets
                == ENGINE_STATS.packets + ENGINE_STATS.wasted_packets)
        assert vec == _run_flows("scalar", 8)

    @pytest.mark.parametrize("containers", [2, 4])
    def test_cut_chunks_drop_at_small_virtio_ring(self, monkeypatch,
                                                  containers):
        """A chunk plans its copies into a virtio ring from the ring's
        state before the chunk, so a cut chunk whose planned posts ran
        past the ring's space must post only its kept packets: the
        drops and every record then match the scalar loop."""
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.5)
        monkeypatch.setattr(common, "VIRTIO_ENTRIES", 32)
        short = []
        cut_drops = 0
        post_addrs = DescRing.post_addrs
        run_ahead = Workload._run_ahead

        def watching(ring, m):
            addrs = post_addrs(ring, m)
            short.append(addrs.shape[0] < m)
            return addrs

        def counting(self, port, k, *args, **kwargs):
            nonlocal cut_drops
            short.clear()
            n, result = run_ahead(self, port, k, *args, **kwargs)
            if isinstance(self, OvsDataplane) and n < k and any(short):
                cut_drops += 1
            return n, result

        monkeypatch.setattr(DescRing, "post_addrs", watching)
        monkeypatch.setattr(Workload, "_run_ahead", counting)
        vec = _run_small_virtio("vector", containers)
        assert cut_drops > 0, \
            "no cut OVS chunk was planned to drop at a virtio ring"
        assert vec[1] > 0, "OVS was expected to drop at its virtio rings"
        assert vec == _run_small_virtio("scalar", containers)

    def test_xmem_mix_cost_spikes_match_scalar(self, monkeypatch):
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.0)
        ENGINE_STATS.reset()
        vec_metrics, vec_history = _run_pmd_xmem("vector", 42)
        assert ENGINE_STATS.rollbacks > 0
        sca_metrics, sca_history = _run_pmd_xmem("scalar", 42)
        assert vec_metrics == sca_metrics
        assert vec_history == sca_history

    def test_speculation_exercised_at_default_headroom(self):
        ENGINE_STATS.reset()
        _run_leaky("vector", 8)
        assert ENGINE_STATS.spec_chunks > 0
        assert ENGINE_STATS.mean_chunk() >= 8.0
        assert ENGINE_STATS.kernel_launches > 0
