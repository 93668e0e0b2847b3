"""One sub-step's inbound DMA as one coalesced DDIO batch.

``Nic.dma_burst`` posts every stream's burst of a sub-step to its VF's
ring, then writes all of their lines through DDIO as one LLC batch.
Each case here runs that against a per-line reference built from
``SlicedLLC.ddio_write``/``access`` and ``ChaCounters.record_ddio``,
which delivers the same bursts packet by packet and line by line, and
compares everything the DMA phase touches: the LLC's planes and
counters, the uncore's per-slice counts, each VF's counters, each
ring's state and the memory controller's bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.geometry import TINY_LLC
from repro.cache.llc import DDIO_OWNER, SlicedLLC
from repro.mem.dram import MemoryController
from repro.pci.nic import Nic
from repro.perf.uncore import ChaCounters

#: The two top ways, as the DDIO default; an override VF takes two
#: ways below them.
DDIO_MASK = 0b11 << (TINY_LLC.ways - 2)
OVERRIDE_MASK = 0b11 << 4


def machine(backend: str, knobs, *, entries: int = 64) -> tuple:
    """An LLC, memory controller and uncore, plus one VF per entry of
    ``knobs`` (``"plain"``, ``"header"`` or ``"override"``), split over
    two NICs."""
    llc = SlicedLLC(TINY_LLC, backend=backend)
    mem = MemoryController()
    mem.begin_window(0.1)
    uncore = ChaCounters(TINY_LLC)
    nics = [Nic(name=f"nic{i}", link_gbps=40.0, region_base=(1 + i) << 30,
                region_size=1 << 24) for i in range(2)]
    vfs = []
    for i, knob in enumerate(knobs):
        vf = nics[i % 2].add_vf(entries=entries, pool_factor=1)
        vf.header_only_ddio = knob == "header"
        if knob == "override":
            vf.ddio_mask_override = OVERRIDE_MASK
        vfs.append(vf)
    return llc, mem, uncore, nics[0], vfs


def reference_dma(bursts, llc, ddio_mask, mem, uncore, now) -> None:
    """Deliver ``bursts`` packet by packet, one line at a time."""
    line = llc.geometry.line_size
    for vf, sizes, flows in bursts:
        mask = ddio_mask if vf.ddio_mask_override is None \
            else vf.ddio_mask_override
        for size, flow in zip(sizes.tolist(), flows.tolist()):
            record = vf.rx_ring.post(size, flow, now)
            if record is None:
                continue
            for j in range(-(-size // line)):
                addr = record.buf_addr + j * line
                if vf.header_only_ddio and j:
                    # A payload line bypasses DDIO: update in place, or
                    # write to memory.
                    if not llc.access(addr, 0, write=True, owner=DDIO_OWNER,
                                      allocate=False).hit:
                        mem.add_write(line)
                    continue
                out = llc.ddio_write(addr, mask)
                uncore.record_ddio(addr, hit=out.hit)
                if out.hit:
                    vf.ddio_hits += 1
                else:
                    vf.ddio_misses += 1
                if out.writeback:
                    mem.add_write(line)


def planes(llc: SlicedLLC) -> tuple:
    """Every line's tag, stamp, dirty bit and owner, on either backend."""
    if llc.backend == "scalar":
        return tuple(np.asarray(p) for p in (llc._tags, llc._stamp,
                                             llc._dirty, llc._owner))
    return (llc._tags, llc._meta >> 1, (llc._meta & 1) == 1, llc._owner)


def assert_same(a: tuple, b: tuple) -> None:
    llc_a, mem_a, uncore_a, _, vfs_a = a
    llc_b, mem_b, uncore_b, _, vfs_b = b
    for plane_a, plane_b in zip(planes(llc_a), planes(llc_b)):
        assert np.array_equal(plane_a, plane_b)
    assert llc_a.stats() == llc_b.stats()
    assert llc_a.occupancy_by_owner() == llc_b.occupancy_by_owner()
    assert llc_a.clock == llc_b.clock
    assert (uncore_a.hits, uncore_a.misses) == (uncore_b.hits,
                                                uncore_b.misses)
    assert (mem_a.read_bytes, mem_a.write_bytes) == (mem_b.read_bytes,
                                                     mem_b.write_bytes)
    for vf_a, vf_b in zip(vfs_a, vfs_b):
        assert (vf_a.ddio_hits, vf_a.ddio_misses) == (vf_b.ddio_hits,
                                                      vf_b.ddio_misses)
        ring_a, ring_b = vf_a.rx_ring, vf_b.rx_ring
        for name in ("_head", "_rd", "_count", "enqueued", "dequeued",
                     "dropped"):
            assert getattr(ring_a, name) == getattr(ring_b, name), name
        for got, want in zip(ring_a.peek_batch(), ring_b.peek_batch()):
            assert np.array_equal(got, want)


def run_phases(backend, knobs, streams, *, sub_steps=6, entries=32,
               seed=0) -> tuple:
    """Run ``sub_steps`` coalesced DMA phases against the per-line
    reference, draining half of each ring in between; ``streams`` lists
    ``(vf index, packets, sizes)`` with ``sizes`` an int (fixed) or a
    ``(low, high)`` range (ragged).  Returns the coalesced machine."""
    rng = np.random.default_rng(seed)
    fast = machine(backend, knobs, entries=entries)
    ref = machine(backend, knobs, entries=entries)
    for sub in range(sub_steps):
        shape = []
        for vf_index, count, size in streams:
            sizes = np.full(count, size, dtype=np.int64) \
                if isinstance(size, int) \
                else rng.integers(*size, count).astype(np.int64)
            shape.append((vf_index, sizes,
                          rng.integers(0, 100, count).astype(np.int64)))
        now = 0.01 * sub
        llc, mem, uncore, nic, vfs = fast
        enqueued = nic.dma_burst([(vfs[i], sizes, flows)
                                  for i, sizes, flows in shape],
                                 llc, DDIO_MASK, mem, uncore, now)
        llc, mem, uncore, _, vfs = ref
        before = sum(vf.rx_ring.enqueued for vf in vfs)
        reference_dma([(vfs[i], sizes, flows) for i, sizes, flows in shape],
                      llc, DDIO_MASK, mem, uncore, now)
        assert enqueued == sum(vf.rx_ring.enqueued for vf in vfs) - before
        assert_same(fast, ref)
        for _, _, _, _, vfs in (fast, ref):
            for vf in vfs:
                vf.rx_ring.consume_batch(vf.rx_ring.occupancy // 2)
    llc = fast[0]
    assert llc.stat_ddio_hits > 0 and llc.stat_ddio_misses > 0
    return fast


BACKENDS = pytest.mark.parametrize("backend", ["scalar", "array"])


@BACKENDS
class TestCoalescedPhase:
    def test_two_streams_into_one_vf(self, backend):
        # The KVS shape: a GET and a SET stream per VF, two NICs.
        run_phases(backend, ["plain", "plain"],
                   [(0, 12, 128), (0, 9, 1124), (1, 12, 128),
                    (1, 9, 1124)])

    def test_ragged_sizes(self, backend):
        run_phases(backend, ["plain", "plain"],
                   [(0, 20, (64, 1500)), (1, 7, (60, 200))], seed=3)

    def test_ring_fills_and_drops(self, backend):
        # Two streams offer 22 packets per sub-step to a 16-entry ring:
        # the first stream's posts leave the second too little room.
        vfs = run_phases(backend, ["plain"], [(0, 10, 512), (0, 12, 256)],
                         entries=16)[4]
        assert vfs[0].drops > 0

    def test_header_only_and_override_vfs(self, backend):
        run_phases(backend, ["plain", "header", "override", "header"],
                   [(0, 10, 512), (1, 14, (64, 1500)), (2, 10, 1024),
                    (3, 6, 512), (1, 5, 64)], seed=5)


@BACKENDS
def test_ddio_totals_agree(backend):
    """The LLC's DDIO statistics, the uncore and the VF counters count
    each DDIO line once, also for header-only VFs, whose payload lines
    are no DDIO transaction: 6 sub-steps of 20 x 512 B packets into a
    plain, a header-only and an override VF are 960 + 120 + 960 lines."""
    llc, mem, uncore, nic, vfs = machine(backend,
                                         ["plain", "header", "override"])
    for sub in range(6):
        sizes = np.full(20, 512, dtype=np.int64)
        flows = np.zeros(20, dtype=np.int64)
        assert nic.dma_burst([(vf, sizes, flows) for vf in vfs], llc,
                             DDIO_MASK, mem, uncore, 0.01 * sub) == 60
        for vf in vfs:
            vf.rx_ring.consume_batch(vf.rx_ring.occupancy)
    stats = llc.stats()
    exact = uncore.exact()
    assert stats["ddio_hits"] + stats["ddio_misses"] == 2040
    assert (stats["ddio_hits"], stats["ddio_misses"]) == (exact.hits,
                                                          exact.misses)
    assert sum(vf.ddio_hits for vf in vfs) == exact.hits
    assert sum(vf.ddio_misses for vf in vfs) == exact.misses
    assert [vf.ddio_hits + vf.ddio_misses for vf in vfs] == [960, 120, 960]
