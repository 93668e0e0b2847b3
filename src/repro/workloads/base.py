"""Workload execution model: core ports, cycle accounting, latencies.

Workloads in this reproduction are *memory-behaviour models*: each one
issues a stream of LLC-level accesses (its post-L2 miss stream) into the
simulated cache through a :class:`CorePort`, paying per-access latencies
that in turn determine how many operations fit into a core's cycle
budget.  IPC, LLC reference/miss counts, throughput, and latency all
emerge from this loop — they are not scripted.

The latency constants approximate Skylake-SP: ~14 cycles L2 hit, ~44
cycles LLC hit, DRAM latency from the (utilization-aware) memory model.
``mlp`` expresses memory-level parallelism: independent misses overlap,
so the charged stall is ``dram_latency / mlp``; a dependent pointer
chase has ``mlp = 1``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..cache.cat import CatController
from ..cache.llc import SlicedLLC
from ..mem.dram import MemoryController
from ..perf.counters import CoreCounterBlock

#: Cycles for an access served by the (modelled) L2.
L2_HIT_CYCLES = 14.0

#: Cycles for an access served by the LLC.
LLC_HIT_CYCLES = 44.0

#: Multiple of the EMA-predicted budget fit admitted per run-ahead
#: chunk (:meth:`Workload._run_ahead`).  Above 1, so that a
#: budget-bound sub-step usually takes one execution, which overshoots
#: the budget and is cut back to its admitted prefix: a cut costs only
#: its suffix's wasted items and the undo, while a chunk that falls
#: short of the budget costs a second execution with its whole fixed
#: cost.  Sweeping 0.95–1.5 on the simbench workloads, throughput
#: peaks at 1.05–1.2 on all three and falls beyond, where each cut
#: wastes more; the low end keeps chunks, and the memory their
#: batches take, smallest (docs/modeling.md §5).
SPEC_HEADROOM = 1.05

#: Run-ahead chunk size tried before any cost observation exists.
SPEC_BOOTSTRAP = 32

#: EMA smoothing factor for the observed mean per-item service cost.
SPEC_ALPHA = 0.25


class CorePort:
    """One core's path into the memory hierarchy.

    Binds together the LLC (with the core's current CAT mask), the
    memory controller, and the core's counter block.  ``begin_quantum``
    caches the mask and the current DRAM latency so the per-access hot
    path stays cheap; controllers only reprogram masks between quanta,
    so this is exact.
    """

    __slots__ = ("core_id", "owner", "_llc", "_cat", "_mem", "_mba",
                 "block", "_mask", "_dram_cycles", "_line", "_lat_buf",
                 "_last")

    def __init__(self, core_id: int, owner: int, llc: SlicedLLC,
                 cat: CatController, mem: MemoryController,
                 block: CoreCounterBlock, mba=None) -> None:
        self.core_id = core_id
        self.owner = owner
        self._llc = llc
        self._cat = cat
        self._mem = mem
        self._mba = mba
        self.block = block
        self._line = llc.geometry.line_size
        self._mask = cat.mask_of_core(core_id)
        self._dram_cycles = mem.spec.idle_latency_cycles
        self._lat_buf = np.empty(0)
        # (pkt, device, hit, writeback) of the last batch that may be
        # cut or split, what move_counts and cut read: every run_lines
        # batch, and an access_batch one issued under a snapshot (pkt
        # and device None).  A prefill batch is never kept alive here.
        self._last = None

    def begin_quantum(self) -> None:
        """Refresh cached mask and DRAM latency at a quantum boundary."""
        self._mask = self._cat.mask_of_core(self.core_id)
        self._dram_cycles = self._mem.load_latency_cycles()
        if self._mba is not None:
            # MBA extension: a throttled class pays stretched DRAM time.
            cos = self._cat.cos_of(self.core_id)
            self._dram_cycles *= self._mba.delay_factor(cos)

    @property
    def mask(self) -> int:
        return self._mask

    def interchangeable(self, other: "CorePort") -> bool:
        """Whether an access costs and lands the same from ``other``:
        same LLC, memory controller, owner, CAT mask and DRAM latency
        (as of the last :meth:`begin_quantum`)."""
        return (self._llc is other._llc and self._mem is other._mem
                and self.owner == other.owner and self._mask == other._mask
                and self._dram_cycles == other._dram_cycles)

    @property
    def dram_cycles(self) -> float:
        """Current per-miss DRAM penalty (refreshed by ``begin_quantum``).

        X-Mem sizes its scalar loop's access slices by the cost of an op
        that goes all the way to DRAM.
        """
        return self._dram_cycles

    def access(self, addr: int, *, write: bool = False,
               mlp: float = 1.0) -> float:
        """One LLC-level access; returns the charged latency in cycles.

        ``mlp`` models memory-level parallelism: independent or
        prefetched accesses (streaming a packet buffer, copying a value)
        overlap, so both the hit latency and the DRAM penalty are
        divided by it.  A dependent pointer chase passes ``mlp=1``.
        """
        out = self._llc.access(addr, self._mask, write=write,
                               owner=self.owner)
        block = self.block
        block.llc_references += 1
        if out.hit:
            return LLC_HIT_CYCLES / mlp
        block.llc_misses += 1
        line = self._line
        self._mem.add_read(line)
        if out.writeback:
            self._mem.add_write(line)
        return (LLC_HIT_CYCLES + self._dram_cycles) / mlp

    def access_batch(self, addrs, *, write: bool = False,
                     mlp: float = 1.0) -> "np.ndarray":
        """Issue an address vector in order; returns per-access cycles.

        Equivalent to calling :meth:`access` per address (same counter
        and memory-traffic accounting); the total charged cycles is the
        returned array's sum.  Works on either LLC backend — on the
        array backend the whole vector is one vectorized batch.
        """
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        n = addrs.shape[0]
        llc = self._llc
        if n == 0:
            self._last = None
            return np.zeros(0)
        out = llc.access_batch(addrs, self._mask, write=write,
                               owner=self.owner)
        if llc.journaling:
            self._last = (None, None, out.hit, out.writeback)
        block = self.block
        block.llc_references += n
        misses = out.misses
        block.llc_misses += misses
        if misses:
            self._mem.add_read(self._line * misses)
        writebacks = out.writebacks
        if writebacks:
            self._mem.add_write(self._line * writebacks)
        return np.where(out.hit, LLC_HIT_CYCLES / mlp,
                        (LLC_HIT_CYCLES + self._dram_cycles) / mlp)

    def read_line_for_device(self, addr: int) -> None:
        """Device-side read (Tx DMA): LLC if present, else DRAM; no fill."""
        out = self._llc.device_read(addr)
        if not out.hit:
            self._mem.add_read(self._line)

    def run_plan(self, plan: "VectorPlan", npackets: int) -> "np.ndarray":
        """Execute a mixed core/device access plan as one LLC batch.

        Core accesses pay hit/miss latencies scaled by their segment's
        MLP and update this core's reference/miss counters; device
        (Tx DMA) reads never fill and charge no core cycles, only DRAM
        reads on miss.  Line order inside the plan — including the
        core/device interleaving — is exactly the order a scalar caller
        would have issued.  Returns per-packet charged cycles, indexed
        by the plan's packet slots (length ``npackets``).
        """
        flat = plan.materialize()
        if flat is None:
            self._last = None
            return np.zeros(npackets)
        return self.run_lines(*flat, npackets)

    def run_lines(self, addrs, write, mlp_inv, device, pkt,
                  npackets: int) -> "np.ndarray":
        """Execute materialized plan lines as one LLC batch.

        The arrays are :meth:`VectorPlan.materialize`'s (or any
        contiguous slice of them); returns the charged cycles per packet
        slot ``0 .. npackets - 1``, each slot's line latencies summed
        from 0.0 in issue order.  The batch's references and misses go
        to this core; :meth:`move_counts` hands a packet range of them
        to another core afterwards, and :meth:`cut` takes a trailing
        range back out.
        """
        # The way mask only governs fills and device lines never
        # allocate, so the core mask can be passed as a scalar for the
        # whole batch — bit-identical to a per-line masked vector.
        block = self.block
        if device is None:
            out = self._llc.access_batch(addrs, self._mask, write=write,
                                         owner=self.owner)
            hit = out.hit
            block.llc_references += addrs.shape[0]
            block.llc_misses += out.misses
        else:
            core = ~device
            out = self._llc.access_batch(addrs, self._mask, write=write,
                                         owner=self.owner, allocate=core)
            hit = out.hit
            block.llc_references += int(np.count_nonzero(core))
            block.llc_misses += int(np.count_nonzero(core & ~hit))
        self._last = (pkt, device, hit, out.writeback)
        miss_total = out.misses
        if miss_total:
            self._mem.add_read(self._line * miss_total)
        writebacks = out.writebacks
        if writebacks:
            self._mem.add_write(self._line * writebacks)
        # Latency lands in a reused per-port buffer, fused to two kernels:
        # every line pays its MLP-scaled miss cost, then hits are patched
        # down to the MLP-scaled hit cost.  Element-for-element the same
        # float operations as np.where(hit, H, H + D) * mlp_inv — the
        # products commute bit-exactly — and device lines fall out at 0.0
        # automatically because their mlp_inv is staged as 0.0.
        buf = self._lat_buf
        n = addrs.shape[0]
        if buf.shape[0] < n:
            buf = self._lat_buf = np.empty(max(n, 1024))
        lat = buf[:n]
        np.multiply(mlp_inv, LLC_HIT_CYCLES + self._dram_cycles, out=lat)
        lat[hit] = mlp_inv[hit] * LLC_HIT_CYCLES
        # One approximate launch count for the execute stage (batch call
        # plus the latency/bincount kernels above).
        ENGINE_STATS.kernel_launches += 6
        return np.bincount(pkt, weights=lat, minlength=npackets)

    def move_counts(self, dest: "CorePort", lo: int, hi: int) -> None:
        """Move the LLC references and misses of packet slots ``lo ..
        hi - 1`` of the last :meth:`run_lines` batch from this core's
        counters to ``dest``'s.  The batch's packet slots must ascend,
        as materialized plans' do."""
        pkt, device, hit, _ = self._last
        a, b = np.searchsorted(pkt, (lo, hi)).tolist()
        if device is None:
            refs = b - a
            misses = refs - int(np.count_nonzero(hit[a:b]))
        else:
            core = ~device[a:b]
            refs = int(np.count_nonzero(core))
            misses = refs - int(np.count_nonzero(core & hit[a:b]))
        ENGINE_STATS.kernel_launches += 3
        block = self.block
        block.llc_references -= refs
        block.llc_misses -= misses
        block = dest.block
        block.llc_references += refs
        block.llc_misses += misses

    def cut(self, slot: int) -> None:
        """Cut the last batch at packet slot ``slot``: roll the LLC back
        to the clock before that slot's first line, closing the snapshot
        :meth:`Workload._run_ahead` armed, and take the undone lines'
        references, misses and memory bytes back out of this core's
        counters and the memory controller.  It must follow the batch
        directly, before :meth:`move_counts`.  In an
        :meth:`access_batch` batch each address is its own slot."""
        llc = self._llc
        last = self._last
        if last is None:    # nothing was issued
            llc.rollback(keep=llc.clock)
            return
        pkt, device, hit, writeback = last
        n = hit.shape[0]
        a = slot if pkt is None else int(np.searchsorted(pkt, slot))
        llc.rollback(keep=llc.clock - (n - a))
        hit = hit[a:]
        # Every missed line was read from DRAM, device lines included;
        # only core lines count as references.
        reads = n - a - int(np.count_nonzero(hit))
        if device is None:
            refs, misses = n - a, reads
        else:
            core = ~device[a:]
            refs = int(np.count_nonzero(core))
            misses = refs - int(np.count_nonzero(core & hit))
        block = self.block
        block.llc_references -= refs
        block.llc_misses -= misses
        line = self._line
        if reads:
            self._mem.add_read(-line * reads)
        writebacks = int(np.count_nonzero(writeback[a:]))
        if writebacks:
            self._mem.add_write(-line * writebacks)
        # As run_lines counts its batch: the rollback call plus the
        # searchsorted and counting kernels above.
        ENGINE_STATS.kernel_launches += 6

    def charge(self, instructions: float, cycles: float) -> None:
        """Credit retired instructions and consumed cycles to the core."""
        self.block.credit(instructions=int(instructions), cycles=int(cycles))


def seq_accumulate(initial: float, values: "np.ndarray") -> float:
    """Left-to-right sum of float64 ``values`` onto ``initial``.

    ``np.cumsum`` is ``np.add.accumulate``: it must produce every
    intermediate prefix, so it applies the additions strictly
    sequentially and reproduces a scalar ``acc += v`` loop bit-for-bit
    for *any* float64 input — negative values, infinities, and NaNs
    included (``np.sum`` pairs terms and rounds differently, which is
    why it cannot be used here).
    """
    n = values.shape[0]
    if n == 0:
        return float(initial)
    tmp = np.empty(n + 1)
    tmp[0] = initial
    tmp[1:] = values
    return float(np.cumsum(tmp, out=tmp)[-1])


class EngineStats:
    """Process-wide chunk/speculation accounting (observability only).

    Every chunk the run-ahead helper (:meth:`Workload._run_ahead`)
    executes is recorded here — ring drains count packets, the
    closed-loop RocksDB and X-Mem drains count ops, and the
    ``*packets`` fields hold both: chunk sizes into a power-of-two
    histogram, speculative executions, and the approximate NumPy
    kernel-launch count of those same drains' plan, execute and cut
    stages.  Each chunk executes once: an overshooting chunk is cut to
    its admitted prefix, which counts one rollback and wastes the
    ``k - n`` items of its suffix; ``packets``, the items admitted, is
    derived as ``exec_packets - wasted_packets``.  A high rollback rate
    means many cheap cuts, not replays.  The engine samples per-quantum
    deltas into the tracer and the metrics registry, ``repro trace``
    prints the totals at exit, and the perf benchmarks read the means
    directly.  Like ``repro.obs.metrics.REGISTRY`` this is
    process-global state shared by every simulation in the process;
    simulation *results* never read it, so it cannot perturb
    determinism.
    """

    #: Upper bucket bounds (items per chunk) of the size histogram.  The
    #: top one is the largest chunk a drain issues: X-Mem's 16 draws of
    #: 256 ops (ring drains stop at 256 packets, RocksDB at its draw).
    SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                    4096)

    __slots__ = ("chunks", "exec_packets", "spec_chunks", "rollbacks",
                 "wasted_packets", "kernel_launches", "size_buckets")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.chunks = 0           # chunk executions
        self.exec_packets = 0     # items executed (cut suffixes included)
        self.spec_chunks = 0      # chunks executed under a snapshot
        self.rollbacks = 0        # overshooting chunks cut to a prefix
        self.wasted_packets = 0   # items executed and then cut off
        self.kernel_launches = 0  # NumPy launches in the drain pipeline
        self.size_buckets = [0] * len(self.SIZE_BUCKETS)

    def record_chunk(self, k: int) -> None:
        """Account one executed chunk of ``k`` items."""
        self.chunks += 1
        self.exec_packets += k
        buckets = self.size_buckets
        buckets[min((k - 1).bit_length(), len(buckets) - 1)] += 1

    # -- derived views ---------------------------------------------------
    @property
    def packets(self) -> int:
        """Items admitted and committed."""
        return self.exec_packets - self.wasted_packets

    def mean_chunk(self) -> float:
        return self.exec_packets / self.chunks if self.chunks else 0.0

    def rollback_rate(self) -> float:
        return self.rollbacks / self.spec_chunks if self.spec_chunks else 0.0

    def launches_per_chunk(self) -> float:
        return self.kernel_launches / self.chunks if self.chunks else 0.0

    def percentile_chunk(self, pct: float) -> float:
        """Approximate size percentile (upper bucket bound), from the
        power-of-two histogram."""
        if not self.chunks:
            return 0.0
        threshold = pct / 100.0 * self.chunks
        cum = 0
        for bound, count in zip(self.SIZE_BUCKETS, self.size_buckets):
            cum += count
            if cum >= threshold:
                return float(bound)
        return float(self.SIZE_BUCKETS[-1])

    def snapshot(self) -> dict:
        return {
            "chunks": self.chunks,
            "packets": self.packets,
            "exec_packets": self.exec_packets,
            "spec_chunks": self.spec_chunks,
            "rollbacks": self.rollbacks,
            "wasted_packets": self.wasted_packets,
            "kernel_launches": self.kernel_launches,
            "size_buckets": tuple(self.size_buckets),
        }


#: Process-wide singleton the drains, engine, CLI, and benches share.
ENGINE_STATS = EngineStats()


#: Canonical identity packet-id vector.  The vector drains pass
#: ``PKT_IOTA[:k]`` as their per-chunk packet ids; :class:`VectorPlan`
#: recognizes contiguous zero-based slices of this array as
#: ``arange(k)`` *structurally* — without inspecting their contents —
#: which is what lets chunks of different sizes share one cached stage
#: template (see :meth:`VectorPlan._template_key`).
PKT_IOTA = np.arange(4096, dtype=np.int64)


class VectorPlan:
    """Array-native builder for a batched memory-access sequence.

    The vectorized drain builds one plan per chunk from whole-chunk
    arrays: each :meth:`add_batch` call appends one *stage* — a segment
    per packet id, all sharing a (write, mlp, device) profile and a
    stage ``rank``.  Materialization orders lines by packet id, then by
    stage (rank, then insertion order), then by segment order within
    the stage, then by line — exactly the per-packet interleave the
    scalar loop (buffer lines, app stages in order, transmit) would
    issue, so :meth:`CorePort.run_plan` sees the line stream the scalar
    loop would have issued access by access.

    Every plan line is a 64 B cache line.  Ranks are small non-negative
    ints below :data:`VectorPlan.MAX_RANK`.

    Plans are reusable: call :meth:`reset` between chunks instead of
    constructing a fresh plan.  Materialization writes the addresses
    into a persistent scratch array (grown geometrically); the returned
    arrays are *views* into that scratch or into a cached template,
    valid only until the next :meth:`materialize` on the same plan —
    callers consume them within the chunk and must not mutate them.

    Two paths build the line stream:

    * **Template.**  When every stage covers the same ``k`` identity
      packet ids (contiguous zero-based :data:`PKT_IOTA` slices) with a
      fixed line count — the shape of every steady-state drain chunk —
      each packet's line block is the same.  One template per stage
      structure records, per block line, the stage it reads (``s_pat``)
      and its offset from that stage's base (``off_pat``), plus the
      static ``write``/``mlp_inv``/``device``/``pkt`` arrays tiled for a
      packet capacity that grows geometrically.  A chunk gathers its stage
      bases as a (k, stages) matrix, takes ``s_pat`` along the stage
      axis into the scratch, adds ``off_pat``, and returns prefix views
      of the static arrays: three kernels, whatever ``k`` is.
    * **Keyed.**  Ragged counts or subset packet ids are built per
      chunk, uncached: the *segments* (one per staged packet id) are
      stable-sorted by packet id, then by their stage's (rank,
      insertion) ordinal, and expanded to lines with one ``np.repeat``
      of the sorted counts; per-line flags are gathered through a
      per-line stage index.

    The template cache is LRU-bounded (:data:`TEMPLATE_CACHE_CAP`); a
    template's size is bounded by its structure and the largest chunk
    it served.
    """

    MAX_RANK = 128

    #: Max cached stage templates per plan (LRU-evicted).
    TEMPLATE_CACHE_CAP = 64

    __slots__ = ("_parts", "_cap", "_templates", "_addr")

    def __init__(self) -> None:
        # (rank, bases, counts, write, mlp_inv, device, pkts, iota) —
        # iota flags pkts recognized as arange(len(pkts)).
        self._parts: "list[tuple]" = []
        self._cap = 0
        self._templates: "OrderedDict[tuple, _StageTemplate]" = \
            OrderedDict()

    def reset(self) -> None:
        """Drop staged parts, keeping scratch arrays for the next chunk."""
        self._parts.clear()

    def add_batch(self, bases, counts, *, pkts, rank: int,
                  write: bool = False, mlp: float = 1.0,
                  device: bool = False) -> None:
        """Append one stage: per packet ``pkts[i]``, ``counts[i]``
        consecutive lines starting at ``bases[i]``.  ``counts`` may be a
        scalar.

        Packet ids may come in any order and repeat; a packet's
        segments within one stage keep their order here."""
        pkts = np.asarray(pkts, dtype=np.int64)
        # Structural arange detection: a C-contiguous zero-based slice
        # of the canonical PKT_IOTA vector *is* arange(len(pkts)), no
        # content scan needed.  Anything else (fancy-indexed subsets,
        # caller-built arrays) simply takes the keyed path.
        iota = pkts is PKT_IOTA or (
            pkts.base is PKT_IOTA and pkts.flags.c_contiguous
            and pkts.shape[0] > 0 and int(pkts[0]) == 0)
        self._parts.append((rank, np.asarray(bases, dtype=np.int64),
                            counts, write, 0.0 if device else 1.0 / mlp,
                            device, pkts, iota))

    def _reserve(self, total: int) -> None:
        if total <= self._cap:
            return
        cap = max(total, 2 * self._cap, 1024)
        self._addr = np.empty(cap, dtype=np.int64)
        self._cap = cap

    def _template_key(self) -> "tuple[tuple | None, int]":
        """``(key, k)`` when every stage is a scalar-count stage over the
        same ``k`` identity packet ids, else ``(None, 0)``.

        The key is the stage structure — ranks, counts and flag
        profiles; base addresses and ``k`` stay out of it, so every
        chunk size shares one template.  Building it scans no array.
        """
        entries = []
        k = -1
        for rank, bases, counts, write, mlp_inv, device, pkts, \
                iota in self._parts:
            if not iota or isinstance(counts, np.ndarray):
                return None, 0
            m = pkts.shape[0]
            if k < 0:
                k = m
            elif m != k:
                return None, 0
            entries.append((rank, counts, write, mlp_inv, device))
        return tuple(entries), k

    def _build_template(self) -> "_StageTemplate | None":
        """The template for a uniform stage list (see the class
        docstring), or None when every stage is empty.  Its block is
        ordered by stage (rank, insertion), each stage's lines by
        address; ``s_pat`` names each block line's column in the (k,
        stages) base matrix, whose columns are the staged parts in
        insertion order."""
        parts = self._parts
        staged = [idx for idx, part in enumerate(parts) if part[2] > 0]
        if not staged:
            return None
        has_dev = any(parts[idx][5] for idx in staged)
        s_pat_l: "list[int]" = []
        off_l = []
        write_l: "list[bool]" = []
        mlp_l: "list[float]" = []
        dev_l: "list[bool]" = []
        block = sorted(range(len(staged)),
                       key=lambda j: (parts[staged[j]][0], j))
        for j in block:
            rank, bases, counts, write, mlp_inv, device, pkts, \
                _ = parts[staged[j]]
            c = int(counts)
            s_pat_l.extend([j] * c)
            off_l.append(np.arange(c, dtype=np.int64) * 64)
            write_l.extend([write] * c)
            mlp_l.extend([mlp_inv] * c)
            dev_l.extend([device] * c)
        ENGINE_STATS.kernel_launches += 5 + (1 if has_dev else 0)
        return _StageTemplate(
            tuple(staged), np.asarray(s_pat_l, dtype=np.int64),
            np.concatenate(off_l), np.asarray(write_l, dtype=bool),
            np.asarray(mlp_l),
            np.asarray(dev_l, dtype=bool) if has_dev else None)

    def _from_template(self, template: "_StageTemplate", k: int):
        """One ``k``-packet chunk's line stream from its template."""
        s_pat = template.s_pat
        nlines = s_pat.shape[0]
        grand = k * nlines
        if template.pkt.shape[0] < grand:
            template.reserve(k)
        parts = self._parts
        part_idx = template.part_idx
        stats = ENGINE_STATS
        if len(part_idx) == 1:
            mat = parts[part_idx[0]][1].reshape(k, 1)
        else:
            mat = np.stack([parts[i][1] for i in part_idx], axis=1)
            stats.kernel_launches += 1
        self._reserve(grand)
        addrs = self._addr[:grand]
        out = addrs.reshape(k, nlines)
        np.take(mat, s_pat, axis=1, out=out, mode="clip")
        np.add(out, template.off_pat, out=out)
        stats.kernel_launches += 2
        dev = template.device
        return (addrs, template.write[:grand], template.mlp_inv[:grand],
                None if dev is None else dev[:grand],
                template.pkt[:grand])

    def _build_keyed(self):
        """The line stream of an arbitrary stage list, built uncached by
        sorting segments (see the class docstring)."""
        parts = self._parts
        live = []
        for idx, part in enumerate(parts):
            counts = part[2]
            if part[1].shape[0] == 0:
                continue
            if isinstance(counts, np.ndarray):
                # A device stage decides whether the plan has device
                # flags at all, so an all-zero one must not count.
                if part[5] and not counts.any():
                    continue
            elif counts <= 0:
                continue
            live.append(idx)
        if not live:
            return None
        stats = ENGINE_STATS
        # Stage ordinal: position in (rank, insertion) order.  Segments
        # carry it as their stage id, so the tables below are indexed
        # by ordinal too.
        block = sorted(range(len(live)),
                       key=lambda j: (parts[live[j]][0], j))
        staged = [parts[live[j]] for j in block]
        nstages = len(staged)
        seg_cnt = np.concatenate([
            part[2] if isinstance(part[2], np.ndarray)
            else np.full(part[1].shape[0], part[2]) for part in staged])
        seg_base = np.concatenate([part[1] for part in staged])
        seg_pkt = np.concatenate([part[6] for part in staged])
        seg_stage = np.repeat(np.arange(nstages, dtype=np.int64),
                              [part[1].shape[0] for part in staged])
        # Stable: a packet's segments in one stage keep their order.
        key = np.multiply(seg_pkt, nstages)
        np.add(key, seg_stage, out=key)
        order = np.argsort(key, kind="stable")
        cnt = np.take(seg_cnt, order)
        ends = np.cumsum(cnt)
        total = int(ends[-1])
        stats.kernel_launches += 10 + nstages
        if total == 0:
            return None
        # Per line: its sorted segment, then everything by gather.  A
        # line's address is base + (i - first_line) * 64, folded into
        # one per-segment origin plus i * 64.
        seg = np.repeat(np.arange(order.shape[0], dtype=np.int64), cnt)
        line_stage = np.take(np.take(seg_stage, order), seg)
        origin = np.subtract(ends, cnt)
        np.multiply(origin, 64, out=origin)
        np.subtract(np.take(seg_base, order), origin, out=origin)
        self._reserve(total)
        addrs = self._addr[:total]
        np.take(origin, seg, out=addrs, mode="clip")
        step = np.arange(total, dtype=np.int64)
        np.multiply(step, 64, out=step)
        np.add(addrs, step, out=addrs)
        write = np.take(np.asarray([part[3] for part in staged],
                                   dtype=bool), line_stage)
        mlp_inv = np.take(np.asarray([part[4] for part in staged]),
                          line_stage)
        dev = None
        if any(part[5] for part in staged):
            dev = np.take(np.asarray([part[5] for part in staged],
                                     dtype=bool), line_stage)
            stats.kernel_launches += 1
        pkt = np.take(np.take(seg_pkt, order), seg)
        stats.kernel_launches += 16
        return addrs, write, mlp_inv, dev, pkt

    def materialize(self):
        """Flatten stages to per-line arrays ordered (pkt, rank,
        insertion), or None when no stage has a line.

        Returns ``(addrs, write, mlp_inv, device, pkt)``: the line
        addresses, write flags, inverse MLP (0.0 for device lines),
        device flags (None when no stage with lines is a device stage),
        and packet ids, ascending.  The address array is a scratch view
        and the static arrays may belong to a cached template (see the
        class docstring).
        """
        if not self._parts:
            return None
        key, k = self._template_key()
        if key is None:
            return self._build_keyed()
        templates = self._templates
        template = templates.get(key)
        if template is None:
            template = self._build_template()
            if template is None:
                return None
            templates[key] = template
            if len(templates) > self.TEMPLATE_CACHE_CAP:
                templates.popitem(last=False)
        else:
            templates.move_to_end(key)
        return self._from_template(template, k)


class _StageTemplate:
    """One uniform stage structure's per-packet line block (see
    :class:`VectorPlan`): ``part_idx`` lists the staged parts with
    lines, ``s_pat`` and ``off_pat`` give each block line's base-matrix
    column and byte offset from that base, and the static per-line
    arrays are tiled for a capacity of ``pkt.shape[0] // len(s_pat)``
    packets."""

    __slots__ = ("part_idx", "s_pat", "off_pat", "write", "mlp_inv",
                 "device", "pkt")

    def __init__(self, part_idx, s_pat, off_pat, write, mlp_inv,
                 device) -> None:
        self.part_idx = part_idx
        self.s_pat = s_pat
        self.off_pat = off_pat
        # Untiled until the first chunk reserves a capacity.
        self.write = write
        self.mlp_inv = mlp_inv
        self.device = device
        self.pkt = np.zeros(0, dtype=np.int64)

    def reserve(self, k: int) -> None:
        """Re-tile the static arrays for at least ``k`` packets, and at
        least twice the previous capacity."""
        nlines = self.s_pat.shape[0]
        cap = max(k, 2 * (self.pkt.shape[0] // nlines))
        self.write = np.tile(self.write[:nlines], cap)
        self.mlp_inv = np.tile(self.mlp_inv[:nlines], cap)
        if self.device is not None:
            self.device = np.tile(self.device[:nlines], cap)
        self.pkt = np.repeat(np.arange(cap, dtype=np.int64), nlines)
        ENGINE_STATS.kernel_launches += 4 if self.device is None else 5


@dataclass
class WorkloadStats:
    """Cumulative application-level statistics for one workload."""

    ops: int = 0
    busy_cycles: float = 0.0
    latency_sum_cycles: float = 0.0
    #: Optional reservoir of per-op latencies for percentile reporting.
    latency_samples: "list[float]" = field(default_factory=list)

    def record_op(self, latency_cycles: float, *, sample: bool = False) -> None:
        self.ops += 1
        self.latency_sum_cycles += latency_cycles
        if sample:
            self.latency_samples.append(latency_cycles)

    @property
    def avg_latency_cycles(self) -> float:
        return self.latency_sum_cycles / self.ops if self.ops else 0.0

    def percentile_latency(self, pct: float) -> float:
        if not self.latency_samples:
            return 0.0
        return float(np.percentile(np.asarray(self.latency_samples), pct))


class Workload(ABC):
    """Base class: bound to one tenant's core ports, run each quantum.

    Subclasses implement :meth:`run_core`, consuming a per-core cycle
    budget.  ``l2_bytes`` sets the modelled private-cache capacity used
    for L2 hit-probability estimates.
    """

    #: Modelled per-core L2 capacity (Table I: 1 MB).
    l2_bytes: int = 1 << 20

    #: Execution mode for the hot loop: ``"vector"`` (journaled
    #: run-ahead chunks, the default) or ``"scalar"`` (the per-access
    #: reference loop).  Both produce identical simulation results.  The
    #: engine sets it at run time — ``"scalar"`` whenever its LLC cannot
    #: journal, since the vector drains need :meth:`_run_ahead`'s
    #: rollback — so a drain only tests this attribute.
    exec_mode: str = "vector"

    def __init__(self, name: str) -> None:
        self.name = name
        self.ports: "list[CorePort]" = []
        self.rng: "np.random.Generator" = np.random.default_rng(0)
        self.region_base = 0
        self.stats = WorkloadStats()
        #: Rate scale of the hosting platform; the engine sets it at
        #: bind time.  One simulated second carries ``freq * time_scale``
        #: cycles, so waits measured in simulated seconds convert to
        #: cycles through this factor.
        self.time_scale = 1.0
        # Run-ahead chunk sizing: running mean of per-item service
        # cycles (pure chunk-sizing state — it never influences
        # simulation results).
        self._spec_ema = 0.0

    def bind(self, ports: "list[CorePort]", region_base: int,
             rng: "np.random.Generator") -> None:
        """Attach to core ports and a private address region."""
        if not ports:
            raise ValueError(f"workload {self.name!r} needs >= 1 core port")
        self.ports = ports
        self.region_base = region_base
        self.rng = rng
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses after binding (precompute tables etc.)."""

    def prefill(self) -> None:
        """Warm the workload's resident data into the cache at t=0.

        The simulator runs rates at ``time_scale`` of real time, which
        stretches cache-fill transients by the same factor; real
        machines reach steady state in (real) seconds, so experiments
        start from a warm cache.  Called by the engine after the
        controllers' initial LLC allocation and *before* counter
        baselines are primed, so the warm-up burst is invisible to both
        the metrics and the daemon.
        """

    def warm_region(self, base: int, nbytes: int, *,
                    write: bool = False) -> None:
        """Touch up to one LLC worth of a region through the first port."""
        if not self.ports or nbytes <= 0:
            return
        port = self.ports[0]
        port.begin_quantum()
        geometry_lines = port._llc.geometry.lines
        line = port._llc.geometry.line_size
        nlines = min(nbytes // line, geometry_lines)
        if nlines <= 0:
            return
        total_lines = max(1, nbytes // line)
        if total_lines > nlines:
            # Region exceeds the cache: warm a uniform random sample,
            # matching the steady-state resident set of a random pattern.
            addrs = base + self.rng.choice(total_lines, size=nlines,
                                           replace=False) * line
        else:
            addrs = base + np.arange(total_lines) * line
        port.access_batch(addrs, write=write)

    def begin_quantum(self, now: float) -> None:
        """Hook called once per quantum before any sub-step."""
        for port in self.ports:
            port.begin_quantum()

    def run(self, budget_cycles: float, now: float) -> None:
        """Execute one sub-step: ``budget_cycles`` per core."""
        self.run_cores(budget_cycles, now)

    def run_cores(self, budget_cycles: float, now: float) -> None:
        """Consume ``budget_cycles`` on each core, in port order (by
        default one :meth:`run_core` per port)."""
        for port in self.ports:
            self.run_core(port, budget_cycles, now)

    @abstractmethod
    def run_core(self, port: CorePort, budget_cycles: float,
                 now: float) -> None:
        """Consume up to ``budget_cycles`` on one core."""

    # -- journaled run-ahead admission ------------------------------------
    # A drain whose scalar loop admits item i iff the budget is not yet
    # spent before it cannot know chunk membership until the chunk has
    # run.  ``_run_ahead`` executes a predicted chunk under a checkpoint,
    # lets the caller's admission test pick the prefix the scalar loop
    # would have run, and either commits or cuts the chunk back to that
    # prefix.  A cut keeps the prefix as executed, which is bit-identical
    # to executing the prefix alone (batched access is sequential-order
    # exact), so speculation only changes how many items execute per
    # NumPy batch.

    def _spec_size(self, budget_left: float) -> int:
        """Run-ahead chunk size: the EMA-predicted number of items that
        fit ``budget_left``, shrunk by :data:`SPEC_HEADROOM`."""
        ema = self._spec_ema
        if ema > 0.0:
            return int(budget_left / ema * SPEC_HEADROOM) + 1
        return SPEC_BOOTSTRAP

    def _observe_cost(self, mean: float) -> None:
        """Fold one chunk's mean per-item cost into the sizing EMA."""
        ema = self._spec_ema
        self._spec_ema = mean if ema <= 0.0 \
            else ema + SPEC_ALPHA * (mean - ema)

    def _admit_budget(self, service: "np.ndarray", used: float,
                      budget_cycles: float) -> int:
        """Prefix of a speculative chunk the scalar loop admits on one
        core (see :meth:`_admit_cores`)."""
        return self._admit_cores(service, used, budget_cycles, 1)[0]

    def _admit_cores(self, service: "np.ndarray", used: float,
                     budget_cycles: float, cores: int) -> "list[int]":
        """Split a speculative chunk over up to ``cores`` cores the way
        the scalar loop, one core after another, would run it.

        On each core, an item runs iff it is the core's first or the
        core's cycles used before it are under budget — the scalar
        ``while used < budget`` test, on the same left-to-right float
        sums.  The first core starts at ``used``, every later one at
        0.0, and the first item a core refuses starts the next core.
        Returns the chunk index that ends each core's items, one entry
        per core the chunk reached; the last entry is the admitted
        prefix.  Also folds the chunk's mean per-item cost into the
        sizing EMA.
        """
        k = service.shape[0]
        ends = []
        lo = 0
        while True:
            m = k - lo
            cum = np.empty(m + 1)
            cum[0] = used
            cum[1:] = service[lo:]
            np.cumsum(cum, out=cum)
            if not lo:
                self._observe_cost((float(cum[k]) - used) / k)
            lo += 1 + int(np.searchsorted(cum[1:m], budget_cycles,
                                          side="left"))
            ends.append(lo)
            if lo == k or len(ends) == cores:
                return ends
            used = 0.0

    def _run_ahead(self, port: CorePort, k: int, execute, admit,
                   slot=None):
        """Execute ``k`` items and keep the prefix the scalar loop admits.

        ``execute(k)`` runs the caller's next ``k`` items as one LLC
        batch on ``port`` and returns their result; it may change only
        the LLC, ``port``'s reference and miss counters and the memory
        controller's byte counters, which is what a cut undoes.  Every
        other effect of the items (rings, tables, statistics) the caller
        applies afterwards, for the admitted prefix only.
        ``admit(result)`` returns how many leading items ``n`` (at least
        one) the scalar loop would have run.  When ``n < k`` the chunk
        is cut: :meth:`CorePort.cut` undoes the batch from packet slot
        ``slot(n)`` on (default ``n``).  A one-item chunk is always
        admitted, so it runs unjournaled.  Returns ``(n, result)``; the
        first ``n`` items of ``result`` are the admitted prefix's,
        exactly what executing ``n`` items alone returns.  Records every
        executed chunk, cut and wasted item in :data:`ENGINE_STATS`.
        """
        estats = ENGINE_STATS
        estats.record_chunk(k)
        if k > 1:
            llc = port._llc
            llc.snapshot()
            estats.spec_chunks += 1
            result = execute(k)
            n = admit(result)
            if n < k:
                port.cut(n if slot is None else slot(n))
                estats.rollbacks += 1
                estats.wasted_packets += k - n
                k = n
            else:
                llc.commit()
        else:
            result = execute(k)
        return k, result

    # -- helpers ---------------------------------------------------------
    def l2_hit_prob(self, working_set_bytes: int) -> float:
        """L2 hit probability for a uniform-random pattern over a set."""
        if working_set_bytes <= 0:
            return 1.0
        return min(1.0, self.l2_bytes / working_set_bytes)
