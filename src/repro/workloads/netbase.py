"""Shared machinery for packet-polling (DPDK-style) workloads.

A :class:`RingConsumer` busy-polls one or more descriptor rings; each
packet costs the lines of its buffer (read through the consumer's CAT
mask — this is where Leaky DMA bites: if the DDIO-written buffer was
evicted, these reads go to DRAM) plus an application-specific cost
implemented by the subclass.  Transmit is modelled as a device read of
the buffer lines (DDIO reads never allocate, Sec. II-B).

Per-packet latency samples combine queueing delay (time the packet sat
in the ring, from its arrival stamp) with the measured service cycles,
so tail latencies reflect backlog, not just cache misses.
"""

from __future__ import annotations

import numpy as np

from ..net.packet import lines_per_packet
from ..pci.ring import DescRing, PacketRecord
from .base import CorePort, PKT_IOTA, VectorPlan, Workload, seq_accumulate

#: Cycles burned per empty poll of a ring (tight DPDK rx_burst loop).
EMPTY_POLL_CYCLES = 40.0

#: Instructions retired per empty poll (the spin loop is instruction-dense).
EMPTY_POLL_INSTR = 60.0

#: Maximum empty polls simulated per sub-step before the consumer is
#: considered idle for the rest of the budget (keeps the loop cheap while
#: still charging spin cycles/instructions).
MAX_EMPTY_POLLS = 4

#: Memory-level parallelism of streaming a packet buffer: sequential
#: lines are prefetched and overlap, so the per-line charge is the
#: latency divided by this factor (a ~1.5 KB copy costs tens of cycles
#: when LLC-resident, hundreds when leaked to DRAM).
BUFFER_MLP = 8.0

#: Maximum packets per vector drain chunk (bounds plan array sizes).
CHUNK_PACKETS = 256

#: Shared 0..CHUNK_PACKETS-1 ramp; chunks slice read-only views of it.
#: A view of the canonical ``PKT_IOTA`` so VectorPlan recognizes chunk
#: packet ids structurally (enabling the stage-template fast path).
_PKT_ARANGE = PKT_IOTA[:CHUNK_PACKETS]


class RingConsumer(Workload):
    """Base for workloads that drain Rx rings under a cycle budget.

    ``stall_period``/``stall_durations`` model consumer scheduling
    jitter: every ``stall_period`` simulated seconds the consumer stops
    polling for the next duration in the cycle.  Because the simulator
    scales *rates* but not ring sizes, jitter durations are scaled UP by
    the same factor so the backlog in packets (rate x stall) matches the
    real machine — this is what makes shallow Rx rings overflow near
    saturation (paper Sec. III-A / Fig. 3).  Defaults to no jitter.
    """

    def __init__(self, name: str, rings: "list[DescRing]", *,
                 core_freq_hz: float = 2.3e9,
                 stall_period: float = 0.0,
                 stall_durations: "tuple[float, ...]" = (0.005, 0.02, 0.08)) -> None:
        super().__init__(name)
        if not rings:
            raise ValueError(f"{name}: need at least one ring to poll")
        self.rings = rings
        self.core_freq_hz = core_freq_hz
        self.stall_period = stall_period
        self.stall_durations = stall_durations
        self.tx_bytes = 0
        self._ring_cursor = 0
        self._consumed_from = 0  # ring index of the packet in flight
        self._next_stall = stall_period
        self._stalled_until = -1.0
        self._stall_index = 0
        #: 1-in-N latency sampling to bound memory.
        self.latency_sample_stride = 7
        # Vector-drain scratch: one plan reused chunk after chunk.
        self._vplan = VectorPlan()

    def begin_quantum(self, now: float) -> None:
        super().begin_quantum(now)
        if self.stall_period and now + 1e-12 >= self._next_stall:
            duration = self.stall_durations[
                self._stall_index % len(self.stall_durations)]
            self._stalled_until = now + duration
            self._stall_index += 1
            self._next_stall += self.stall_period

    # -- subclass interface ----------------------------------------------
    # Subclasses implement both halves of each packet's work: the scalar
    # :meth:`packet_cost` (the oracle) and the array :meth:`plan_chunk`
    # (the vector drain).  Per-packet accesses must be
    # address-deterministic — no address may depend on a prior access's
    # hit/miss outcome — so a whole chunk can be planned before it runs.

    #: Plan rank used for the Tx device reads (runs after all app stages).
    TX_RANK = VectorPlan.MAX_RANK - 1

    def packet_cost(self, port: CorePort, record: PacketRecord, now: float,
                    cycles: float) -> "tuple[float, float]":
        """App-specific work for one packet: ``(instructions, cycles)``.

        Called after the buffer lines have been read, with ``cycles``
        their summed latency; implementations issue their own table
        accesses through ``port``, add each latency onto ``cycles`` in
        issue order, add their fixed cost last, and return the total.
        That is the order the vector drain sums a packet in (line
        latencies from 0.0, then the fixed cost), so both produce the
        same float.
        """
        raise NotImplementedError

    def plan_chunk(self, plan: VectorPlan, port: CorePort,
                   pkts: "np.ndarray", sizes: "np.ndarray",
                   flows: "np.ndarray", addrs: "np.ndarray",
                   arrivals: "np.ndarray", rings: "np.ndarray | None",
                   now: float) -> "tuple[float, np.ndarray]":
        """Vectorized twin of :meth:`packet_cost` for a whole chunk.

        ``pkts`` is ``arange(k)``; ``rings`` is the per-packet source ring
        index, or None when the workload polls a single ring.  Append the
        chunk's app accesses to ``plan`` in the order :meth:`packet_cost`
        issues them (buffer reads are already staged at rank 0), and
        return ``(instructions_per_packet, fixed_cycles)`` with
        ``fixed_cycles`` a per-packet float array — the memory-access
        cycles are attributed later by the plan execution.  A chunk may
        span several cores, so instructions are per packet: each core is
        credited for its own packets.  Planning changes no state: the
        drain keeps only the chunk's admitted prefix, and a subclass
        whose packets change more than the LLC applies that in
        :meth:`_keep`.
        """
        raise NotImplementedError

    def transmit(self, port: CorePort, record: PacketRecord) -> None:
        """Default Tx: NIC reads the buffer lines out of LLC/DRAM."""
        line = 64
        addr = record.buf_addr
        for _ in range(lines_per_packet(record.size, line)):
            port.read_line_for_device(addr)
            addr += line
        self.tx_bytes += record.size

    def plan_transmit_chunk(self, plan: VectorPlan, pkts: "np.ndarray",
                            sizes: "np.ndarray", addrs: "np.ndarray",
                            nlines) -> None:
        """Vectorized twin of :meth:`transmit`'s accesses for a whole
        chunk (device reads charge no core cycles, so only the plan
        entries are needed; ``nlines`` is per-packet buffer line counts,
        scalar or array).  The drain counts the admitted packets' bytes
        through :meth:`tx_bytes_of` afterwards."""
        plan.add_batch(addrs, nlines, pkts=pkts, rank=self.TX_RANK,
                       device=True)

    def tx_bytes_of(self, sizes: "np.ndarray") -> int:
        """Bytes :meth:`transmit` sends for packets of ``sizes``."""
        return int(sizes.sum())

    # -- poll loop ---------------------------------------------------------
    def _next_packet(self) -> "PacketRecord | None":
        """Round-robin consume across this workload's rings, recording
        the ring the packet came from in ``_consumed_from``."""
        for offset in range(len(self.rings)):
            idx = (self._ring_cursor + offset) % len(self.rings)
            record = self.rings[idx].consume()
            if record is not None:
                self._ring_cursor = (idx + 1) % len(self.rings)
                self._consumed_from = idx
                return record
        return None

    def run_cores(self, budget_cycles: float, now: float) -> None:
        """Drain the rings on every core: the scalar loop core by core,
        or one vector stream per run of interchangeable cores (see
        :meth:`_run_stream`)."""
        if self.exec_mode != "vector" or now < self._stalled_until:
            super().run_cores(budget_cycles, now)
            return
        ports = self.ports
        first = 0
        for i in range(1, len(ports) + 1):
            if i == len(ports) or not ports[i].interchangeable(
                    ports[i - 1]):
                self._run_stream(ports[first:i], budget_cycles, now)
                first = i

    def run_core(self, port: CorePort, budget_cycles: float,
                 now: float) -> None:
        if now < self._stalled_until:
            # Scheduled out: the ring keeps filling while we're away.
            port.charge(0, budget_cycles)
            return
        used = 0.0
        instructions = 0.0
        line = 64
        freq_scale = self.core_freq_hz * self.time_scale
        while used < budget_cycles:
            record = self._next_packet()
            if record is None:
                # Nothing posts to this workload's rings while it runs,
                # so every later poll is empty too.
                self._idle(port, used, instructions, budget_cycles)
                return
            service = 0.0
            addr = record.buf_addr
            for _ in range(lines_per_packet(record.size, line)):
                service += port.access(addr, mlp=BUFFER_MLP)
                addr += line
            instr, service = self.packet_cost(port, record, now, service)
            instructions += instr
            self.transmit(port, record)
            used += service
            self.stats.busy_cycles += service
            # Queue wait in *elapsed cycles*: a simulated second carries
            # freq * time_scale cycles, so this is the real-equivalent
            # sojourn (ring sizes are unscaled, rates are scaled).
            queue_cycles = max(0.0, (now - record.arrival) * freq_scale)
            self.stats.record_op(
                queue_cycles + service,
                sample=self.stats.ops % self.latency_sample_stride == 0)
        port.charge(instructions, used)

    # -- run-ahead chunks --------------------------------------------------
    # A chunk's execution changes only the LLC, the executing port's
    # counters and memory traffic, which :meth:`Workload._run_ahead`
    # cuts back itself; the chunk's ring effects, the drain's counters
    # and its ring cursor are applied afterwards, for the admitted
    # packets only (:meth:`_keep`).
    def _exec_chunk(self, port: CorePort, backlog: "_Backlog", start: int,
                    k: int, now: float) -> "tuple[float, np.ndarray]":
        """Plan and execute packets ``[start, start + k)`` of the
        stream's pop order on ``port``, without consuming them; returns
        ``(instructions per packet, service)`` with ``service`` the
        per-packet charged cycles.
        """
        sl = slice(start, start + k)
        chunk_rings = None if backlog.ring_idx is None \
            else backlog.ring_idx[sl]
        pkts = _PKT_ARANGE[:k]
        nl = backlog.nlines[sl]
        first = int(nl[0])
        counts = first if bool((nl == first).all()) else nl
        chunk_sizes = backlog.sizes[sl]
        chunk_addrs = backlog.addrs[sl]
        plan = self._vplan
        plan.reset()
        plan.add_batch(chunk_addrs, counts, pkts=pkts, rank=0,
                       mlp=BUFFER_MLP)
        instr, fixed = self.plan_chunk(
            plan, port, pkts, chunk_sizes, backlog.flows[sl], chunk_addrs,
            backlog.arrivals[sl], chunk_rings, now)
        self.plan_transmit_chunk(plan, pkts, chunk_sizes, chunk_addrs,
                                 counts)
        service = port.run_plan(plan, k) + fixed
        return instr, service

    def _keep(self, backlog: "_Backlog", start: int, n: int) -> None:
        """Apply packets ``[start, start + n)`` of the pop order, a
        chunk's admitted prefix, to the rings and the drain: consume
        them from the polled rings, move the round-robin cursor past the
        last one, and count their Tx bytes."""
        rings = self.rings
        sl = slice(start, start + n)
        if backlog.ring_idx is None:
            rings[0].consume_batch(n)
        else:
            chunk_rings = backlog.ring_idx[sl]
            for r, cnt in enumerate(np.bincount(
                    chunk_rings, minlength=len(rings)).tolist()):
                if cnt:
                    rings[r].consume_batch(cnt)
            self._ring_cursor = (int(chunk_rings[-1]) + 1) % len(rings)
        self.tx_bytes += self.tx_bytes_of(backlog.sizes[sl])

    def _run_stream(self, ports: "list[CorePort]", budget_cycles: float,
                    now: float) -> None:
        """Fully vectorized drain of ``ports``, interchangeable cores
        that the scalar loop would run one after another: budget-guarded
        chunks over the backlog's pop order with no per-packet Python,
        each free to carry on from one core onto the next.

        Equivalent to the scalar loop in :meth:`run_core` run on each
        port in turn: nothing posts to this workload's rings while it
        runs, so the round-robin pop order over the whole drain — every
        core of it — is a pure function of the starting backlog: each
        ring's packets in FIFO order, ties at the same queue depth
        broken by ring distance from the cursor.  The drain peeks that
        order a window of queue depths at a time, as its chunks reach
        them (:class:`_Backlog`).  Empty polls then only ever happen as
        a trailing phase, on the core the backlog ran out on and every
        core after it.

        Admission is journaled run-ahead (:meth:`Workload._run_ahead`):
        a chunk sized from the EMA of observed per-packet cost over the
        current core's remaining budget plus the later cores' full
        budgets executes on the current core's port, then the *actual*
        accumulated cost decides which core each packet lands on
        (:meth:`Workload._admit_cores`); a chunk that overruns the last
        core is cut to the admitted prefix.  Interchangeable
        cores see the same mask, owner and DRAM latency, so a packet
        costs the same whichever core runs it; each core is then charged
        exactly its own packets' cycles, instructions, LLC references
        and misses (moved off the executing port packet by packet) and
        its own trailing empty polls, on the same left-to-right float
        sums as the scalar loop.
        """
        backlog = _Backlog(self.rings, self._ring_cursor, now,
                           self.core_freq_hz * self.time_scale)
        last = len(ports) - 1
        core = 0
        port = ports[0]
        used = 0.0
        instructions = 0.0
        stats = self.stats
        stride = self.latency_sample_stride
        start = 0
        total = backlog.total

        def execute(n: int):
            return self._exec_chunk(port, backlog, start, n, now)

        def admit(result) -> int:
            nonlocal ends
            ends = self._admit_cores(result[1], used, budget_cycles,
                                     last - core + 1)
            return ends[-1]

        while start < total:
            if used >= budget_cycles:
                if core == last:
                    break
                port.charge(instructions, used)
                core += 1
                port = ports[core]
                used = 0.0
                instructions = 0.0
            ends = None
            k = min(self._spec_size(
                budget_cycles - used + (last - core) * budget_cycles),
                CHUNK_PACKETS, total - start)
            backlog.cover(start + k, start)
            k, (instr, service) = self._run_ahead(port, k, execute, admit)
            self._keep(backlog, start, k)
            service = service[:k]
            # Charge each core the chunk reached its own packets; the
            # executing port moves the later cores' LLC counts over
            # (after any cut, which only undoes the executing port's).
            lo = 0
            ran = port
            for hi in ends or (k,):
                if lo:
                    port.charge(instructions, used)
                    core += 1
                    port = ports[core]
                    ran.move_counts(port, lo, hi)
                    used = 0.0
                    instructions = 0.0
                used = seq_accumulate(used, service[lo:hi])
                instructions += instr * (hi - lo)
                lo = hi
            stats.busy_cycles = seq_accumulate(stats.busy_cycles, service)
            lat = backlog.queue_cycles[start:start + k] + service
            stats.latency_sum_cycles = seq_accumulate(
                stats.latency_sum_cycles, lat)
            # The next sampled op is a python-arithmetic question; build
            # the mask only for chunks that actually contain one.
            off = stats.ops % stride
            stats.ops += k
            if (stride - off) % stride < k:
                sample = (off + _PKT_ARANGE[:k]) % stride == 0
                stats.latency_samples.extend(lat[sample].tolist())
            start += k
        # Trailing empty polls, identical to the per-packet loop's, on
        # this core and then on every idle core after it.
        self._idle(port, used, instructions, budget_cycles)
        for port in ports[core + 1:]:
            self._idle(port, 0.0, 0.0, budget_cycles)

    @staticmethod
    def _idle(port: CorePort, used: float, instructions: float,
              budget_cycles: float) -> None:
        """Poll an empty backlog until the budget is spent, then charge
        the core its whole sub-step; both drains call it once their
        rings run dry."""
        empty_polls = 0
        while used < budget_cycles:
            empty_polls += 1
            used += EMPTY_POLL_CYCLES
            instructions += EMPTY_POLL_INSTR
            if empty_polls >= MAX_EMPTY_POLLS:
                # Idle-spin the rest of the budget at the poll loop's
                # natural IPC without iterating poll by poll.
                remaining = budget_cycles - used
                if remaining > 0:
                    used = budget_cycles
                    instructions += (remaining / EMPTY_POLL_CYCLES
                                     * EMPTY_POLL_INSTR)
                break
        port.charge(instructions, used)

    # -- reporting ---------------------------------------------------------
    @property
    def packets_processed(self) -> int:
        """Packets drained so far: one op each."""
        return self.stats.ops

    @property
    def drops(self) -> int:
        return sum(ring.dropped for ring in self.rings)


class _Backlog:
    """The pop order of a ring drain's backlog, peeked a window of FIFO
    depths at a time.

    The scalar loop pops its rings round-robin from the cursor, so the
    order runs by queue depth, ties broken by ring distance from the
    cursor; the packets below depth ``d`` are exactly a prefix of it.
    A drain therefore peeks only the depths its chunks reach: each
    :meth:`cover` merges the next depths of every ring onto the end of
    the arrays (``sizes``, ``flows``, ``addrs``, ``arrivals``, the
    source ring ``ring_idx`` — None with one ring — line counts
    ``nlines`` and queueing delays ``queue_cycles``), leaving the order
    already held unchanged.
    """

    __slots__ = ("rings", "cursor", "now", "freq_scale", "total",
                 "depth", "count", "sizes", "flows", "addrs", "arrivals",
                 "ring_idx", "nlines", "queue_cycles")

    def __init__(self, rings: "list[DescRing]", cursor: int, now: float,
                 freq_scale: float) -> None:
        self.rings = rings
        self.cursor = cursor
        self.now = now
        self.freq_scale = freq_scale
        self.total = sum(ring.occupancy for ring in rings)
        self.depth = 0
        self.count = 0
        self.ring_idx = None

    def cover(self, need: int, start: int) -> None:
        """Peek further depths until the first ``need`` packets of the
        order are held; the first ``start`` of them, all below the
        depths peeked so far, have been consumed from the rings."""
        rings = self.rings
        nrings = len(rings)
        while self.count < need:
            lo = self.depth
            hi = max(2 * lo, lo + -(-(need - self.count) // nrings))
            self.depth = hi
            # Depth ``lo`` of a ring sits past the packets it lost to
            # consumption.
            if nrings == 1:
                part = rings[0].peek_batch(hi - lo, lo - start)
                ring_idx = None
            else:
                taken = np.bincount(self.ring_idx[:start],
                                    minlength=nrings).tolist() \
                    if start else [0] * nrings
                parts = [ring.peek_batch(hi - lo, lo - t)
                         for ring, t in zip(rings, taken)]
                lens = [p[0].shape[0] for p in parts]
                ring_idx = np.repeat(np.arange(nrings, dtype=np.int64),
                                     lens)
                within = np.concatenate(
                    [np.arange(n, dtype=np.int64) for n in lens])
                # Pop order: FIFO depth first, then ring distance from
                # the round-robin cursor (primary key is the *last*
                # lexsort key).
                order = np.lexsort(
                    ((ring_idx - self.cursor) % nrings, within))
                ring_idx = ring_idx[order]
                part = [np.concatenate([p[f] for p in parts])[order]
                        for f in range(4)]
            sizes, flows, addrs, arrivals = part
            nlines = -(-sizes // 64)
            queue = np.maximum(0.0, (self.now - arrivals) * self.freq_scale)
            fresh = (sizes, flows, addrs, arrivals, ring_idx, nlines, queue)
            if self.count:
                fresh = [None if new is None else np.concatenate((old, new))
                         for old, new in zip(
                             (self.sizes, self.flows, self.addrs,
                              self.arrivals, self.ring_idx, self.nlines,
                              self.queue_cycles), fresh)]
            (self.sizes, self.flows, self.addrs, self.arrivals,
             self.ring_idx, self.nlines, self.queue_cycles) = fresh
            self.count += sizes.shape[0]
