"""NIC model with SR-IOV virtual functions and DDIO DMA.

A :class:`Nic` owns a link (bandwidth cap) and one or more
:class:`VirtualFunction` endpoints, mirroring the paper's two
tenant-device models (Sec. II-C):

* *aggregation*: one function, whose ring is polled by a virtual-switch
  workload (OVS) which then forwards to tenants in software;
* *slicing*: several VFs, each ring polled directly by a tenant.

DMA: when a packet arrives, the NIC writes ``ceil(size / line)`` cache
lines of the target ring buffer through the DDIO path —
``SlicedLLC.ddio_write`` — producing DDIO hit (write update) or DDIO
miss (write allocate, with possible dirty eviction to DRAM).  Those
events feed the CHA uncore counters that IAT polls.

Address-space management: each NIC claims a large region and hands out
disjoint sub-regions to its rings, so distinct rings never alias.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache.llc import DDIO_OWNER
from ..obs.tracer import current_tracer
from .ring import DEFAULT_RING_ENTRIES, MBUF_STRIDE, DescRing

#: Ethernet per-packet overhead used for line-rate math (preamble + IFG),
#: as in the paper's Sec. II-B arithmetic (64B + 20B at 100 Gb).
WIRE_OVERHEAD_BYTES = 20


def line_rate_pps(gbps: float, packet_size: int) -> float:
    """Packets/second at ``gbps`` line rate for a given packet size."""
    if packet_size <= 0:
        raise ValueError("packet size must be positive")
    return gbps * 1e9 / 8.0 / (packet_size + WIRE_OVERHEAD_BYTES)


@dataclass
class VirtualFunction:
    """One SR-IOV VF: an Rx ring plus drop/delivery statistics.

    The last two fields implement the paper's Sec. VII "future DDIO
    consideration" extensions, disabled by default:

    * ``ddio_mask_override`` — *device-aware DDIO*: this VF's inbound
      writes allocate only into its own way mask instead of the global
      one ("assign different LLC ways to different PCIe devices, or
      even different queues in a single device, just like what CAT does
      on CPU cores").
    * ``header_only_ddio`` — *application-aware DDIO*: only the first
      cacheline (the packet header) is injected into the LLC; the
      payload goes straight to memory ("an application may enable DDIO
      only for packet header, while leaving the payload to the memory").
    """

    vf_id: int
    rx_ring: DescRing
    name: str = ""
    ddio_mask_override: "int | None" = None
    header_only_ddio: bool = False
    #: Per-VF DDIO statistics (write updates / write allocates).  The
    #: real CHA counters cannot attribute events to devices (paper
    #: Sec. IV-B: "chip-wide metrics ... cannot distinguish"); these are
    #: simulator-side diagnostics used by the Sec. VII extension study.
    ddio_hits: int = 0
    ddio_misses: int = 0

    @property
    def drops(self) -> int:
        return self.rx_ring.dropped

    @property
    def delivered(self) -> int:
        return self.rx_ring.enqueued

    @property
    def ddio_hit_rate(self) -> float:
        total = self.ddio_hits + self.ddio_misses
        return self.ddio_hits / total if total else 0.0


@dataclass
class Nic:
    """A physical NIC: link capacity and a set of VFs.

    ``region_base``/``region_size`` delimit this NIC's buffer address
    space; rings are carved from it sequentially.
    """

    name: str
    link_gbps: float
    region_base: int
    region_size: int = 1 << 30
    vfs: "list[VirtualFunction]" = field(default_factory=list)
    _next_offset: int = 0

    def add_vf(self, *, entries: int = DEFAULT_RING_ENTRIES,
               mbuf_stride: int = MBUF_STRIDE, pool_factor: int = 2,
               name: str = "") -> VirtualFunction:
        """Create a VF with its own Rx ring in a fresh buffer sub-region.

        ``pool_factor=2`` reflects the DPDK mempool being larger than
        the ring (see :class:`DescRing`).
        """
        footprint = entries * mbuf_stride * pool_factor
        if self._next_offset + footprint > self.region_size:
            raise ValueError(f"NIC {self.name}: buffer region exhausted")
        ring = DescRing(entries, base_addr=self.region_base + self._next_offset,
                        mbuf_stride=mbuf_stride, pool_factor=pool_factor)
        self._next_offset += footprint
        vf = VirtualFunction(vf_id=len(self.vfs), rx_ring=ring,
                             name=name or f"{self.name}.vf{len(self.vfs)}")
        self.vfs.append(vf)
        return vf

    def dma_packet(self, vf: VirtualFunction, size: int, flow_id: int,
                   llc, ddio_mask: int, mem, uncore, now: float = 0.0) -> bool:
        """Deliver one inbound packet into ``vf``'s ring through DDIO.

        Returns True if enqueued, False if the ring was full (packet
        drop).  On success, writes each touched cacheline via DDIO and
        records hit/miss in ``uncore`` plus writeback traffic in ``mem``.

        Honors the VF's Sec. VII extension knobs: a per-device way-mask
        override, and header-only injection (payload lines bypass the
        LLC and go straight to memory, like a DDIO-disabled write).
        """
        return self.dma_burst(vf, [size], [flow_id], llc, ddio_mask, mem,
                              uncore, now) == 1

    def dma_burst(self, vf: VirtualFunction, sizes, flow_ids, llc,
                  ddio_mask: int, mem, uncore, now: float = 0.0,
                  tracer=None) -> int:
        """Deliver a burst of inbound packets into ``vf``'s ring.

        Posts the whole burst with one ring operation (drops are counted
        by the ring when it is full), then issues all touched cachelines
        as one interleaved DDIO batch — per-packet line order preserved —
        with aggregate uncore/memory accounting.  Equivalent to calling
        :meth:`dma_packet` once per packet; the per-VF extension knobs
        (``ddio_mask_override``, ``header_only_ddio``) are resolved once
        per burst instead of once per line.  Callers on the quantum loop
        pass their cached ``tracer`` so the disabled-tracing path costs
        one attribute load; ``tracer.enabled`` is itself cached in a
        local, so the sampled/disabled path pays a single flag read per
        burst.  Returns the number of packets enqueued.
        """
        if tracer is None:
            tracer = current_tracer()
        traced = tracer.enabled
        t0 = tracer.clock() if traced else 0.0
        # Hoisted Sec. VII knobs: resolved once for the whole burst.
        if vf.ddio_mask_override is not None:
            ddio_mask = vf.ddio_mask_override
        header_only = vf.header_only_ddio
        sizes = np.asarray(sizes, dtype=np.int64)
        buf_addrs = vf.rx_ring.post_batch(sizes, flow_ids, now)
        accepted = buf_addrs.shape[0]
        if accepted == 0:
            return 0
        line = llc.geometry.line_size
        nlines = -(-sizes[:accepted] // line)
        total = int(nlines.sum())
        # Flatten to per-line addresses, packet-major, line order within
        # each packet preserved: base[k] + line * within-packet index.
        # Fixed-size bursts (the common case) flatten by broadcasting the
        # line-offset vector against the bases, skipping the
        # cumsum/repeat chain needed for ragged line counts.
        c0 = int(nlines[0])
        if bool((nlines == c0).all()):
            offsets = np.arange(c0, dtype=np.int64) * line
            addrs = (buf_addrs[:, None] + offsets).reshape(-1)
            within = None
        else:
            starts = np.concatenate(([0], np.cumsum(nlines)[:-1]))
            within = (np.arange(total, dtype=np.int64)
                      - np.repeat(starts, nlines))
            addrs = np.repeat(buf_addrs, nlines) + within * line
        if not header_only:
            out = llc.ddio_write_batch(addrs, ddio_mask)
            uncore.record_ddio_batch(addrs, out.hit, out.index)
            hits = out.hits
            vf.ddio_hits += hits
            vf.ddio_misses += out.misses
            if out.writebacks:
                mem.add_write(line * out.writebacks)
            if traced:
                tracer.complete("dma", "burst", tracer.clock() - t0,
                                vf=vf.name, packets=accepted, lines=total,
                                ddio_hits=hits, ddio_misses=total - hits)
            return accepted
        # Header-only DDIO: the first line of each packet goes through
        # the DDIO path; payload lines bypass the cache (update in place
        # if cached, else the write lands in DRAM without allocating).
        if within is None:
            header = np.zeros(total, dtype=bool)
            header[::c0] = True
        else:
            header = within == 0
        out = llc.access_batch(addrs, np.where(header, ddio_mask, 0),
                               write=True, owner=DDIO_OWNER,
                               allocate=header)
        header_hit = out.hit[header]
        uncore.record_ddio_batch(
            addrs[header], header_hit,
            None if out.index is None else out.index[header])
        ddio_hits = int(np.count_nonzero(header_hit))
        vf.ddio_hits += ddio_hits
        vf.ddio_misses += int(header.sum()) - ddio_hits
        writebacks = int(np.count_nonzero(out.writeback))
        if writebacks:
            mem.add_write(line * writebacks)
        payload_misses = int(np.count_nonzero(~out.hit[~header]))
        if payload_misses:
            mem.add_write(line * payload_misses)
        if traced:
            tracer.complete("dma", "burst", tracer.clock() - t0,
                            vf=vf.name, packets=accepted, lines=total,
                            ddio_hits=ddio_hits,
                            ddio_misses=int(header.sum()) - ddio_hits)
        return accepted
