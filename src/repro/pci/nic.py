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
        return self.dma_burst([(vf, [size], [flow_id])], llc, ddio_mask,
                              mem, uncore, now) == 1

    def dma_burst(self, bursts, llc, ddio_mask: int, mem, uncore,
                  now: float = 0.0, tracer=None) -> int:
        """Deliver bursts of inbound packets through DDIO as one batch.

        ``bursts`` lists ``(vf, sizes, flow_ids)`` in delivery order.
        Nothing here reads this NIC's own state, so one call carries
        every NIC's bursts: the engine passes all of a sub-step's
        streams at once.  Each burst is first posted to its VF's ring
        with one ring operation (the ring counts drops when it is
        full); posts never touch the LLC.  Then the accepted packets'
        lines, burst by burst and packet by packet with each packet's
        line order preserved, go through DDIO as one LLC batch,
        recorded in ``uncore`` and ``mem`` once.  Batched access follows
        issue order exactly, so this equals delivering the bursts one
        after another, or calling :meth:`dma_packet` once per packet.

        The batch takes the global ``ddio_mask`` as a scalar unless a
        VF sets a Sec. VII knob.  Then each line carries its own mask
        and allocate flag: a VF's ``ddio_mask_override`` replaces its
        lines' mask, and a ``header_only_ddio`` VF writes only each
        packet's first line through DDIO, while its payload lines
        update in place when cached and otherwise go to memory.  Each
        DDIO line counts once in the LLC's DDIO statistics, once in the
        uncore and once in its VF's ``ddio_hits``/``ddio_misses``.
        Callers on the quantum loop pass their cached ``tracer``.
        Returns the number of packets enqueued.
        """
        if tracer is None:
            tracer = current_tracer()
        traced = tracer.enabled
        t0 = tracer.clock() if traced else 0.0
        line = llc.geometry.line_size
        # Per burst with accepted packets: its VF, its lines' addresses
        # and where each packet's first line sits among them (the line
        # count, when every packet has the same).
        parts = []
        special = False
        accepted = 0
        for vf, sizes, flow_ids in bursts:
            sizes = np.asarray(sizes, dtype=np.int64)
            buf_addrs = vf.rx_ring.post_batch(sizes, flow_ids, now)
            n = buf_addrs.shape[0]
            if not n:
                continue
            accepted += n
            nlines = -(-sizes[:n] // line)
            # Flatten to per-line addresses, packet-major: base[k] +
            # line * within-packet index.  Fixed-size bursts (the common
            # case) flatten by broadcasting one line-offset vector.
            c0 = int(nlines[0])
            if bool((nlines == c0).all()):
                addrs = (buf_addrs[:, None]
                         + np.arange(0, c0 * line, line, dtype=np.int64)
                         ).reshape(-1)
                heads = c0
            else:
                heads = np.cumsum(nlines) - nlines
                within = (np.arange(int(nlines.sum()), dtype=np.int64)
                          - np.repeat(heads, nlines))
                addrs = np.repeat(buf_addrs, nlines) + within * line
            parts.append((vf, addrs, heads))
            special = special or vf.header_only_ddio \
                or vf.ddio_mask_override is not None
        if not parts:
            return 0
        addrs = parts[0][1] if len(parts) == 1 \
            else np.concatenate([part[1] for part in parts])
        total = addrs.shape[0]
        if special:
            mask = np.empty(total, dtype=np.int64)
            ddio = np.ones(total, dtype=bool)
            lo = 0
            for vf, part_addrs, heads in parts:
                hi = lo + part_addrs.shape[0]
                vf_mask = ddio_mask if vf.ddio_mask_override is None \
                    else vf.ddio_mask_override
                if vf.header_only_ddio:
                    mask[lo:hi] = 0
                    ddio[lo:hi] = False
                    first = lo + (np.arange(0, hi - lo, heads)
                                  if isinstance(heads, int) else heads)
                    mask[first] = vf_mask
                    ddio[first] = True
                else:
                    mask[lo:hi] = vf_mask
                lo = hi
            out = llc.ddio_write_batch(addrs, mask, ddio)
            hit = out.hit & ddio
            uncore.record_ddio_batch(
                addrs[ddio], hit[ddio],
                None if out.index is None else out.index[ddio])
            # Payload lines that missed were written to memory.
            written = out.writebacks + int(np.count_nonzero(~(out.hit
                                                              | ddio)))
        else:
            out = llc.ddio_write_batch(addrs, ddio_mask)
            hit = out.hit
            ddio = None
            uncore.record_ddio_batch(addrs, hit, out.index)
            written = out.writebacks
        if written:
            mem.add_write(line * written)
        # Split the DDIO hits and writes back per burst.
        starts = np.cumsum([0] + [part[1].shape[0] for part in parts[:-1]])
        hits = np.add.reduceat(hit, starts, dtype=np.int64).tolist()
        writes = np.diff(starts, append=total).tolist() if ddio is None \
            else np.add.reduceat(ddio, starts, dtype=np.int64).tolist()
        for (vf, _, _), h, w in zip(parts, hits, writes):
            vf.ddio_hits += h
            vf.ddio_misses += w - h
        if traced:
            h = sum(hits)
            tracer.complete("dma", "burst", tracer.clock() - t0,
                            bursts=len(parts), packets=accepted,
                            lines=total, ddio_hits=h,
                            ddio_misses=sum(writes) - h)
        return accepted
