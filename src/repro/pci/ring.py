"""Descriptor rings: the Rx/Tx buffer structure behind the Leaky DMA problem.

A DPDK-style Rx ring has a fixed number of descriptor *entries*, each
pointing at a packet buffer (mbuf).  DPDK mempools recycle mbufs, so the
memory footprint the ring exerts on the LLC is approximately::

    entries * mbuf_stride      (mbuf_stride = 2 KiB by default)

though DDIO only *touches* ``ceil(packet_bytes / 64)`` lines per packet.
When the in-flight footprint exceeds the capacity of the DDIO ways,
buffers written by the NIC get evicted to DRAM before the core consumes
them — the "Leaky DMA" problem (paper Sec. III-A).  This emerges
naturally here because each ring slot has a stable address that the DMA
writes and the consumer later reads through the simulated LLC.

The ring stores its queue as structure-of-arrays circular buffers so
producers and consumers can move whole bursts with array ops
(:meth:`DescRing.post_batch` / :meth:`DescRing.peek_batch` /
:meth:`DescRing.consume_batch`); the scalar :meth:`post` / :meth:`peek` /
:meth:`consume` API is preserved on top of the same storage and is
bit-for-bit equivalent.  Address generation for a slot is deterministic
so producer and consumer touch identical cachelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default ring depth used throughout the paper's evaluation (Sec. VI-A).
DEFAULT_RING_ENTRIES = 1024

#: DPDK's default mbuf size: one fixed-stride buffer per descriptor.
MBUF_STRIDE = 2048


@dataclass(frozen=True)
class PacketRecord:
    """One enqueued packet: wire size, flow id, and its buffer address."""

    size: int
    flow_id: int
    buf_addr: int
    arrival: float = 0.0


class DescRing:
    """Bounded Rx/Tx descriptor ring with recycled, fixed-stride buffers.

    ``base_addr`` places the ring's buffer region in the (simulated)
    physical address space; distinct rings must use disjoint regions.

    ``pool_factor`` models the DPDK mempool indirection: descriptors
    point at mbufs drawn from a pool larger than the ring itself
    (l3fwd's default mempool is several times its Rx ring), so the
    buffer addresses the DMA engine touches cycle over
    ``entries * pool_factor`` distinct slots.  This is what makes the
    in-flight cache footprint exceed ``entries * mbuf_stride`` on real
    systems.  Virtio rings have no such indirection (``pool_factor=1``).
    """

    __slots__ = ("entries", "base_addr", "mbuf_stride", "pool_factor",
                 "enqueued", "dequeued", "dropped", "_mask", "_head",
                 "_rd", "_count", "_size", "_flow", "_addr", "_arrival")

    def __init__(self, entries: int = DEFAULT_RING_ENTRIES, *,
                 base_addr: int, mbuf_stride: int = MBUF_STRIDE,
                 pool_factor: int = 1) -> None:
        if entries < 1:
            raise ValueError("ring needs at least one entry")
        if entries & (entries - 1):
            raise ValueError("ring entries must be a power of two")
        if pool_factor < 1:
            raise ValueError("pool_factor must be >= 1")
        self.entries = entries
        self.base_addr = base_addr
        self.mbuf_stride = mbuf_stride
        self.pool_factor = pool_factor
        # SoA circular storage.  ``_rd`` is the monotonically increasing
        # read counter; the queue occupies positions ``_rd .. _rd+_count``
        # (mod entries).  ``_head`` counts accepted posts only — it is the
        # slot index that feeds the deterministic buffer-address recycling.
        self._mask = entries - 1
        self._head = 0
        self._rd = 0
        self._count = 0
        self._size = np.zeros(entries, dtype=np.int64)
        self._flow = np.zeros(entries, dtype=np.int64)
        self._addr = np.zeros(entries, dtype=np.int64)
        self._arrival = np.zeros(entries, dtype=np.float64)
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._count

    @property
    def space(self) -> int:
        return self.entries - self._count

    @property
    def pool_slots(self) -> int:
        return self.entries * self.pool_factor

    @property
    def footprint_bytes(self) -> int:
        """Worst-case buffer-region footprint of this ring's pool."""
        return self.pool_slots * self.mbuf_stride

    def slot_addr(self, slot: int) -> int:
        return self.base_addr + (slot % self.pool_slots) * self.mbuf_stride

    # ------------------------------------------------------------------
    def post(self, size: int, flow_id: int = 0, now: float = 0.0) -> "PacketRecord | None":
        """Enqueue one inbound packet; returns its record, or None on drop."""
        if self._count >= self.entries:
            self.dropped += 1
            return None
        addr = self.slot_addr(self._head)
        idx = (self._rd + self._count) & self._mask
        self._size[idx] = size
        self._flow[idx] = flow_id
        self._addr[idx] = addr
        self._arrival[idx] = now
        self._head += 1
        self._count += 1
        self.enqueued += 1
        return PacketRecord(size=size, flow_id=flow_id, buf_addr=addr,
                            arrival=now)

    def post_addrs(self, m: int) -> "np.ndarray":
        """Buffer addresses of a burst of ``m`` posts, without posting:
        those of the packets :meth:`post_batch` would accept, a prefix
        of the burst once the ring fills."""
        accepted = min(m, self.entries - self._count)
        slots = self._head + np.arange(accepted, dtype=np.int64)
        return self.base_addr + (slots % self.pool_slots) * self.mbuf_stride

    def post_batch(self, sizes, flow_ids, now=0.0) -> "np.ndarray":
        """Enqueue a burst; returns the buffer addresses of the packets
        accepted (always a prefix of the burst — nothing consumes the
        ring concurrently, so once it is full the rest of the burst
        drops), as :meth:`post_addrs` gives them.  Drop/occupancy
        accounting is identical to calling :meth:`post` per packet.
        ``now`` may be a scalar or a per-packet array of arrival stamps.
        """
        n = len(sizes)
        addrs = self.post_addrs(n)
        accepted = addrs.shape[0]
        if accepted < n:
            self.dropped += n - accepted
        if accepted == 0:
            return addrs
        idx = (self._rd + self._count + np.arange(accepted)) & self._mask
        self._size[idx] = sizes[:accepted]
        self._flow[idx] = flow_ids[:accepted]
        self._addr[idx] = addrs
        self._arrival[idx] = now if np.isscalar(now) else now[:accepted]
        self._head += accepted
        self._count += accepted
        self.enqueued += accepted
        return addrs

    def peek(self) -> "PacketRecord | None":
        if not self._count:
            return None
        idx = self._rd & self._mask
        return PacketRecord(size=int(self._size[idx]),
                            flow_id=int(self._flow[idx]),
                            buf_addr=int(self._addr[idx]),
                            arrival=float(self._arrival[idx]))

    def peek_batch(self, limit: "int | None" = None, skip: int = 0):
        """Oldest ``limit`` packets (default: all) after the first
        ``skip``, as parallel arrays ``(sizes, flows, buf_addrs,
        arrivals)``, without consuming them."""
        k = max(0, self._count - skip)
        if limit is not None:
            k = min(limit, k)
        idx = (self._rd + skip + np.arange(k)) & self._mask
        return (self._size[idx], self._flow[idx], self._addr[idx],
                self._arrival[idx])

    def consume(self) -> "PacketRecord | None":
        """Dequeue the oldest packet (consumer side)."""
        record = self.peek()
        if record is None:
            return None
        self._rd += 1
        self._count -= 1
        self.dequeued += 1
        return record

    def consume_batch(self, k: int) -> None:
        """Dequeue the ``k`` oldest packets (the caller already holds
        their fields from :meth:`peek_batch`)."""
        if k > self._count:
            raise ValueError(f"consume_batch({k}) with {self._count} queued")
        self._rd += k
        self._count -= k
        self.dequeued += k

    def reset_counters(self) -> None:
        self.enqueued = self.dequeued = self.dropped = 0
