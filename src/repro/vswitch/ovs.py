"""OVS-DPDK dataplane model for the aggregation tenant-device model.

The switch polls the physical NICs' Rx rings, classifies each packet
(EMC/megaflow, :mod:`.flowtable`), and forwards it into the destination
tenant's virtio ring by copying the buffer — reads through the switch's
CAT mask from the DDIO-written NIC buffer, writes into the virtio
region (allocating in the switch's own ways, like real core writes).

Simplification documented per DESIGN.md: the tenant->NIC return path is
charged as a fixed per-packet cost on the switch without a second buffer
copy (DPDK vhost zero-copy Tx); the reproduction's figures depend on the
Rx path, where DDIO lives.

Fig. 8's metrics come straight from here: IPC from the switch cores'
counters, CPP (cycles per packet) from :attr:`cycles_per_packet`.
"""

from __future__ import annotations

import numpy as np

from ..net.packet import lines_per_packet
from ..pci.ring import DescRing, PacketRecord
from ..workloads.base import CorePort, VectorPlan
from ..workloads.netbase import BUFFER_MLP, RingConsumer
from .flowtable import EMC_HIT_CYCLES, MEGAFLOW_CYCLES, FlowTables

#: Fixed per-packet cost: vhost descriptor handling + return-path Tx.
OVS_INSTRUCTIONS = 450.0
OVS_CYCLES = 150.0


class OvsDataplane(RingConsumer):
    """Poll NIC rings, classify, and forward to per-tenant virtio rings.

    ``routes`` maps a NIC ring's index in ``rings`` to its destination —
    one virtio :class:`DescRing` (the paper's "NIC0->Container0" rules)
    or a list of rings that the port's flows are spread over round-robin
    by flow id (the paper's three-to-five-container variations share the
    two physical ports among more containers).
    """

    def __init__(self, name: str, rings: "list[DescRing]",
                 routes: "dict[int, DescRing | list[DescRing]]", *,
                 emc_entries: int = 8192,
                 core_freq_hz: float = 2.3e9) -> None:
        super().__init__(name, rings, core_freq_hz=core_freq_hz)
        missing = set(range(len(rings))) - set(routes)
        if missing:
            raise ValueError(f"no route for NIC ring(s) {sorted(missing)}")
        self.routes = {index: list(dest) if isinstance(dest, (list, tuple))
                       else [dest]
                       for index, dest in routes.items()}
        for index, dests in self.routes.items():
            if not dests:
                raise ValueError(f"route {index} has no destinations")
            # A vector chunk plans its posts before any of its consumes
            # apply, so a ring it polls must not take its posts.
            if any(dest is ring for dest in dests for ring in rings):
                raise ValueError(f"route {index} leads back into a ring "
                                 f"the switch polls")
        self._emc_entries = emc_entries
        self.tables: "FlowTables | None" = None
        # Destination rings deduplicated (routes may share a ring), with
        # per-source-ring id vectors for array routing.
        self._dest_rings: "list[DescRing]" = []
        dest_id = {}
        self._route_ids = {}
        for index, dests in sorted(self.routes.items()):
            ids = []
            for dest in dests:
                key = id(dest)
                if key not in dest_id:
                    dest_id[key] = len(self._dest_rings)
                    self._dest_rings.append(dest)
                ids.append(dest_id[key])
            self._route_ids[index] = np.asarray(ids, dtype=np.int64)

    def on_bind(self) -> None:
        self.tables = FlowTables(self.region_base,
                                 emc_entries=self._emc_entries)

    def packet_cost(self, port: CorePort, record: PacketRecord, now: float,
                    cycles: float) -> "tuple[float, float]":
        hit, cycles = self.tables.probe(port, record.flow_id, cycles)
        fixed = OVS_CYCLES + (EMC_HIT_CYCLES if hit else MEGAFLOW_CYCLES)
        dests = self.routes[self._consumed_from]
        dest = dests[record.flow_id % len(dests)]
        # Preserve the NIC arrival stamp so the tenant's latency is
        # end-to-end, not virtio-ring-local.
        out = dest.post(record.size, record.flow_id, record.arrival)
        if out is None:
            return OVS_INSTRUCTIONS, cycles + fixed
        # Copy payload into the virtio buffer through the switch's mask
        # (streaming stores overlap, hence the buffer MLP).
        addr = out.buf_addr
        for _ in range(lines_per_packet(record.size)):
            cycles += port.access(addr, write=True, mlp=BUFFER_MLP)
            addr += 64
        return OVS_INSTRUCTIONS, cycles + fixed

    def _dest_ids(self, flows: "np.ndarray",
                  rings: "np.ndarray | None") -> "np.ndarray":
        """Each packet's destination: its index in ``_dest_rings``, from
        its flow and source ring (None with one polled ring)."""
        dest = np.empty(flows.shape[0], dtype=np.int64)
        if rings is None:
            ids = self._route_ids[0]
            dest[:] = ids[0] if ids.shape[0] == 1 \
                else ids[flows % ids.shape[0]]
        else:
            for index in range(len(self.rings)):
                mask = rings == index
                if not mask.any():
                    continue
                ids = self._route_ids[index]
                dest[mask] = ids[0] if ids.shape[0] == 1 \
                    else ids[flows[mask] % ids.shape[0]]
        return dest

    def plan_chunk(self, plan: VectorPlan, port: CorePort, pkts, sizes,
                   flows, addrs, arrivals, rings, now):
        k = pkts.shape[0]
        hit, lookup_fixed = self.tables.lookup_chunk(plan, flows, pkts)
        fixed = OVS_CYCLES + lookup_fixed
        nlines = -(-sizes // 64)
        dest = self._dest_ids(flows, rings)
        # Forward per destination ring: a ring's state depends only on
        # the posts it receives, in chunk order, so the buffer addresses
        # of its next posts (:meth:`DescRing.post_addrs`) and where it
        # starts dropping match the per-packet path; :meth:`_keep` posts
        # the admitted packets.
        # Each packet lands on exactly one ring, so when nothing drops
        # and line counts are uniform the per-ring copy stages collapse
        # into one whole-chunk rank-6 stage — the per-packet line
        # placement is identical (one rank-6 segment per packet either
        # way), and a single identity-packet stage keeps the chunk on
        # VectorPlan's stage-template fast path.
        posts = []
        dropped = False
        for ring_id, ring in enumerate(self._dest_rings):
            where = np.nonzero(dest == ring_id)[0]
            if not where.shape[0]:
                continue
            out_addrs = ring.post_addrs(where.shape[0])
            accepted = out_addrs.shape[0]
            if accepted < where.shape[0]:
                dropped = True
            if accepted:
                posts.append((where[:accepted], out_addrs))
        c0 = int(nlines[0]) if k else 0
        if not dropped and posts and bool((nlines == c0).all()):
            merged = np.empty(k, dtype=np.int64)
            for where_acc, out_addrs in posts:
                merged[where_acc] = out_addrs
            plan.add_batch(merged, c0, pkts=pkts, rank=6, write=True,
                           mlp=BUFFER_MLP)
        else:
            for where_acc, out_addrs in posts:
                nl = nlines[where_acc]
                nl0 = int(nl[0])
                plan.add_batch(out_addrs,
                               nl0 if bool((nl == nl0).all()) else nl,
                               pkts=where_acc, rank=6, write=True,
                               mlp=BUFFER_MLP)
        return OVS_INSTRUCTIONS, fixed

    def _keep(self, backlog, start: int, n: int) -> None:
        """Beyond the rings it polls, a kept packet updates the EMC and
        is posted into its destination ring, whose counters are the
        forwarding counters."""
        super()._keep(backlog, start, n)
        self.tables.keep(n)
        sl = slice(start, start + n)
        sizes = backlog.sizes[sl]
        flows = backlog.flows[sl]
        arrivals = backlog.arrivals[sl]
        dest = self._dest_ids(flows, None if backlog.ring_idx is None
                              else backlog.ring_idx[sl])
        for ring_id, ring in enumerate(self._dest_rings):
            where = np.nonzero(dest == ring_id)[0]
            if where.shape[0]:
                ring.post_batch(sizes[where], flows[where], arrivals[where])

    def transmit(self, port: CorePort, record: PacketRecord) -> None:
        """Forwarding replaces Tx; nothing leaves via the switch here."""

    def plan_transmit_chunk(self, plan: VectorPlan, pkts, sizes, addrs,
                            nlines) -> None:
        """Forwarding replaces Tx (see :meth:`transmit`)."""

    def tx_bytes_of(self, sizes) -> int:
        return 0

    # -- reporting ---------------------------------------------------------
    @property
    def forwarded(self) -> int:
        """Packets posted into the destination rings (only the switch
        posts to them)."""
        return sum(ring.enqueued for ring in self._dest_rings)

    @property
    def output_drops(self) -> int:
        """Packets a full destination ring refused."""
        return sum(ring.dropped for ring in self._dest_rings)

    def cycles_per_packet(self) -> float:
        """Busy CPP over the switch's lifetime (Fig. 8d companion metric)."""
        if self.packets_processed == 0:
            return 0.0
        return self.stats.busy_cycles / self.packets_processed
