"""DPDK *l3fwd*: routing against a flow table (paper Sec. III-A).

The paper's Fig. 3 experiment runs l3fwd on one core with a 1M-flow
table "to emulate real traffic": each packet's header is hashed and
looked up; a 1M-entry exact-match table at 64 B/entry is a 64 MB
structure, far larger than the LLC, so lookups are miss-heavy and the
core is the bottleneck for small packets — which is exactly what makes
shallow Rx rings overflow under small-packet traffic.
"""

from __future__ import annotations

import numpy as np

from ..pci.ring import DescRing, PacketRecord
from .base import CorePort, VectorPlan
from .netbase import RingConsumer

#: Header parse + hash + route update per packet.
L3FWD_INSTRUCTIONS = 220.0
L3FWD_CYCLES = 90.0

#: Bytes per exact-match flow-table entry (one cacheline).
FLOW_ENTRY_BYTES = 64


class L3Fwd(RingConsumer):
    """Flow-table forwarder with a configurable flow population."""

    def __init__(self, name: str, rings: "list[DescRing]", *,
                 n_flows: int = 1_000_000, core_freq_hz: float = 2.3e9,
                 stall_period: float = 0.0,
                 stall_durations: "tuple[float, ...]" = (0.005, 0.02, 0.08)) -> None:
        super().__init__(name, rings, core_freq_hz=core_freq_hz,
                         stall_period=stall_period,
                         stall_durations=stall_durations)
        if n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        self.n_flows = n_flows

    @property
    def table_bytes(self) -> int:
        return self.n_flows * FLOW_ENTRY_BYTES

    def prefill(self) -> None:
        # Warm the popular head of the flow table (Zipf puts the mass at
        # the low flow ids, which sit at the low table addresses).
        self.warm_region(self.region_base,
                         min(self.table_bytes, 8 << 20))

    def _entry_addr(self, flow_id: int) -> int:
        return self.region_base + (flow_id % self.n_flows) * FLOW_ENTRY_BYTES

    def packet_cost(self, port: CorePort, record: PacketRecord, now: float,
                    cycles: float) -> "tuple[float, float]":
        cycles += port.access(self._entry_addr(record.flow_id))
        return L3FWD_INSTRUCTIONS, cycles + L3FWD_CYCLES

    def plan_chunk(self, plan: VectorPlan, port: CorePort, pkts, sizes,
                   flows, addrs, arrivals, rings, now):
        k = pkts.shape[0]
        entries = self.region_base + (flows % self.n_flows) * FLOW_ENTRY_BYTES
        plan.add_batch(entries, 1, pkts=pkts, rank=1)
        return L3FWD_INSTRUCTIONS, np.full(k, L3FWD_CYCLES)
