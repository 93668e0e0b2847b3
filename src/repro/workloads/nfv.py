"""FastClick NFV service chain (paper Sec. VI-C).

The paper's chain has three stateful network functions, each container
processing one VLAN's traffic from its own SR-IOV VF:

1. a classifier-based **firewall** — linear rule evaluation over a small
   rule table,
2. **flow stats** (AggregateIPFlows) — one per-flow state record updated
   per packet, footprint grows with the live flow count,
3. **NAPT** — one translation-table entry per flow.

Each per-flow structure is one cacheline, so the chain's LLC footprint
scales with the flow population, and buffer reads dominate for MTU-sized
packets — which is why the paper's FastClick scenario stresses DDIO ways
harder than Redis does (Fig. 12 discussion).
"""

from __future__ import annotations

import numpy as np

from ..pci.ring import DescRing, PacketRecord
from .base import CorePort, VectorPlan
from .netbase import RingConsumer

#: Firewall rules evaluated per packet (classifier walk).
DEFAULT_RULES = 64
RULE_BYTES = 64
#: Rules per cacheline worth of classifier program.
RULES_PER_LINE = 8

FLOW_ENTRY_BYTES = 64
NAPT_ENTRY_BYTES = 64

#: Per-packet instruction cost of the three-NF chain.
NFV_INSTRUCTIONS = 600.0
NFV_CYCLES = 240.0


class NfvChain(RingConsumer):
    """Firewall -> flow-stats -> NAPT over one VF's traffic."""

    def __init__(self, name: str, rings: "list[DescRing]", *,
                 n_flows: int = 4096, n_rules: int = DEFAULT_RULES,
                 core_freq_hz: float = 2.3e9) -> None:
        super().__init__(name, rings, core_freq_hz=core_freq_hz)
        if n_flows < 1 or n_rules < 1:
            raise ValueError("need at least one flow and one rule")
        self.n_flows = n_flows
        self.n_rules = n_rules

    def on_bind(self) -> None:
        rule_lines = -(-self.n_rules // RULES_PER_LINE)
        self._rules_base = self.region_base
        self._flows_base = self.region_base + rule_lines * 64
        self._napt_base = self._flows_base + self.n_flows * FLOW_ENTRY_BYTES
        # Firewall: scan half the rule lines on average.
        self._scan_lines = max(1, rule_lines // 2)

    def packet_cost(self, port: CorePort, record: PacketRecord, now: float,
                    cycles: float) -> "tuple[float, float]":
        addr = self._rules_base
        for _ in range(self._scan_lines):
            cycles += port.access(addr)
            addr += 64
        flow = record.flow_id % self.n_flows
        # Flow stats: read-modify-write the per-flow record.
        cycles += port.access(self._flows_base + flow * FLOW_ENTRY_BYTES,
                              write=True)
        # NAPT: translation lookup.
        cycles += port.access(self._napt_base + flow * NAPT_ENTRY_BYTES)
        return NFV_INSTRUCTIONS, cycles + NFV_CYCLES

    def plan_chunk(self, plan: VectorPlan, port: CorePort, pkts, sizes,
                   flows, addrs, arrivals, rings, now):
        k = pkts.shape[0]
        plan.add_batch(np.full(k, self._rules_base, dtype=np.int64),
                       self._scan_lines, pkts=pkts, rank=1)
        flow = flows % self.n_flows
        plan.add_batch(self._flows_base + flow * FLOW_ENTRY_BYTES, 1,
                       pkts=pkts, rank=2, write=True)
        plan.add_batch(self._napt_base + flow * NAPT_ENTRY_BYTES, 1,
                       pkts=pkts, rank=3)
        return NFV_INSTRUCTIONS, np.full(k, NFV_CYCLES)
