"""DPDK *testpmd*: the minimal forwarding app used in the paper's
microbenchmarks ("a simple program that bounces back the Rx traffic",
Sec. VI-B).

Per packet it only touches the buffer (handled by the base class) plus a
small fixed descriptor-handling cost, then bounces the packet out.
"""

from __future__ import annotations

import numpy as np

from ..pci.ring import PacketRecord
from .base import CorePort, VectorPlan
from .netbase import RingConsumer

#: Fixed per-packet descriptor/mbuf handling cost.
TESTPMD_INSTRUCTIONS = 120.0
TESTPMD_CYCLES = 60.0


class TestPmd(RingConsumer):
    """Bounce-back forwarder: Rx, touch buffer, Tx."""

    #: Not a pytest class despite the DPDK-given name.
    __test__ = False

    def packet_cost(self, port: CorePort, record: PacketRecord, now: float,
                    cycles: float) -> "tuple[float, float]":
        return TESTPMD_INSTRUCTIONS, cycles + TESTPMD_CYCLES

    def plan_chunk(self, plan: VectorPlan, port: CorePort, pkts, sizes,
                   flows, addrs, arrivals, rings, now):
        k = pkts.shape[0]
        return TESTPMD_INSTRUCTIONS, np.full(k, TESTPMD_CYCLES)
