"""Redis: network-attached in-memory KVS (paper Sec. VI-C).

The paper runs two Redis containers behind OVS and drives them with YCSB
from traffic-generator machines (1M preloaded records of 1 KB).  Here a
Redis server is a :class:`RingConsumer` whose "packets" are YCSB
requests: the request's flow id selects the key (the traffic generator
draws flow ids Zipf(0.99), matching YCSB's distribution), the op type is
drawn from the workload mix, and the served value is read/written from a
1 GB dataset region — of which only the hot Zipfian head is
LLC-resident.  Responses are transmitted by device read, so a value that
has been evicted by inbound DDIO traffic costs both a core miss and a
DRAM read on the way out — the mechanism behind Fig. 14's latency tail.
"""

from __future__ import annotations

import numpy as np

from ..pci.ring import DescRing, PacketRecord
from .base import CorePort, VectorPlan
from .netbase import RingConsumer
from .ycsb import OpType, YcsbMix

#: Paper's preload: 1M records, 1KB each.
DEFAULT_RECORDS = 1_000_000
DEFAULT_VALUE_BYTES = 1024

#: Protocol parse + hashtable probe + reply build per request.  With the
#: DPDK-ANS stack of the paper's setup there are no kernel crossings, so
#: the per-op core cost is small and the OVS datapath — not Redis — is
#: the serving bottleneck.
REDIS_INSTRUCTIONS_PER_OP = 400.0
REDIS_OVERHEAD_CYCLES = 140.0

#: Bytes per hashtable bucket entry (one line).
BUCKET_BYTES = 64

#: Streaming MLP of a contiguous 1 KB value copy.
VALUE_MLP = 8.0


class RedisServer(RingConsumer):
    """Single-threaded Redis event loop serving YCSB requests from rings."""

    def __init__(self, name: str, rings: "list[DescRing]", mix: YcsbMix, *,
                 n_records: int = DEFAULT_RECORDS,
                 value_bytes: int = DEFAULT_VALUE_BYTES,
                 core_freq_hz: float = 2.3e9) -> None:
        super().__init__(name, rings, core_freq_hz=core_freq_hz)
        self.mix = mix
        self.n_records = n_records
        self.value_bytes = value_bytes

    def on_bind(self) -> None:
        self._buckets_bytes = self.n_records * BUCKET_BYTES
        self._values_base = self.region_base + self._buckets_bytes

    def prefill(self) -> None:
        # Warm the bucket array head and the hottest values (Zipf mass
        # sits at the low key ids).
        self.warm_region(self.region_base, min(self._buckets_bytes, 4 << 20))
        self.warm_region(self._values_base,
                         min(self.n_records * self.value_bytes, 8 << 20))

    #: Requests larger than this carry a value payload (a SET); smaller
    #: ones are GETs.  The traffic generator encodes the YCSB mix's
    #: write share in the packet-size split (see
    #: ``experiments.common.kvs_scenario``).
    WRITE_REQUEST_THRESHOLD = 512

    def _op_for(self, record: PacketRecord) -> OpType:
        if record.size > self.WRITE_REQUEST_THRESHOLD:
            return OpType.UPDATE
        return OpType.READ

    def _value_addr(self, key: int) -> int:
        return self._values_base + (key % self.n_records) * self.value_bytes

    def packet_cost(self, port: CorePort, record: PacketRecord, now: float,
                    cycles: float) -> "tuple[float, float]":
        key = record.flow_id % self.n_records
        op = self._op_for(record)
        # Hashtable probe: one bucket line.
        cycles += port.access(self.region_base + key * BUCKET_BYTES)
        write = op in (OpType.UPDATE, OpType.INSERT, OpType.RMW)
        read = op in (OpType.READ, OpType.SCAN, OpType.RMW) or not write
        addr = self._value_addr(key)
        nlines = -(-self.value_bytes // 64)
        if read:
            scan = addr
            for _ in range(nlines):
                cycles += port.access(scan, mlp=VALUE_MLP)
                scan += 64
        if write:
            scan = addr
            for _ in range(nlines):
                cycles += port.access(scan, write=True, mlp=VALUE_MLP)
                scan += 64
        return REDIS_INSTRUCTIONS_PER_OP, cycles + REDIS_OVERHEAD_CYCLES

    def transmit(self, port: CorePort, record: PacketRecord) -> None:
        """Reply Tx: the NIC pulls the response (header-sized here; the
        value bytes were already touched during service)."""
        port.read_line_for_device(record.buf_addr)
        self.tx_bytes += self.value_bytes

    # -- vector drain ------------------------------------------------------
    def plan_chunk(self, plan: VectorPlan, port: CorePort, pkts, sizes,
                   flows, addrs, arrivals, rings, now):
        k = pkts.shape[0]
        keys = flows % self.n_records
        plan.add_batch(self.region_base + keys * BUCKET_BYTES, 1,
                       pkts=pkts, rank=1)
        nlines = -(-self.value_bytes // 64)
        vaddrs = self._values_base + keys * self.value_bytes
        is_write = sizes > self.WRITE_REQUEST_THRESHOLD
        reads = np.nonzero(~is_write)[0]
        if reads.shape[0]:
            plan.add_batch(vaddrs[reads], nlines, pkts=pkts[reads],
                           rank=2, mlp=VALUE_MLP)
        writes = np.nonzero(is_write)[0]
        if writes.shape[0]:
            plan.add_batch(vaddrs[writes], nlines, pkts=pkts[writes],
                           rank=3, write=True, mlp=VALUE_MLP)
        return REDIS_INSTRUCTIONS_PER_OP, np.full(
            k, REDIS_OVERHEAD_CYCLES)

    def plan_transmit_chunk(self, plan: VectorPlan, pkts, sizes, addrs,
                            nlines) -> None:
        plan.add_batch(addrs, 1, pkts=pkts, rank=self.TX_RANK,
                       device=True)

    def tx_bytes_of(self, sizes) -> int:
        return self.value_bytes * sizes.shape[0]

    # -- reporting ---------------------------------------------------------
    def throughput_ops(self, elapsed_seconds: float,
                       time_scale: float = 1.0) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return self.stats.ops / elapsed_seconds / time_scale

    def avg_latency_us(self) -> float:
        if self.stats.ops == 0:
            return 0.0
        return self.stats.avg_latency_cycles / self.core_freq_hz * 1e6

    def p99_latency_us(self) -> float:
        return self.stats.percentile_latency(99.0) / self.core_freq_hz * 1e6
