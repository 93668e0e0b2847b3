"""RocksDB as configured in the paper: a pure-memtable key-value store.

Sec. VI-C: "To avoid any storage I/O operations, we only load 10K
records (1KB per record) so that all records are in RocksDB's memtable."
The memtable is a skiplist; a get/put walks ~log2(n) tower nodes
(dependent pointer chase) and then touches the 1 KB value (16 lines).
The whole structure is ~10 MB + node overhead — a classic LLC-sensitive
tenant, which is why inbound DDIO traffic evicting it hurts (Fig. 13).

Latency is reported per YCSB op type so the paper's *normalized weighted
average latency* can be computed (each type normalized to its solo-run
latency, then weighted by the mix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import (CorePort, PKT_IOTA, VectorPlan, Workload,
                   seq_accumulate)
from .streams import uniform_lines
from .ycsb import OpType, SCAN_LENGTH, YcsbMix, YcsbOpStream

#: Paper's load: 10K records of 1KB.
DEFAULT_RECORDS = 10_000
DEFAULT_VALUE_BYTES = 1024

#: Skiplist node size (key + tower pointers), one line.
NODE_BYTES = 64

#: Instruction cost per op (key compare loop, memtable bookkeeping).
ROCKSDB_INSTRUCTIONS_PER_OP = 900.0
ROCKSDB_OVERHEAD_CYCLES = 350.0

_BATCH = 64


@dataclass
class OpLatency:
    """Latency accumulator for one YCSB op type."""

    count: int = 0
    total_cycles: float = 0.0

    @property
    def avg(self) -> float:
        return self.total_cycles / self.count if self.count else 0.0


class RocksDb(Workload):
    """Memtable-only RocksDB driven by a YCSB op stream on its own core."""

    def __init__(self, name: str, mix: YcsbMix, *,
                 n_records: int = DEFAULT_RECORDS,
                 value_bytes: int = DEFAULT_VALUE_BYTES,
                 core_freq_hz: float = 2.3e9) -> None:
        super().__init__(name)
        self.mix = mix
        self.n_records = n_records
        self.value_bytes = value_bytes
        self.core_freq_hz = core_freq_hz
        self.skiplist_depth = max(1, int(math.log2(max(2, n_records))))
        self.per_op: "dict[OpType, OpLatency]" = {
            op: OpLatency() for op in OpType}
        self._stream: "YcsbOpStream | None" = None

    def on_bind(self) -> None:
        self._stream = YcsbOpStream(self.mix, self.n_records, self.rng)
        # (read passes, write passes) per draw_arrays op index.
        self._passes = np.array([self._OP_PASSES[op]
                                 for op in self._stream.ops], dtype=np.int64)
        # Region layout: skiplist nodes first, then values.
        self._nodes_bytes = 2 * self.n_records * NODE_BYTES
        self._values_base = self.region_base + self._nodes_bytes

    def prefill(self) -> None:
        self.warm_region(self.region_base, self._nodes_bytes)
        self.warm_region(self._values_base,
                         self.n_records * self.value_bytes)

    def _value_addr(self, key: int) -> int:
        return self._values_base + (key % self.n_records) * self.value_bytes

    #: Streaming MLP of a contiguous 1 KB value copy.
    VALUE_MLP = 4.0

    def _touch_value(self, port: CorePort, key: int, cycles: float, *,
                     write: bool) -> float:
        """Copy one value, adding each line's latency onto ``cycles``."""
        addr = self._value_addr(key)
        for _ in range(-(-self.value_bytes // 64)):
            cycles += port.access(addr, write=write, mlp=self.VALUE_MLP)
            addr += 64
        return cycles

    def _one_op(self, port: CorePort, op: OpType, key: int,
                walk_addrs: "np.ndarray") -> float:
        """One op against pre-drawn skiplist addresses.  Every line's
        latency accumulates from zero in issue order with the fixed
        overhead added last — the float grouping the vectorized plan
        execution produces."""
        cycles = 0.0
        for addr in walk_addrs.tolist():
            cycles += port.access(int(addr))
        if op in (OpType.READ, OpType.SCAN):
            reads = SCAN_LENGTH if op is OpType.SCAN else 1
            for i in range(reads):
                cycles = self._touch_value(port, key + i, cycles,
                                           write=False)
        elif op in (OpType.UPDATE, OpType.INSERT):
            cycles = self._touch_value(port, key, cycles, write=True)
        else:  # read-modify-write
            cycles = self._touch_value(port, key, cycles, write=False)
            cycles = self._touch_value(port, key, cycles, write=True)
        return cycles + ROCKSDB_OVERHEAD_CYCLES

    #: Value passes per op type: (read passes, write passes).
    _OP_PASSES = {OpType.READ: (1, 0), OpType.SCAN: (SCAN_LENGTH, 0),
                  OpType.UPDATE: (0, 1), OpType.INSERT: (0, 1),
                  OpType.RMW: (1, 1)}

    def _draw(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Pre-draw one batch of ops and their skiplist walks.  Both
        loops draw whole batches, so the RNG stream is mode-independent
        (ops a sub-step's budget cuts off are discarded)."""
        op_idx, keys = self._stream.draw_arrays(_BATCH)
        walks = uniform_lines(self.rng, self.region_base,
                              self._nodes_bytes, _BATCH * self.skiplist_depth)
        return op_idx, keys, walks

    def run_core(self, port: CorePort, budget_cycles: float,
                 now: float) -> None:
        if self.exec_mode == "vector":
            self._run_core_vector(port, budget_cycles)
            return
        used = 0.0
        ops = 0
        op_types = self._stream.ops
        depth = self.skiplist_depth
        while used < budget_cycles:
            op_idx, keys, walks = self._draw()
            for i in range(_BATCH):
                op = op_types[int(op_idx[i])]
                latency = self._one_op(
                    port, op, int(keys[i]),
                    walks[i * depth:(i + 1) * depth])
                used += latency
                ops += 1
                acc = self.per_op[op]
                acc.count += 1
                acc.total_cycles += latency
                self.stats.record_op(latency)
                if used >= budget_cycles:
                    break
        port.charge(ops * ROCKSDB_INSTRUCTIONS_PER_OP, used)

    def _plan_draw(self, op_idx, keys, walks):
        """Materialize a whole draw's line stream, op-major in the scalar
        loop's issue order; returns the flat plan arrays and each op's
        first line (``bounds[i] .. bounds[i + 1]`` are op ``i``'s lines).

        The plan is built fresh per draw: its stages are ragged and op
        mixes never repeat, so it takes VectorPlan's uncached keyed
        build and a reused plan would carry nothing over.
        """
        depth = self.skiplist_depth
        value_lines = -(-self.value_bytes // 64)
        passes = self._passes[op_idx]
        reads = passes[:, 0]
        writes = passes[:, 1]
        ops = PKT_IOTA[:_BATCH]
        plan = VectorPlan()
        plan.add_batch(walks, 1, pkts=np.repeat(ops, depth), rank=0)
        total_reads = int(reads.sum())
        if total_reads:
            starts = np.cumsum(reads) - reads
            within = np.arange(total_reads, dtype=np.int64) \
                - np.repeat(starts, reads)
            scan_keys = np.repeat(keys, reads) + within
            plan.add_batch(self._values_base
                           + (scan_keys % self.n_records) * self.value_bytes,
                           value_lines, pkts=np.repeat(ops, reads),
                           rank=1, mlp=self.VALUE_MLP)
        writers = np.nonzero(writes)[0]
        if writers.shape[0]:
            plan.add_batch(self._values_base
                           + (keys[writers] % self.n_records)
                           * self.value_bytes,
                           value_lines, pkts=writers, rank=2, write=True,
                           mlp=self.VALUE_MLP)
        bounds = np.zeros(_BATCH + 1, dtype=np.int64)
        np.cumsum(depth + (reads + writes) * value_lines, out=bounds[1:])
        return plan.materialize(), bounds.tolist()

    def _run_core_vector(self, port: CorePort, budget_cycles: float) -> None:
        """Vectorized twin of the scalar loop: identical draws, access
        order, and float accumulation.  Each draw's line stream is
        planned once; its ops then run as journaled run-ahead chunks
        (:meth:`Workload._run_ahead`) admitted by the scalar loop's own
        test — op ``i`` runs iff the cycles used before it are under
        budget — so a chunk is one contiguous slice of the draw's
        lines, and a cut chunk keeps a shorter one.  The lines' packet
        slots are op indices within the draw."""
        used = 0.0
        ops = 0
        op_types = self._stream.ops
        stats = self.stats

        def execute(n: int) -> "np.ndarray":
            lo = bounds[start]
            hi = bounds[start + n]
            # Bins below ``start`` stay empty; the slice is the chunk's
            # per-op memory cycles.
            cycles = port.run_lines(addrs[lo:hi], write[lo:hi],
                                    mlp_inv[lo:hi], None, pkt[lo:hi],
                                    start + n)
            return cycles[start:] + ROCKSDB_OVERHEAD_CYCLES

        def admit(service) -> int:
            return self._admit_budget(service, used, budget_cycles)

        def slot(n: int) -> int:
            return start + n

        while used < budget_cycles:
            op_idx, keys, walks = self._draw()
            (addrs, write, mlp_inv, _, pkt), bounds = self._plan_draw(
                op_idx, keys, walks)
            start = 0
            while start < _BATCH and used < budget_cycles:
                k, service = self._run_ahead(
                    port, min(self._spec_size(budget_cycles - used),
                              _BATCH - start), execute, admit, slot)
                service = service[:k]
                used = seq_accumulate(used, service)
                ops += k
                chunk_ops = op_idx[start:start + k]
                for idx, op in enumerate(op_types):
                    mask = chunk_ops == idx
                    count = int(np.count_nonzero(mask))
                    if count:
                        acc = self.per_op[op]
                        acc.count += count
                        acc.total_cycles = seq_accumulate(
                            acc.total_cycles, service[mask])
                stats.ops += k
                stats.latency_sum_cycles = seq_accumulate(
                    stats.latency_sum_cycles, service)
                start += k
        port.charge(ops * ROCKSDB_INSTRUCTIONS_PER_OP, used)

    # -- reporting ---------------------------------------------------------
    def weighted_latency_vs(self, solo: "RocksDb") -> float:
        """Paper Fig. 13 metric: per-op-type latency normalized to a solo
        run, weighted by the mix proportions."""
        weighted = 0.0
        for op, share in self.mix.proportions.items():
            mine = self.per_op[op].avg
            theirs = solo.per_op[op].avg
            if theirs > 0:
                weighted += share * (mine / theirs)
            else:
                weighted += share
        return weighted

    def throughput_ops(self, elapsed_seconds: float,
                       time_scale: float = 1.0) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return self.stats.ops / elapsed_seconds / time_scale
