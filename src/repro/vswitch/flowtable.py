"""OVS lookup structures: exact-match cache (EMC) and megaflow table.

Open vSwitch's userspace datapath looks packets up in a small
exact-match cache first; misses fall back to the (slower, larger)
wildcard megaflow classifier (Pfaff et al., NSDI'15).  The paper's
Fig. 9 leans on exactly this: "with more flows, the IPC and CPP
inevitably worsen since OVS's design leads to more (slower) wildcarding
lookups instead of pure (faster) exact match lookups", and the growing
flow table demands more LLC ways.

Both tables here are *real* memory regions probed through the simulated
LLC, so their footprint and thrash behaviour are emergent:

* EMC: direct-mapped, ``entries`` slots of one line each; a collision
  evicts the previous flow (tag replacement), so populations larger
  than the EMC thrash it naturally.
* Megaflow: hash-addressed region of two-line entries probed a few
  times per lookup (tuple-space search).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.base import CorePort, VectorPlan

#: OVS default EMC size.
EMC_ENTRIES = 8192
EMC_ENTRY_BYTES = 64

MEGAFLOW_ENTRY_BYTES = 128
#: Average subtable probes per megaflow lookup (tuple-space search).
MEGAFLOW_PROBES = 3

#: Cycle cost beyond memory accesses.
EMC_HIT_CYCLES = 45.0
MEGAFLOW_CYCLES = 180.0


@dataclass
class LookupResult:
    emc_hit: bool
    cycles: float


class FlowTables:
    """EMC + megaflow lookup path bound to one address region."""

    def __init__(self, region_base: int, *, emc_entries: int = EMC_ENTRIES,
                 megaflow_capacity: int = 1 << 20) -> None:
        if emc_entries < 1 or megaflow_capacity < 1:
            raise ValueError("table sizes must be positive")
        self.emc_entries = emc_entries
        self.megaflow_capacity = megaflow_capacity
        self._emc_tags = np.full(emc_entries, -1, dtype=np.int64)
        self._emc_base = region_base
        self._mega_base = region_base + emc_entries * EMC_ENTRY_BYTES
        self.emc_hits = 0
        self.emc_misses = 0
        # The last lookup_chunk's lookups, which keep() applies: their
        # hit flags; in slot order, their slots, flows and chunk
        # positions, and which one ends each slot's run.  A single-flow
        # chunk holds its one slot and flow, and None for the rest.
        self._pending: "tuple | None" = None

    def lookup(self, port: CorePort, flow_id: int) -> LookupResult:
        """Look one packet up, issuing the table's memory accesses;
        ``cycles`` is their latency plus the lookup's fixed cost."""
        hit, cycles = self.probe(port, flow_id, 0.0)
        return LookupResult(hit, cycles + (EMC_HIT_CYCLES if hit
                                           else MEGAFLOW_CYCLES))

    def probe(self, port: CorePort, flow_id: int,
              cycles: float) -> "tuple[bool, float]":
        """Issue one lookup's memory accesses, adding each latency onto
        ``cycles`` in issue order; returns ``(emc_hit, cycles)`` without
        the fixed cost (:data:`EMC_HIT_CYCLES` on a hit, else
        :data:`MEGAFLOW_CYCLES`), which callers add last."""
        slot = flow_id % self.emc_entries
        cycles += port.access(self._emc_base + slot * EMC_ENTRY_BYTES)
        tag = int(self._emc_tags[slot])
        if tag == flow_id:
            self.emc_hits += 1
            return True, cycles
        # EMC miss: wildcard lookup, then install into the EMC slot.
        self.emc_misses += 1
        self._emc_tags[slot] = flow_id
        entry = self._mega_base + (flow_id % self.megaflow_capacity) \
            * MEGAFLOW_ENTRY_BYTES
        for probe in range(MEGAFLOW_PROBES):
            cycles += port.access(entry + (probe % 2) * 64)
        cycles += port.access(self._emc_base + slot * EMC_ENTRY_BYTES,
                              write=True)
        return False, cycles

    def lookup_chunk(self, plan: VectorPlan, flow_ids: "np.ndarray",
                     pkts: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized twin of :meth:`probe` over a whole chunk: stages the
        same accesses, in the same per-packet order, into ``plan``
        instead of issuing them, and leaves the EMC untouched until
        :meth:`keep` applies the lookups a drain admits.

        Sequential EMC semantics are reproduced with a prev-occurrence
        scan: packet ``p`` hits iff the tag its slot holds just before
        ``p`` equals its flow — that tag is the flow of the last earlier
        same-slot packet in the chunk, else the stored tag (every lookup
        leaves the slot holding its own flow, hit or miss).  Returns the
        per-packet ``(hit, fixed_cycles)`` arrays; plan stages use ranks
        1 (EMC read), 2-4 (megaflow probes), 5 (EMC install write).
        """
        k = flow_ids.shape[0]
        tags = self._emc_tags
        f0 = int(flow_ids[0])
        if bool((flow_ids == f0).all()):
            # Single-flow chunk (Fig. 8 drives one flow per port): each
            # packet after the first hits the slot its predecessor just
            # filled, so only the stored tag decides the first packet —
            # no per-slot argsort needed.
            s0 = f0 % self.emc_entries
            hit = np.ones(k, dtype=bool)
            hit[0] = int(tags[s0]) == f0
            self._pending = (hit, s0, f0, None, None)
            emc_addr = self._emc_base + s0 * EMC_ENTRY_BYTES
            emc_addrs = np.full(k, emc_addr, dtype=np.int64)
            plan.add_batch(emc_addrs, 1, pkts=pkts, rank=1)
            if not hit[0]:
                entry = self._mega_base \
                    + (f0 % self.megaflow_capacity) * MEGAFLOW_ENTRY_BYTES
                entries = np.asarray([entry], dtype=np.int64)
                mpkts = pkts[:1]
                plan.add_batch(entries, 1, pkts=mpkts, rank=2)
                plan.add_batch(entries + 64, 1, pkts=mpkts, rank=3)
                plan.add_batch(entries, 1, pkts=mpkts, rank=4)
                plan.add_batch(emc_addrs[:1], 1, pkts=mpkts, rank=5,
                               write=True)
            return hit, np.where(hit, EMC_HIT_CYCLES, MEGAFLOW_CYCLES)
        slots = flow_ids % self.emc_entries
        order = np.argsort(slots, kind="stable")
        so = slots[order]
        fo = flow_ids[order]
        first = np.empty(k, dtype=bool)
        first[0] = True
        first[1:] = so[1:] != so[:-1]
        prev = np.empty(k, dtype=np.int64)
        prev[1:] = fo[:-1]
        prev[first] = tags[so[first]]
        hit = np.empty(k, dtype=bool)
        hit[order] = prev == fo
        last = np.empty(k, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        self._pending = (hit, so, fo, order, last)
        emc_addrs = self._emc_base + slots * EMC_ENTRY_BYTES
        plan.add_batch(emc_addrs, 1, pkts=pkts, rank=1)
        missed = np.nonzero(~hit)[0]
        if missed.shape[0]:
            entries = self._mega_base + (flow_ids[missed]
                                         % self.megaflow_capacity) \
                * MEGAFLOW_ENTRY_BYTES
            mpkts = pkts[missed]
            # Tuple-space probes alternate two lines: +0, +64, +0.
            plan.add_batch(entries, 1, pkts=mpkts, rank=2)
            plan.add_batch(entries + 64, 1, pkts=mpkts, rank=3)
            plan.add_batch(entries, 1, pkts=mpkts, rank=4)
            plan.add_batch(emc_addrs[missed], 1, pkts=mpkts, rank=5,
                           write=True)
        return hit, np.where(hit, EMC_HIT_CYCLES, MEGAFLOW_CYCLES)

    def keep(self, n: int) -> None:
        """Apply the first ``n`` lookups of the last :meth:`lookup_chunk`
        to the EMC, as if :meth:`probe` had made only those: each slot
        they touch takes the flow of its last kept lookup, and their
        hits and misses are counted."""
        hit, so, fo, order, last = self._pending
        self._pending = None
        if not n:
            return
        if order is None:
            self._emc_tags[so] = fo
        else:
            # A slot's lookups ascend in slot order, so its kept ones
            # lead its run: the last kept one ends the run or precedes
            # a cut one.  Each slot is indexed once, so the fancy
            # assignment is well defined.
            end = order < n
            end[:-1] &= last[:-1] | ~end[1:]
            self._emc_tags[so[end]] = fo[end]
        nhits = int(np.count_nonzero(hit[:n]))
        self.emc_hits += nhits
        self.emc_misses += n - nhits

    @property
    def emc_hit_rate(self) -> float:
        total = self.emc_hits + self.emc_misses
        return self.emc_hits / total if total else 0.0
