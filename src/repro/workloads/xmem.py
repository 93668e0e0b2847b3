"""X-Mem: the cloud memory-characterization microbenchmark (Gottscho et
al., ISPASS'16) used throughout the paper to emulate non-networking
tenants (Secs. III-B, VI-B, VI-C).

The paper always runs the *random-read* pattern over a configurable
working set (2-16 MB) "to emulate real applications' behavior", and
reports average access latency and throughput.  Each operation here is
one dependent load (``mlp = 1``) at a uniform-random line of the working
set; accesses that fall in the modelled L2 never reach the LLC.
"""

from __future__ import annotations

import numpy as np

from .base import (CorePort, ENGINE_STATS, L2_HIT_CYCLES, LLC_HIT_CYCLES,
                   Workload)
from .streams import uniform_lines

#: Loop overhead per access operation.
XMEM_INSTRUCTIONS_PER_OP = 8.0
XMEM_OVERHEAD_CYCLES = 4.0

_BATCH = 256

#: Most draws one vector chunk takes, which bounds its LLC batch at 4096
#: ops.  The cost EMA never falls below an all-L2 op's 18 cycles, so on
#: the shipped platforms (at most 57.5k cycles per sub-step) a sub-step
#: needs at most 14 draws and the bound never binds.
_CHUNK_DRAWS = 16


class XMem(Workload):
    """Random-read memory prober."""

    def __init__(self, name: str, working_set_bytes: int, *,
                 core_freq_hz: float = 2.3e9) -> None:
        super().__init__(name)
        if working_set_bytes < 64:
            raise ValueError("working set must hold at least one line")
        self.working_set_bytes = working_set_bytes
        self.core_freq_hz = core_freq_hz

    def prefill(self) -> None:
        self.warm_region(self.region_base, self.working_set_bytes)

    def set_working_set(self, working_set_bytes: int) -> None:
        """Phase change: resize the probed region (e.g. Fig. 10 at t=5s)."""
        if working_set_bytes < 64:
            raise ValueError("working set must hold at least one line")
        self.working_set_bytes = working_set_bytes

    def _draw(self, p_l2: float) -> "tuple[np.ndarray, np.ndarray]":
        """One batch of probe addresses and their L2-hit draws (both
        loops draw whole batches, so the RNG stream is mode-independent;
        ops a sub-step's budget cuts off are discarded)."""
        addrs = uniform_lines(self.rng, self.region_base,
                              self.working_set_bytes, _BATCH)
        return addrs, self.rng.random(_BATCH) < p_l2

    def run_core(self, port: CorePort, budget_cycles: float,
                 now: float) -> None:
        if self.exec_mode == "vector":
            self._run_core_vector(port, budget_cycles)
            return
        used = 0.0
        ops = 0
        p_l2 = self.l2_hit_prob(self.working_set_bytes)
        stats = self.stats
        # Budget guard for vectorized segments: the cost of one op if it
        # went all the way to DRAM.
        worst = XMEM_OVERHEAD_CYCLES + LLC_HIT_CYCLES + port.dram_cycles
        while used < budget_cycles:
            addrs, l2_hits = self._draw(p_l2)
            start = 0
            while start < _BATCH and used < budget_cycles:
                safe = int((budget_cycles - used) // worst)
                if safe < 1:
                    # Budget tail: one op at a time, so the final op
                    # count honours the exact budget crossing.
                    in_l2 = bool(l2_hits[start])
                    latency = L2_HIT_CYCLES if in_l2 \
                        else float(port.access_batch(addrs[start:start + 1])[0])
                    used += XMEM_OVERHEAD_CYCLES + latency
                    ops += 1
                    stats.record_op(latency)
                    start += 1
                    continue
                stop = min(_BATCH, start + safe)
                seg_l2 = l2_hits[start:stop]
                llc = ~seg_l2
                if llc.all():
                    # Working sets far beyond L2 (the paper's norm):
                    # every op reaches the LLC, no masking needed.
                    latencies = np.asarray(
                        port.access_batch(addrs[start:stop]), dtype=float)
                else:
                    latencies = np.full(stop - start, L2_HIT_CYCLES)
                    if llc.any():
                        latencies[llc] = port.access_batch(
                            addrs[start:stop][llc])
                seg_sum = float(latencies.sum())
                count = stop - start
                used += count * XMEM_OVERHEAD_CYCLES + seg_sum
                ops += count
                stats.ops += count
                stats.latency_sum_cycles += seg_sum
                start = stop
        port.charge(ops * XMEM_INSTRUCTIONS_PER_OP, used)

    def _run_core_vector(self, port: CorePort, budget_cycles: float) -> None:
        """Vectorized twin of the scalar loop, many draws per LLC batch.

        Each chunk takes as many 256-op draws as the cost EMA says fit
        the remaining budget (:meth:`Workload._spec_size`, rounded up to
        whole draws, at most :data:`_CHUNK_DRAWS`) and runs their
        LLC-bound ops (those missing the modelled L2) as one journaled
        :meth:`Workload._run_ahead` chunk.  Admission then replays the
        scalar loop's chunk recurrence on the resulting latencies, draw
        by draw: the same ``(budget - used) // worst`` slices, the same
        NumPy ``sum`` per slice, the same single-op tail
        (:meth:`_replay`).  The scalar loop sums per slice (pairwise), so
        its slice boundaries are part of the model's float results and
        cannot be dropped in favour of one running sum.

        When the budget ends before the chunk does, the chunk is cut
        after the admitted ops' LLC accesses, whose latencies are the
        ones admission read, and the generator goes back to the state
        read after the last kept draw: the scalar loop never took the
        later draws.  A chunk whose draws send no op to the LLC arms no
        journal: its slices each sum to exactly ``count *
        L2_HIT_CYCLES``, so it replays on Python floats, and
        :data:`ENGINE_STATS` does not count it.
        """
        used = 0.0
        ops = 0
        p_l2 = self.l2_hit_prob(self.working_set_bytes)
        stats = self.stats
        worst = XMEM_OVERHEAD_CYCLES + LLC_HIT_CYCLES + port.dram_cycles
        latency_sum = stats.latency_sum_cycles
        generator = self.rng.bit_generator
        after = None

        def execute(n: int) -> "np.ndarray":
            # The whole chunk: one LLC batch plus its latency select.
            ENGINE_STATS.kernel_launches += 2
            return port.access_batch(addrs[to_llc])

        def admit(llc_latencies) -> int:
            nonlocal after
            latencies = np.full(k, L2_HIT_CYCLES)
            latencies[to_llc] = llc_latencies
            after = self._replay(latencies, k, used, latency_sum,
                                 budget_cycles, worst)
            return after[0]

        def slot(n: int) -> int:
            # Each LLC-bound op is one address of the batch.
            return int(np.searchsorted(to_llc, n))

        while used < budget_cycles:
            draws = min(-(-self._spec_size(budget_cycles - used)
                          // _BATCH), _CHUNK_DRAWS)
            k = draws * _BATCH
            # The state after each draw but the last, read as it is
            # taken: a cut returns to the end of its last kept draw.
            marks = []
            parts = []
            for d in range(draws):
                parts.append(self._draw(p_l2))
                if d + 1 < draws:
                    marks.append(generator.state)
            if draws == 1:
                addrs, l2_hits = parts[0]
            else:
                addrs = np.concatenate([part[0] for part in parts])
                l2_hits = np.concatenate([part[1] for part in parts])
            to_llc = np.flatnonzero(~l2_hits)
            if to_llc.shape[0]:
                self._run_ahead(port, k, execute, admit, slot)
                n, u, latency_total = after
            else:
                n, u, latency_total = self._replay(
                    None, k, used, latency_sum, budget_cycles, worst)
            if n <= k - _BATCH:
                # Cut before the last draw.
                generator.state = marks[(n - 1) // _BATCH]
            self._observe_cost((u - used) / n)
            used, latency_sum = u, latency_total
            ops += n
        stats.ops += ops
        stats.latency_sum_cycles = latency_sum
        port.charge(ops * XMEM_INSTRUCTIONS_PER_OP, used)

    @staticmethod
    def _replay(latencies, k: int, used: float, latency_sum: float,
                budget_cycles: float, worst: float):
        """The scalar loop's recurrence over ``k`` ops of whole draws.

        Runs from ``used`` cycles and the latency total ``latency_sum``
        until the budget is spent or the ops run out; returns ``(ops,
        used, latency_sum)`` at that point.  ``latencies`` holds each
        op's latency; None means every op hit the L2, whose slice sums
        are exactly ``count * L2_HIT_CYCLES`` whatever NumPy's summation
        order.  Slices never span a draw, as in the scalar loop.
        """
        i = slices = 0
        while i < k and used < budget_cycles:
            end = i + _BATCH
            while i < end and used < budget_cycles:
                safe = int((budget_cycles - used) // worst)
                if safe < 1:
                    latency = L2_HIT_CYCLES if latencies is None \
                        else float(latencies[i])
                    used += XMEM_OVERHEAD_CYCLES + latency
                    latency_sum += latency
                    i += 1
                    continue
                stop = min(end, i + safe)
                seg_sum = (stop - i) * L2_HIT_CYCLES if latencies is None \
                    else float(latencies[i:stop].sum())
                used += (stop - i) * XMEM_OVERHEAD_CYCLES + seg_sum
                latency_sum += seg_sum
                i = stop
                slices += 1
        if latencies is not None:
            # Latency fill + scatter, then one sum per slice.
            ENGINE_STATS.kernel_launches += 2 + slices
        return i, used, latency_sum

    # -- reporting ---------------------------------------------------------
    def avg_latency_ns(self) -> float:
        if self.stats.ops == 0:
            return 0.0
        return self.stats.avg_latency_cycles / self.core_freq_hz * 1e9

    def throughput_ops(self, elapsed_seconds: float,
                       time_scale: float = 1.0) -> float:
        """Achieved ops/second, unscaled back to real time."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.stats.ops / elapsed_seconds / time_scale
