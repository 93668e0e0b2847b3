"""The host-speed reference kernel.

The benchmark times this fixed kernel beside every measured quantum and
around every set-up, and rescales the simulator's host time to the
kernel's committed :data:`NOMINAL_MS`.  On a shared VM the host's speed
swings from run to run; a kernel whose time swings with it cancels most
of that swing out of the scaled numbers.

The kernel is shaped like the simulator's hot loop — random gathers and
scatters over a ~12 MB array (the simulated LLC's tag/stamp/owner
arrays are about that size), short NumPy calls on small arrays, and a
plain Python loop — because a compute-only kernel does not slow down in
step with a memory-bound simulator.  It imports nothing from the
simulator.  Changing the kernel or :data:`NOMINAL_MS` changes every
scaled number, so either is a benchmark change.
"""

from __future__ import annotations

import time

import numpy as np

#: Committed time of one :meth:`RefKernel.run` call, in milliseconds.
#: Scaled host time = raw host time x NOMINAL_MS / measured kernel time.
NOMINAL_MS = 3.0

TABLE_WORDS = 3 << 19       # 1.5 Mi int64 words = 12 MiB
ROUNDS = 24                 # gather/scatter rounds per call
BATCH = 4096                # random indices per round
SMALL = 64                  # length of the small-array NumPy calls
SMALL_CALLS = 8             # small-array call groups per round
LOOP = 300                  # Python-loop iterations per round


class RefKernel:
    """A fixed, deterministic unit of host work (see module docstring)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210614)
        self._table = rng.integers(0, 1 << 40, size=TABLE_WORDS,
                                   dtype=np.int64)
        self._index = rng.integers(0, TABLE_WORDS, size=(ROUNDS, BATCH),
                                   dtype=np.int64)
        self._small = rng.random(SMALL)
        self._words = rng.integers(0, 1 << 20, size=LOOP).tolist()
        self.checksum = 0

    def run(self) -> None:
        table = self._table
        small = self._small
        words = self._words
        acc = 0
        for idx in self._index:
            got = table[idx]
            table[idx[::2]] = got[1::2] ^ 1
            acc += int(np.count_nonzero(got & 1))
            for _ in range(SMALL_CALLS):
                s = np.cumsum(small)
                acc += int(np.argmax(s > s[-1] * 0.5))
            for w in words:
                acc = (acc + w) & 0xFFFFFFFF
        self.checksum ^= acc

    def time_ms(self) -> float:
        """Run once; return the host time it took, in milliseconds."""
        t0 = time.perf_counter()
        self.run()
        return (time.perf_counter() - t0) * 1e3
