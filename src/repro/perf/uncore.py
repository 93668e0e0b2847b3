"""CHA (uncore) counters for DDIO hit/miss, with one-slice sampling.

Modern Intel CPUs put one Caching and Home Agent in front of each LLC
slice.  To keep polling cheap, the paper reads the DDIO events from a
*single* slice's CHA and multiplies by the slice count, relying on the
address hash spreading traffic evenly (Sec. V, "Profiling and
monitoring").  We model exactly that: the simulator records each DDIO
transaction against its true slice, and :meth:`sample` reconstructs the
chip-wide totals from slice 0 — so the same (small) sampling error the
real daemon sees is present here too.  :meth:`exact` exposes ground
truth for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

import numpy as np

from ..cache.geometry import CacheGeometry


@dataclass
class DdioSample:
    """Chip-wide DDIO counts as reconstructed from one slice's CHA."""

    hits: int
    misses: int


@dataclass
class ChaCounters:
    """Per-slice DDIO hit/miss counters plus sampling logic."""

    geometry: CacheGeometry
    sample_slice: int = 0
    hits: "list[int]" = field(default_factory=list)
    misses: "list[int]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.hits:
            self.hits = [0] * self.geometry.slices
            self.misses = [0] * self.geometry.slices
        if not 0 <= self.sample_slice < self.geometry.slices:
            raise ValueError("sample_slice outside geometry")

    def record_ddio(self, addr: int, *, hit: bool) -> None:
        """Record one DDIO transaction against the slice owning ``addr``."""
        slice_id, _, _ = self.geometry.locate(addr)
        if hit:
            self.hits[slice_id] += 1
        else:
            self.misses[slice_id] += 1

    def record_ddio_batch(self, addrs, hit, index=None) -> None:
        """Record a vector of DDIO transactions with one bincount.

        ``hit`` is a per-element boolean array aligned with ``addrs``.
        ``index`` is the addresses' flat set index when the caller has
        it (an LLC batch computes it), which saves hashing them again.
        Equivalent to calling :meth:`record_ddio` per address.
        """
        geom = self.geometry
        if index is None:
            index = geom.frame_index_batch(addrs)[0]
        # Key 2 * slice + hit: even bins count misses, odd bins hits.
        key = index // geom.sets_per_slice
        key <<= 1
        key += hit
        counts = np.bincount(key, minlength=2 * geom.slices).tolist()
        self.misses[:] = map(add, self.misses, counts[0::2])
        self.hits[:] = map(add, self.hits, counts[1::2])

    def sample(self) -> DdioSample:
        """Paper-style estimate: one slice's counts x slice count."""
        nslices = self.geometry.slices
        return DdioSample(hits=self.hits[self.sample_slice] * nslices,
                          misses=self.misses[self.sample_slice] * nslices)

    def exact(self) -> DdioSample:
        """Ground-truth totals across every slice (for tests/validation)."""
        return DdioSample(hits=sum(self.hits), misses=sum(self.misses))

    def sampling_error(self) -> float:
        """Relative error of the one-slice estimate vs. ground truth."""
        true = self.exact()
        est = self.sample()
        total = true.hits + true.misses
        if total == 0:
            return 0.0
        return abs((est.hits + est.misses) - total) / total
