"""Address-stream generators used by the workload models.

All generators produce *byte addresses of cachelines* inside a workload's
private region, in numpy batches so the Python-level per-access loop only
pays for the cache access itself.
"""

from __future__ import annotations

import numpy as np

from ..net.traffic import zipf_weights

LINE = 64

#: CDF entries per step of :class:`ZipfSampler`'s guide-table build.
_GUIDE_CHUNK = 1 << 16


def uniform_lines(rng: "np.random.Generator", base: int, ws_bytes: int,
                  count: int, line: int = LINE) -> "np.ndarray":
    """``count`` uniform-random line addresses over a working set."""
    nlines = max(1, ws_bytes // line)
    return base + rng.integers(0, nlines, size=count) * line


def sequential_lines(base: int, ws_bytes: int, start_line: int, count: int,
                     line: int = LINE) -> "tuple[np.ndarray, int]":
    """``count`` streaming line addresses, wrapping over the working set.

    Returns the addresses and the next start line, so callers can keep a
    cursor across batches.
    """
    nlines = max(1, ws_bytes // line)
    idx = (start_line + np.arange(count)) % nlines
    return base + idx * line, (start_line + count) % nlines


class ZipfSampler:
    """Zipf(theta) index sampler over ``n`` items, with a cached CDF and
    a guide table.

    Draws are bit-identical to ``rng.choice(n, size,
    p=zipf_weights(n, theta))``: NumPy implements weighted choice as
    ``cdf.searchsorted(rng.random(size), side="right")`` over the same
    normalised cumulative sum, and :meth:`lookup` returns exactly that
    search's result.  The O(n) cumulative sum and the guide table are
    paid once at construction instead of on every draw, which matters
    when the flow population is large (Fig. 9 runs 1M flows) and draws
    happen every quantum.

    The guide table is the indexed search of Chen & Asau (1974).  With
    ``m`` the largest power of two not above ``n``, ``guide[j]`` counts
    the CDF entries ``<= j/m``.  A uniform ``u`` falls in bucket
    ``b = floor(u*m)``; ``j/m`` and ``u*m`` are exact in binary floating
    point, so ``guide[b] <= searchsorted(cdf, u, "right") <= guide[b+1]``
    and a fixed-step binary search over that window, never wider than
    the widest bucket, finishes the lookup in O(1) per draw.
    """

    def __init__(self, n: int, theta: float) -> None:
        # The weights are accumulated in their own buffer: the CDF is the
        # sampler's one n-sized array.
        cdf = zipf_weights(n, theta)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        m = 1 << (n.bit_length() - 1)
        # Entry i is <= j/m exactly when j >= ceil(cdf[i] * m).  The CDF
        # is sorted, so guide[j] is one past the last entry whose first
        # bucket is j, carried forward over buckets that start no entry:
        # O(n + m), a chunk at a time, with chunk-sized temporaries.
        guide = np.zeros(m + 1, dtype=np.int32)
        for lo in range(0, n, _GUIDE_CHUNK):
            first = cdf[lo:lo + _GUIDE_CHUNK] * m
            np.ceil(first, out=first)
            first = first.astype(np.intp)
            ends = np.flatnonzero(np.diff(first, append=m + 1))
            guide[first[ends]] = ends + (lo + 1)
        np.maximum.accumulate(guide, out=guide)
        self._guide = guide
        self._m = m
        # One probe per bit of the widest bucket, largest step first.
        # Probe h reads cdf[idx + h - 1] through a view offset by h - 1;
        # ``take(mode="clip")`` maps reads past the end to cdf[-1] == 1.0,
        # which is above every u in [0, 1), so no probe overshoots.
        width = int(np.diff(guide).max())
        self._probes = tuple((1 << k, cdf[(1 << k) - 1:])
                             for k in reversed(range(width.bit_length())))
        self._cdf = cdf
        self.n = n

    def lookup(self, u: "np.ndarray") -> "np.ndarray":
        """``cdf.searchsorted(u, side="right")`` for uniforms in [0, 1)."""
        u = np.asarray(u, dtype=np.float64)
        idx = self._guide.take((u * self._m).astype(np.intp),
                               mode="clip").astype(np.intp)
        for step, cdf_view in self._probes:
            idx += (cdf_view.take(idx, mode="clip") <= u) * step
        return idx

    def draw(self, rng: "np.random.Generator", count: int) -> "np.ndarray":
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return self.lookup(rng.random(count))


class ZipfKeyStream:
    """Zipf-distributed key indices (YCSB-style popularity skew)."""

    def __init__(self, n_keys: int, theta: float,
                 rng: "np.random.Generator") -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.theta = theta
        self._rng = rng
        self._sampler = ZipfSampler(n_keys, theta)

    def draw(self, count: int) -> "np.ndarray":
        return self._sampler.draw(self._rng, count)
