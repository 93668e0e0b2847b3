"""Rollback microbenchmark: what copy-on-write journaling costs.

The speculative admission loop arms the array LLC's COW journal before
every run-ahead chunk.  Chunks that fit the budget pay only the
journaling overhead (journal appends on mutation); mispredicted chunks
additionally pay a cut back to their admitted prefix (undoing the
journal's later accesses).  This benchmark prices these against the
unjournaled baseline on the same access stream, and checks that a
rollback really restores the pre-snapshot state (``restored_ok``) and
that a cut state equals a twin that only ran each chunk's prefix
(``cut_ok``).

Four timed modes over identical chunked address streams:

* ``plain``     — ``access_batch`` with no snapshot;
* ``journaled`` — ``snapshot()`` / mutate / ``commit()`` per chunk
  (the run-ahead *hit* path: every chunk admitted);
* ``rollback``  — ``snapshot()`` / mutate / ``rollback()`` per chunk
  (every chunk undone whole);
* ``cut``       — ``snapshot()`` / mutate / ``rollback(keep=...)`` per
  chunk at a seeded prefix (the worst case: every chunk mispredicted).
"""

from __future__ import annotations

import time

import numpy as np

from repro.cache.llc import CacheGeometry, SlicedLLC

#: Chunk size matching the admission loop's run-ahead ceiling.
CHUNK = 256


def _geometry(scale: str) -> CacheGeometry:
    if scale == "tiny":
        return CacheGeometry(ways=4, sets_per_slice=64, slices=2)
    # A slice pair of the paper's Xeon 6140 geometry: big enough that
    # fills and evictions dominate, small enough to run in seconds.
    return CacheGeometry(ways=11, sets_per_slice=2048, slices=2)


def _stream(geometry: CacheGeometry, n: int, seed: int) -> "np.ndarray":
    rng = np.random.default_rng(seed)
    # 2x the line count: a thrashing mix of hits, fills and evictions.
    return rng.integers(0, geometry.lines * 2, size=n) * 64


def _state(llc: SlicedLLC) -> tuple:
    return (llc._tags.copy(), llc._meta.copy(),
            llc._owner.copy(), llc._clock, llc.valid_lines(),
            dict(llc._occ), llc.stat_fills, llc.stat_evictions,
            llc.stat_writebacks)


def _states_equal(a: tuple, b: tuple) -> bool:
    return all(np.array_equal(xa, xb) if isinstance(xa, np.ndarray)
               else xa == xb for xa, xb in zip(a, b))


def _timed(llc: SlicedLLC, addrs: "np.ndarray", mask: int,
           mode: str, keep: "list[int]") -> float:
    """Run the chunked stream in ``mode``; ``keep[i]`` is how many
    accesses of chunk ``i`` a cut keeps."""
    t0 = time.perf_counter()
    for i, start in enumerate(range(0, addrs.shape[0], CHUNK)):
        chunk = addrs[start:start + CHUNK]
        if mode != "plain":
            llc.snapshot()
        clock = llc.clock
        llc.access_batch(chunk, mask, write=True, owner=1)
        if mode == "journaled":
            llc.commit()
        elif mode == "rollback":
            llc.rollback()
        elif mode == "cut":
            llc.rollback(keep=clock + keep[i])
    return time.perf_counter() - t0


def run_rollback(scale: str = "default") -> dict:
    geometry = _geometry(scale)
    n = 50_000 if scale == "tiny" else 1_000_000
    mask = (1 << geometry.ways) - 1
    warm = _stream(geometry, geometry.lines, seed=3)
    addrs = _stream(geometry, n, seed=7)

    def fresh() -> SlicedLLC:
        llc = SlicedLLC(geometry, backend="array")
        llc.access_batch(warm, mask, owner=1)
        return llc

    # A seeded prefix of each chunk, at least one access long.
    rng = np.random.default_rng(13)
    keep = [int(rng.integers(1, min(CHUNK, n - start) + 1))
            for start in range(0, n, CHUNK)]
    plain_s = _timed(fresh(), addrs, mask, "plain", keep)
    journaled_s = _timed(fresh(), addrs, mask, "journaled", keep)
    spec = fresh()
    before = _state(spec)
    rollback_s = _timed(spec, addrs, mask, "rollback", keep)
    restored_ok = _states_equal(_state(spec), before)
    cut = fresh()
    cut_s = _timed(cut, addrs, mask, "cut", keep)
    twin = fresh()
    for i, start in enumerate(range(0, n, CHUNK)):
        twin.access_batch(addrs[start:start + keep[i]], mask, write=True,
                          owner=1)
    cut_ok = _states_equal(_state(cut), _state(twin))
    return {
        "accesses": n,
        "chunk": CHUNK,
        "plain_s": plain_s,
        "journaled_s": journaled_s,
        # Relative cost of arming the journal when every chunk commits
        # (the common case: the admission loop's speculation hit path).
        "journal_overhead": journaled_s / plain_s - 1.0 if plain_s else 0.0,
        "rollback_s": rollback_s,
        "restored_ok": restored_ok,
        "cut_s": cut_s,
        "cut_ok": cut_ok,
    }
