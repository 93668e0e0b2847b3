"""Cache geometry: ways, sets, slices, and address decomposition.

Modern Intel server CPUs physically split the LLC into per-core *slices*
(NUCA) and hash physical addresses across them so traffic from both cores
and DDIO spreads evenly (paper Sec. V, "Profiling and monitoring").  The
geometry object owns the address -> (slice, set, tag) decomposition used by
the LLC simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _mix64(value: int) -> int:
    """Cheap 64-bit integer mixer (splitmix64 finalizer).

    Used as a stand-in for Intel's undocumented slice-hash function
    (reverse-engineered in Maurice et al., RAID'15).  What matters for the
    reproduction is the *property* the paper relies on: lines are spread
    evenly across slices, so sampling one slice's CHA counters and
    multiplying by the slice count recovers chip-wide DDIO statistics.
    """
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64_inplace(v: "np.ndarray", scratch: "np.ndarray") -> None:
    """:func:`_mix64` over a uint64 array in place (wrapping mod 2^64).

    ``scratch`` is a uint64 array of ``v``'s shape that is overwritten;
    nothing is allocated.
    """
    v ^= np.right_shift(v, _S30, out=scratch)
    v *= _M1
    v ^= np.right_shift(v, _S27, out=scratch)
    v *= _M2
    v ^= np.right_shift(v, _S31, out=scratch)


@dataclass(frozen=True)
class CacheGeometry:
    """Immutable description of a sliced, set-associative cache.

    Defaults correspond to the paper's Xeon Gold 6140 LLC (Table I):
    11-way, 24.75 MB, non-inclusive, split into 18 slices.
    """

    ways: int = 11
    sets_per_slice: int = 2048
    slices: int = 18
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ValueError("a cache needs at least one way")
        if self.sets_per_slice < 1 or self.slices < 1:
            raise ValueError("sets_per_slice and slices must be positive")
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a positive power of two")

    @property
    def total_sets(self) -> int:
        return self.sets_per_slice * self.slices

    @property
    def lines(self) -> int:
        return self.total_sets * self.ways

    @property
    def capacity_bytes(self) -> int:
        return self.lines * self.line_size

    @property
    def way_capacity_bytes(self) -> int:
        """Bytes held by a single way across all slices."""
        return self.total_sets * self.line_size

    @property
    def full_mask(self) -> int:
        """Bitmask selecting every way."""
        return (1 << self.ways) - 1

    def line_of(self, addr: int) -> int:
        """Cacheline number containing byte address ``addr``."""
        return addr // self.line_size

    def locate(self, addr: int) -> "tuple[int, int, int]":
        """Decompose a byte address into ``(slice_id, set_id, tag)``.

        Both the slice and the set index are derived from a hash of the
        line address.  Hashing the slice models Intel's slice-selection
        hash; hashing the set index models the physical-page scattering
        of virtually-contiguous buffers (without it, structures with a
        power-of-two stride — e.g. 2 KB mbufs — would collapse onto a
        handful of sets, which real systems do not exhibit).  The tag is
        the full line number, so residency checks stay exact.
        """
        line = addr // self.line_size
        mixed = _mix64(line)
        slice_id = mixed % self.slices
        set_id = (mixed // self.slices) % self.sets_per_slice
        return slice_id, set_id, line

    def frame_index(self, addr: int) -> "tuple[int, int]":
        """Map an address to ``(flat_set_index, tag)``.

        The flat index combines slice and set so the LLC can keep one
        linear array of sets.
        """
        slice_id, set_id, tag = self.locate(addr)
        return slice_id * self.sets_per_slice + set_id, tag

    # -- batched decomposition (the array LLC backend's hot path) --------
    def frame_index_batch(self, addrs: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
        """Vectorized :meth:`frame_index` over an int64 address array.

        Returns ``(flat_set_index, tag)`` arrays, element-wise identical
        to calling :meth:`frame_index` per address.  The two outputs are
        the only allocations: the index is mixed in place in its own
        buffer (viewed as uint64), with the tag's buffer as scratch until
        the tags are written last.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        # line_size is a power of two, so the division is a shift; the
        # flat index stays far below 2^63, so the uint64 view of the
        # index buffer reads back as int64 unchanged.
        shift = self.line_size.bit_length() - 1
        index = np.empty_like(addrs)
        tag = np.empty_like(addrs)
        mixed = index.view(np.uint64)
        scratch = tag.view(np.uint64)
        np.right_shift(addrs, shift, out=index)
        _mix64_inplace(mixed, scratch)
        # slice = mixed % slices and set = (mixed // slices) % sets with
        # no remainder by ``slices``: the slice is mixed - slices *
        # quotient, and dividing slices * quotient by slices again
        # (exact; NumPy divides by a scalar far faster than it takes a
        # remainder) gets the quotient back without a third buffer.  The
        # modulo by ``sets`` is a bitmask when ``sets`` is a power of two
        # (the default geometry).
        slices = np.uint64(self.slices)
        sets = self.sets_per_slice
        np.floor_divide(mixed, slices, out=scratch)
        scratch *= slices
        mixed -= scratch
        scratch //= slices
        if sets & (sets - 1) == 0:
            scratch &= np.uint64(sets - 1)
        else:
            scratch %= np.uint64(sets)
        mixed *= np.uint64(sets)
        mixed += scratch
        np.right_shift(addrs, shift, out=tag)
        return index, tag


#: LLC geometry of the paper's testbed CPU (Table I).
XEON_6140_LLC = CacheGeometry(ways=11, sets_per_slice=2048, slices=18, line_size=64)

#: A proportionally shrunken geometry for fast unit tests: same 11 ways
#: (way-allocation behaviour identical) but far fewer sets.
TINY_LLC = CacheGeometry(ways=11, sets_per_slice=64, slices=4, line_size=64)
