"""The structured event ring: preallocated NumPy storage for the tracer.

The hot-path cost of the original tracer was one ``TraceEvent``
dataclass plus one args ``dict`` per event, for every counter sample
and span — a malloc-heavy pattern that made permanently-enabled tracing
expensive at scale.  :class:`StructRing` replaces it with a
preallocated NumPy structured array (:data:`EVENT_DTYPE`): one record
per event with the sequence number, both clocks, the span duration, and
up to :data:`NSLOTS` *numeric* argument slots whose keys — like the
category and name strings — are interned into a :class:`StringTable`.

Events whose payload does not fit the numeric fast path (nested dicts
such as ``metrics/quantum``, string arguments, more than
:data:`NSLOTS` keys) park their args object in a side table and store a
reference; those are the rare, cold records (one per daemon interval),
so the common counter/span case stays allocation-free until the stream
is materialized.

Capacity semantics:

* ``capacity=None`` — unbounded: the array grows by doubling
  (amortized O(1) per event, still one contiguous structured array).
* ``capacity=N`` — a true ring: the most recent N events are kept, the
  oldest are overwritten, and :attr:`dropped` counts every overwritten
  record so overflow is never silent (``repro trace`` reports it).

Materialization back to :class:`~repro.obs.tracer.TraceEvent` objects
(:meth:`to_events`) is exact in full-fidelity mode: integer argument
values round-trip as ``int`` (a per-slot bit in ``intmask``), rich
payloads are returned as stored.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EVENT_DTYPE", "NSLOTS", "PHASES", "StringTable", "StructRing"]

#: Fixed numeric argument slots per record; payloads that need more (or
#: non-numeric values) take the rich-reference path.
NSLOTS = 8

#: Phase codes, index == code (``"i"`` instant, ``"C"`` counter,
#: ``"X"`` complete span).
PHASES = "iCX"

#: One trace record.  ``cat``/``name``/``keys`` are string-table ids;
#: ``argref`` >= 0 points at a rich args payload instead of the slots.
EVENT_DTYPE = np.dtype([
    ("seq", "<i8"),                  # per-tracer sequence number
    ("ts", "<f8"),                   # simulated time, seconds
    ("wall", "<f8"),                 # wall seconds since tracer epoch
    ("dur", "<f8"),                  # span duration (phase X only)
    ("phase", "u1"),                 # index into PHASES
    ("cat", "<u2"),                  # interned category
    ("name", "<u2"),                 # interned name
    ("nargs", "u1"),                 # used numeric slots
    ("intmask", "u1"),               # slot i held a Python int
    ("argref", "<i4"),               # rich-args id, -1 = inline slots
    ("keys", "<u2", (NSLOTS,)),      # interned arg keys
    ("vals", "<f8", (NSLOTS,)),      # numeric arg values
])

#: Initial allocation for unbounded rings (grows by doubling).
_INITIAL_CAPACITY = 1024


class StringTable:
    """Bidirectional string interning: ``intern(s) -> id`` and back."""

    def __init__(self) -> None:
        self._ids: "dict[str, int]" = {}
        self._strings: "list[str]" = []

    def intern(self, string: str) -> int:
        ident = self._ids.get(string)
        if ident is None:
            ident = len(self._strings)
            self._ids[string] = ident
            self._strings.append(string)
        return ident

    def lookup(self, ident: int) -> str:
        return self._strings[ident]

    def __len__(self) -> int:
        return len(self._strings)


class StructRing:
    """Preallocated structured-array event storage (see module doc)."""

    def __init__(self, capacity: "int | None" = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.strings = StringTable()
        #: Records overwritten after the ring filled (bounded mode).
        self.dropped = 0
        self._total = 0                       # records ever pushed
        self._args: "dict[int, object]" = {}  # rich payloads by argref
        self._next_argref = 0
        self._alloc(capacity or _INITIAL_CAPACITY)

    # -- storage -----------------------------------------------------------
    def _alloc(self, rows: int) -> None:
        self._buf = np.zeros(rows, dtype=EVENT_DTYPE)
        # Cached field views: plain-array scalar stores are markedly
        # cheaper than structured-record field assignment on the hot path.
        self._seq = self._buf["seq"]
        self._ts = self._buf["ts"]
        self._wall = self._buf["wall"]
        self._dur = self._buf["dur"]
        self._phase = self._buf["phase"]
        self._cat = self._buf["cat"]
        self._name = self._buf["name"]
        self._nargs = self._buf["nargs"]
        self._intmask = self._buf["intmask"]
        self._argref = self._buf["argref"]
        self._keys = self._buf["keys"]
        self._vals = self._buf["vals"]

    def _grow(self) -> None:
        old = self._buf
        self._alloc(old.shape[0] * 2)
        self._buf[:old.shape[0]] = old

    # -- hot path ----------------------------------------------------------
    def push(self, seq: int, ts: float, wall: float, dur: float,
             phase: int, category: str, name: str, args: dict) -> None:
        """Append one record (called by the tracer for every event)."""
        cap = self._buf.shape[0]
        total = self._total
        if total == cap and self.capacity is None:
            self._grow()
            cap = self._buf.shape[0]
        pos = total % cap
        if total >= cap:                       # bounded ring wrapped
            self.dropped += 1
            old_ref = self._argref[pos]
            if old_ref >= 0:
                del self._args[old_ref]
        self._total = total + 1
        self._seq[pos] = seq
        self._ts[pos] = ts
        self._wall[pos] = wall
        self._dur[pos] = dur
        self._phase[pos] = phase
        strings = self.strings
        self._cat[pos] = strings.intern(category)
        self._name[pos] = strings.intern(name)
        if len(args) <= NSLOTS and all(
                type(v) is int or type(v) is float for v in args.values()):
            keys = self._keys
            vals = self._vals
            slot = 0
            intmask = 0
            for key, value in args.items():
                keys[pos, slot] = strings.intern(key)
                vals[pos, slot] = value
                if type(value) is int:
                    intmask |= 1 << slot
                slot += 1
            self._nargs[pos] = slot
            self._intmask[pos] = intmask
            self._argref[pos] = -1
        else:
            ref = self._next_argref
            self._next_argref = ref + 1
            self._args[ref] = args
            self._nargs[pos] = 0
            self._intmask[pos] = 0
            self._argref[pos] = ref

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return min(self._total, self._buf.shape[0])

    @property
    def total(self) -> int:
        """Records ever pushed, including any since dropped."""
        return self._total

    def _live_positions(self) -> "np.ndarray":
        """Buffer positions of the live records, oldest first."""
        cap = self._buf.shape[0]
        size = min(self._total, cap)
        start = self._total - size
        return (np.arange(start, self._total, dtype=np.int64) % cap)

    def array(self) -> "np.ndarray":
        """Structured-array snapshot of the live records, oldest first
        (a copy — safe to slice and query with NumPy)."""
        return self._buf[self._live_positions()]

    def category_counts(self) -> "dict[str, int]":
        """Live event counts per category, descending by count."""
        cats = self._cat[self._live_positions()]
        if cats.size == 0:
            return {}
        counts = np.bincount(cats, minlength=len(self.strings))
        pairs = [(self.strings.lookup(i), int(n))
                 for i, n in enumerate(counts) if n > 0]
        pairs.sort(key=lambda kv: (-kv[1], kv[0]))
        return dict(pairs)

    def span_seconds(self) -> "dict[str, float]":
        """Summed duration of the live complete spans per
        ``category.name``, in key order."""
        live = self._live_positions()
        spans = live[self._phase[live] == PHASES.index("X")]
        if spans.size == 0:
            return {}
        n = len(self.strings)
        ids = self._cat[spans].astype(np.int64) * n + self._name[spans]
        keys, inverse = np.unique(ids, return_inverse=True)
        seconds = np.bincount(inverse, weights=self._dur[spans])
        lookup = self.strings.lookup
        pairs = sorted((f"{lookup(key // n)}.{lookup(key % n)}", float(s))
                       for key, s in zip(keys.tolist(), seconds))
        return dict(pairs)

    def to_events(self) -> list:
        """Materialize the live records as :class:`TraceEvent` objects,
        oldest first.  Exact: inline integer args come back as ``int``,
        rich payloads as stored."""
        from .tracer import TraceEvent
        lookup = self.strings.lookup
        rich = self._args
        out = []
        for pos in self._live_positions():
            ref = self._argref[pos]
            if ref >= 0:
                args = rich[ref]
            else:
                nargs = self._nargs[pos]
                intmask = self._intmask[pos]
                keys = self._keys[pos]
                vals = self._vals[pos]
                args = {}
                for slot in range(nargs):
                    value = vals[slot]
                    args[lookup(keys[slot])] = (
                        int(value) if intmask & (1 << slot) else float(value))
            out.append(TraceEvent(
                seq=int(self._seq[pos]), ts=float(self._ts[pos]),
                wall=float(self._wall[pos]), phase=PHASES[self._phase[pos]],
                category=lookup(self._cat[pos]),
                name=lookup(self._name[pos]),
                dur=float(self._dur[pos]), args=args))
        return out
