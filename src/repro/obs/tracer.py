"""The tracer: structured events, spans and counters with two clocks.

Every event carries a *simulated-time* stamp (``ts``, seconds — the
clock the paper's timelines are plotted against) and a *wall-clock*
stamp (``wall``, seconds since the tracer was created — what the
overhead profile of Fig. 15 cares about).  Three event phases, mirroring
the Chrome ``trace_event`` format so export is a direct mapping:

* ``"i"`` — instant: a typed point event (an FSM transition, a way-mask
  write, a shuffle decision).
* ``"X"`` — complete span: something with a wall-clock duration (one
  engine quantum, one DMA burst, one daemon interval).
* ``"C"`` — counter: a named set of numeric series sampled at a point
  in simulated time (DDIO hits/misses, per-tenant IPC, LLC fill rates).

Storage is a preallocated NumPy structured ring
(:class:`~repro.obs.ring.StructRing`): hooks write scalar slots, not
dataclasses — ``TraceEvent`` objects are materialized only when a sink
or view asks for them.  A bounded ring (``capacity=N``) keeps the most
recent N events and counts what it overwrote (:attr:`Tracer.dropped`);
overflow is reported, never silent.

Always-on operation has three tiers:

* **disabled** — instrumented code fetches the process-wide current
  tracer (:func:`current_tracer`) once per quantum, burst or call into a
  local and guards on ``tracer.enabled`` wherever it builds event
  arguments; the default is the shared :data:`NULL_TRACER` whose hooks
  are no-ops.
* **full fidelity** — every event is recorded; the reconstruction
  guarantees of :mod:`repro.obs.views` hold exactly.
* **sampled** — ``Tracer(sample=N, seed=s)`` traces 1-in-N simulation
  quanta, chosen deterministically from ``(seed, quantum index)`` by a
  splitmix64 hash, so identical runs sample identical quanta.  The
  engine gates each quantum through :meth:`Tracer.begin_quantum`;
  un-sampled quanta emit nothing and read no clock.  A sampled stream
  carries an ``obs/mode`` marker event, and the exact-replay views
  refuse it (:class:`~repro.obs.views.SampledStreamError`).

Self-profiling is a view over the spans: :meth:`Tracer.profile_shares`
gives each ``category.name``'s share of the retained spans' wall time
(the engine's ``engine/*`` stage spans, ``sim/quantum``, ``dma/burst``,
``daemon/interval``), which ``repro trace`` and
``benchmarks/perf/bench_obs.py`` report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .ring import StructRing

_PHASE_I, _PHASE_C, _PHASE_X = 0, 1, 2


@dataclass
class TraceEvent:
    """One structured trace record.

    ``seq``      monotonically increasing per-tracer sequence number.
    ``ts``       simulated time, seconds.
    ``wall``     wall-clock seconds since the tracer's epoch (for spans:
                 the span start).
    ``phase``    ``"i"`` instant, ``"X"`` complete span, ``"C"`` counter.
    ``category`` subsystem key (``fsm``, ``mask``, ``shuffle``,
                 ``daemon``, ``sim``, ``engine``, ``dma``, ``llc``, ``ddio``,
                 ``mem``, ``tenant``, ``metrics``, ``obs``).
    ``name``     event name within the category.
    ``dur``      wall-clock duration, seconds (spans only).
    ``args``     JSON-serialisable payload.
    """

    seq: int
    ts: float
    wall: float
    phase: str
    category: str
    name: str
    dur: float = 0.0
    args: dict = field(default_factory=dict)

    def key(self) -> tuple:
        """Deterministic identity: every field except the wall-clock
        stamps (which legitimately differ between identical runs)."""
        return (self.seq, self.ts, self.phase, self.category, self.name,
                tuple(sorted(self.args.items())))


_MASK64 = (1 << 64) - 1


def _sample_hash(seed: int, index: int) -> int:
    """splitmix64 of ``(seed, index)`` — the deterministic coin for
    sampled mode (same seed, same quantum index -> same decision)."""
    z = (index + (seed * 0x9E3779B97F4A7C15) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Tracer:
    """Records trace events into a structured ring; optionally feeds
    streaming sinks (see :mod:`.sinks`).

    ``enabled=False`` builds a disabled tracer: hooks return without
    touching storage.  ``capacity`` bounds the ring (None = unbounded);
    ``sample=N`` enables 1-in-N quantum sampling seeded by ``seed``.
    """

    def __init__(self, *, enabled: bool = True, clock=time.perf_counter,
                 capacity: "int | None" = None,
                 sample: "int | None" = None, seed: int = 0) -> None:
        if sample is not None and sample < 1:
            raise ValueError(f"sample must be >= 1 or None, got {sample}")
        self.clock = clock
        self.sample = sample
        self.seed = seed
        self.sinks: list = []
        self._streaming: list = []
        self._epoch = clock()
        self._seq = 0
        self._sim_now = 0.0
        #: The structured event storage (see :mod:`repro.obs.ring`).
        self.ring = StructRing(capacity)
        self._base_enabled = enabled
        # Sampled tracers start gated-off; begin_quantum opens sampled
        # quanta.  Full-fidelity tracers are simply on or off.
        self.enabled = enabled and sample is None
        if sample is not None and enabled:
            # Mode marker: consumers (and the strict exact-replay guard
            # in views) can recognise a sampled stream from the events
            # alone, even after a JSONL round trip.
            self._push(_PHASE_I, "obs", "mode",
                       0.0, {"sample": sample, "seed": seed})

    # -- wiring ------------------------------------------------------------
    def add_sink(self, sink):
        """Attach a sink; returns it for chaining.

        Ring-backed sinks (``streaming = False`` — the ring-buffer and
        Perfetto sinks) read this tracer's storage lazily and cost
        nothing per event; streaming sinks (JSONL) receive a
        materialized :class:`TraceEvent` per emission.
        """
        attach = getattr(sink, "attach", None)
        if attach is not None:
            attach(self)
        if getattr(sink, "streaming", True):
            self._streaming.append(sink)
        self.sinks.append(sink)
        return sink

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()

    # -- clocks ------------------------------------------------------------
    def set_sim_time(self, now: float) -> None:
        """Advance the simulated-time stamp used for subsequent events."""
        self._sim_now = now

    @property
    def sim_now(self) -> float:
        return self._sim_now

    def _wall(self) -> float:
        return self.clock() - self._epoch

    # -- sampling ----------------------------------------------------------
    def begin_quantum(self, index: int) -> bool:
        """Per-quantum gate called by the engine.  In sampled mode this
        flips :attr:`enabled` according to the deterministic 1-in-N
        decision for ``index``; in full-fidelity mode it is a no-op.
        Returns whether this quantum is traced."""
        if self.sample is not None and self._base_enabled:
            self.enabled = \
                _sample_hash(self.seed, index) % self.sample == 0
        return self.enabled

    # -- event emission ----------------------------------------------------
    def _push(self, phase: int, category: str, name: str, dur: float,
              args: dict, wall: "float | None" = None) -> None:
        if wall is None:
            wall = self.clock() - self._epoch
        seq = self._seq
        self._seq = seq + 1
        self.ring.push(seq, self._sim_now, wall, dur, phase,
                       category, name, args)
        if self._streaming:
            event = TraceEvent(seq=seq, ts=self._sim_now, wall=wall,
                               phase="iCX"[phase], category=category,
                               name=name, dur=dur, args=args)
            for sink in self._streaming:
                sink.emit(event)

    def instant(self, category: str, name: str, **args) -> None:
        """Record a typed point event at the current simulated time."""
        if self.enabled:
            self._push(_PHASE_I, category, name, 0.0, args)

    def counter(self, category: str, name: str, **values) -> None:
        """Record a set of numeric counter samples."""
        if self.enabled:
            self._push(_PHASE_C, category, name, 0.0, values)

    def complete(self, category: str, name: str, dur: float,
                 **args) -> None:
        """Record a finished span of ``dur`` wall seconds ending now."""
        if not self.enabled:
            return
        self._push(_PHASE_X, category, name, dur, args,
                   wall=max(0.0, self._wall() - dur))

    @contextmanager
    def span(self, category: str, name: str, **args):
        """Context manager measuring a wall-clock span."""
        start = self.clock()
        try:
            yield self
        finally:
            self.complete(category, name, self.clock() - start, **args)

    # -- stream access -----------------------------------------------------
    def events(self) -> "list[TraceEvent]":
        """Materialize the buffered events, oldest first."""
        return self.ring.to_events()

    @property
    def dropped(self) -> int:
        """Events overwritten after a bounded ring filled."""
        return self.ring.dropped

    def category_counts(self) -> "dict[str, int]":
        """Buffered event counts per category (for exit summaries)."""
        return self.ring.category_counts()

    # -- self-profiling ----------------------------------------------------
    def profile_shares(self) -> "dict[str, float]":
        """Each ``category.name``'s share of the buffered spans' summed
        wall time (instants and counters carry none).  A bounded ring
        covers only the spans it still holds."""
        seconds = self.ring.span_seconds()
        total = sum(seconds.values())
        if total <= 0.0:
            return {}
        return {key: value / total for key, value in seconds.items()}


class _NullSpan:
    """Reusable no-op context manager for :class:`NullTracer` spans."""

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The disabled tracer: every hook is a no-op.

    Installed by default so instrumented code can always call
    ``current_tracer()`` without a None check.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def begin_quantum(self, index) -> bool:
        return False

    def instant(self, category, name, **args) -> None:  # pragma: no cover
        pass

    def counter(self, category, name, **values) -> None:  # pragma: no cover
        pass

    def complete(self, category, name, dur, **args) -> None:
        pass

    def span(self, category, name, **args):
        return _NULL_SPAN


#: Shared disabled tracer (the default current tracer).
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The process-wide tracer instrumented subsystems report to."""
    return _current


def install_tracer(tracer: "Tracer | None") -> Tracer:
    """Install ``tracer`` (None restores the null tracer); returns the
    previously installed tracer so callers can restore it."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: "Tracer | None"):
    """Scope ``tracer`` as the current tracer for a ``with`` block."""
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
