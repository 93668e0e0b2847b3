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

Storage is one ``collections.deque`` of :class:`TraceEvent` objects.
A bounded tracer (``capacity=N``) keeps the most recent N events and
counts the rest (:attr:`Tracer.dropped`, events pushed minus events
kept); overflow is reported, never silent.  Sinks are streams: each
receives every event as it is pushed, whatever the capacity.

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
  opens with an ``obs/mode`` marker event, and the exact-replay views
  refuse it (:class:`~repro.obs.views.SampledStreamError`).

Self-profiling is a view over the spans: :meth:`Tracer.span_seconds`
sums each ``category.name``'s retained span time and
:meth:`Tracer.profile_shares` gives its share of the total
(the engine's ``engine/*`` stage spans, ``sim/quantum``, ``dma/burst``,
``daemon/interval``), which ``repro trace`` and
``benchmarks/perf/bench_obs.py`` report.
"""

from __future__ import annotations

import collections
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


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
    """Records trace events and streams each to its sinks (see
    :mod:`.sinks`).

    ``enabled=False`` builds a disabled tracer: hooks return without
    touching storage.  ``capacity`` bounds the retained events (None =
    unbounded); ``sample=N`` enables 1-in-N quantum sampling seeded by
    ``seed``.
    """

    def __init__(self, *, enabled: bool = True, clock=time.perf_counter,
                 capacity: "int | None" = None,
                 sample: "int | None" = None, seed: int = 0) -> None:
        if sample is not None and sample < 1:
            raise ValueError(f"sample must be >= 1 or None, got {sample}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.clock = clock
        self.sample = sample
        self.seed = seed
        self.sinks: list = []
        self._epoch = clock()
        self._seq = 0
        self._sim_now = 0.0
        self._events: "collections.deque[TraceEvent]" = \
            collections.deque(maxlen=capacity)
        self._base_enabled = enabled
        # Sampled tracers start gated-off; begin_quantum opens sampled
        # quanta.  Full-fidelity tracers are simply on or off.
        self.enabled = enabled and sample is None
        if sample is not None and enabled:
            # Mode marker: consumers (and the strict exact-replay guard
            # in views) can recognise a sampled stream from the events
            # alone, even after a JSONL round trip.
            self._push("i", "obs", "mode",
                       0.0, {"sample": sample, "seed": seed})

    # -- wiring ------------------------------------------------------------
    def add_sink(self, sink):
        """Attach a sink; returns it for chaining.

        The sink first receives the events this tracer holds (a sampled
        tracer's ``obs/mode`` marker among them), then every event as
        it is pushed.
        """
        for event in self._events:
            sink.emit(event)
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
    def _push(self, phase: str, category: str, name: str, dur: float,
              args: dict, wall: "float | None" = None) -> None:
        if wall is None:
            wall = self.clock() - self._epoch
        event = TraceEvent(self._seq, self._sim_now, wall, phase,
                           category, name, dur, args)
        self._seq += 1
        self._events.append(event)
        for sink in self.sinks:
            sink.emit(event)

    def instant(self, category: str, name: str, **args) -> None:
        """Record a typed point event at the current simulated time."""
        if self.enabled:
            self._push("i", category, name, 0.0, args)

    def counter(self, category: str, name: str, **values) -> None:
        """Record a set of numeric counter samples."""
        if self.enabled:
            self._push("C", category, name, 0.0, values)

    def complete(self, category: str, name: str, dur: float,
                 **args) -> None:
        """Record a finished span of ``dur`` wall seconds ending now."""
        if not self.enabled:
            return
        self._push("X", category, name, dur, args,
                   wall=max(0.0, self._wall() - dur))

    # -- stream access -----------------------------------------------------
    def events(self) -> "list[TraceEvent]":
        """The retained events, oldest first."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Events pushed but no longer retained by a bounded tracer."""
        return self._seq - len(self._events)

    def category_counts(self) -> "dict[str, int]":
        """Retained event counts per category (for exit summaries)."""
        return dict(collections.Counter(
            event.category for event in self._events))

    # -- self-profiling ----------------------------------------------------
    def span_seconds(self) -> "dict[str, float]":
        """Summed duration of the retained spans per ``category.name``,
        in key order (instants and counters carry none)."""
        seconds: "dict[str, float]" = {}
        for event in self._events:
            if event.phase == "X":
                key = f"{event.category}.{event.name}"
                seconds[key] = seconds.get(key, 0.0) + event.dur
        return dict(sorted(seconds.items()))

    def profile_shares(self) -> "dict[str, float]":
        """Each ``category.name``'s share of the retained spans' summed
        wall time.  A bounded tracer covers only the spans it still
        holds."""
        seconds = self.span_seconds()
        total = sum(seconds.values())
        if total <= 0.0:
            return {}
        return {key: value / total for key, value in seconds.items()}


#: Shared disabled tracer (the default current tracer): every hook
#: returns at once, so instrumented code can always call
#: ``current_tracer()`` without a None check.
NULL_TRACER = Tracer(enabled=False)

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
