"""repro.obs: the unified tracing & telemetry subsystem.

One tracer, threaded through every layer of the reproduction:

* the simulation engine emits a span per quantum, ``engine/*`` spans
  for its stages (traffic, workloads, record, controllers), counter
  tracks (DDIO events, memory bytes, per-tenant IPC/LLC, the quantum's
  LLC fill/eviction/writeback deltas) and a ``metrics/quantum`` record;
* the IAT daemon emits typed instants for FSM transitions, way-mask
  writes, shuffle decisions, and a ``daemon/iteration`` record, plus a
  span per control interval;
* the NIC emits a span per DMA burst.

Built for always-on production telemetry:

* **one event store** — the tracer keeps its ``TraceEvent`` objects
  in one deque; ``Tracer(capacity=N)`` keeps the most recent N and
  counts (never silently drops) the rest;
* **sampling** — ``Tracer(sample=N, seed=s)`` traces 1-in-N quanta
  deterministically; un-sampled quanta emit nothing and read no clock;
* **self-profiling** — ``Tracer.profile_shares()`` reads per-subsystem
  wall-time shares off the retained spans, so wall time is stored once;
* **metrics** — :mod:`repro.obs.metrics` keeps counters/gauges/
  histograms (per-tenant IPC, DDIO hit rate, drop rate, quantum wall
  time) with Prometheus-text and JSON exposition;
* **cross-process** — traced sweep points, in-process or in workers,
  return their events with their results, and :mod:`repro.obs.merge`
  merges them into one Perfetto file (``repro figure --jobs N
  --trace-out``).

Export: a streaming JSONL sink, and Chrome/Perfetto ``trace_event``
JSON built from ``tracer.events()`` by :func:`perfetto_document` (open
it at https://ui.perfetto.dev).  The legacy recorders
(``MetricsRecorder``, ``ControllerDaemon.history``) are exactly
reconstructible from a full-fidelity stream via :mod:`repro.obs.views`
(a sampled stream raises :class:`~repro.obs.views.SampledStreamError`).

See ``docs/observability.md`` for the event taxonomy and a worked
example; ``repro trace <figure>`` traces any figure harness from the
command line.
"""

from . import merge, metrics, views
from .metrics import REGISTRY, MetricsRegistry
from .sinks import (JsonlSink, event_from_dict, event_to_dict,
                    perfetto_document)
from .tracer import (NULL_TRACER, TraceEvent, Tracer, current_tracer,
                     install_tracer, tracing)
from .views import SampledStreamError

__all__ = [
    "JsonlSink", "MetricsRegistry", "NULL_TRACER", "REGISTRY",
    "SampledStreamError", "TraceEvent", "Tracer", "current_tracer",
    "event_from_dict", "event_to_dict", "install_tracer", "merge",
    "metrics", "perfetto_document", "tracing", "views",
]
