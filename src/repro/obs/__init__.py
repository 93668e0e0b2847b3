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

* **hot path** — events land in a preallocated NumPy structured ring
  (:mod:`repro.obs.ring`): no per-event dicts, interned strings,
  counted (never silent) overflow;
* **sampling** — ``Tracer(sample=N, seed=s)`` traces 1-in-N quanta
  deterministically; un-sampled quanta emit nothing and read no clock;
* **self-profiling** — ``Tracer.profile_shares()`` reads per-subsystem
  wall-time shares off the buffered spans, so wall time is stored once;
* **metrics** — :mod:`repro.obs.metrics` keeps counters/gauges/
  histograms (per-tenant IPC, DDIO hit rate, drop rate, quantum wall
  time) with Prometheus-text and JSON exposition;
* **cross-process** — sweep workers record per-point trace shards that
  :mod:`repro.obs.merge` merges into one Perfetto file
  (``repro figure --jobs N --trace-out``).

Sinks: an in-memory ring buffer, a JSONL stream, and Chrome/Perfetto
``trace_event`` JSON (open it at https://ui.perfetto.dev).  The legacy
recorders (``MetricsRecorder``, ``ControllerDaemon.history``) are exactly
reconstructible from a full-fidelity stream via :mod:`repro.obs.views`
(a sampled stream raises :class:`~repro.obs.views.SampledStreamError`).

See ``docs/observability.md`` for the event taxonomy and a worked
example; ``repro trace <figure>`` traces any figure harness from the
command line.
"""

from . import merge, metrics, views
from .metrics import REGISTRY, MetricsRegistry
from .ring import StructRing
from .sinks import (JsonlSink, PerfettoSink, RingBufferSink, event_from_dict,
                    event_to_dict, perfetto_document)
from .tracer import (NULL_TRACER, NullTracer, TraceEvent, Tracer,
                     current_tracer, install_tracer, tracing)
from .views import SampledStreamError

__all__ = [
    "JsonlSink", "MetricsRegistry", "NULL_TRACER", "NullTracer",
    "PerfettoSink", "REGISTRY", "RingBufferSink", "SampledStreamError",
    "StructRing", "TraceEvent", "Tracer", "current_tracer",
    "event_from_dict", "event_to_dict", "install_tracer", "merge",
    "metrics", "perfetto_document", "tracing", "views",
]
