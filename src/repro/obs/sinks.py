"""Trace sinks and the Perfetto export.

A sink is a stream: ``emit(event)`` receives each
:class:`~repro.obs.tracer.TraceEvent` as the tracer pushes it, and
``close()`` flushes.  :class:`JsonlSink` writes one JSON object per line,
suitable for tailing a long run.  The tracer itself holds the retained
events (``tracer.events()``).

:func:`perfetto_document` turns any event list into Chrome
``trace_event`` JSON (the legacy JSON flavour Perfetto ingests), so a
whole run can be dropped into https://ui.perfetto.dev.  Simulated-time
events (instants, counters) land on a ``sim-time`` process whose
microseconds are simulated seconds x 1e6; wall-clock spans land on a
separate ``wall-time`` process, keeping the two time domains visually
distinct.  The same converter (:func:`perfetto_events`) is parameterized
over pids/labels/offsets so :mod:`repro.obs.merge` can lay multiple
processes' shards side by side.
"""

from __future__ import annotations

import json
from numbers import Number

from .tracer import TraceEvent

#: Synthetic pids separating the two time domains in the Perfetto UI.
SIM_PID = 1
WALL_PID = 2


def event_to_dict(event: TraceEvent) -> dict:
    """Plain-dict form of an event (the JSONL line payload)."""
    return {
        "seq": event.seq,
        "ts": event.ts,
        "wall": event.wall,
        "ph": event.phase,
        "cat": event.category,
        "name": event.name,
        "dur": event.dur,
        "args": event.args,
    }


def event_from_dict(raw: dict) -> TraceEvent:
    """Inverse of :func:`event_to_dict` (reads a JSONL line back)."""
    return TraceEvent(seq=raw["seq"], ts=raw["ts"], wall=raw["wall"],
                      phase=raw["ph"], category=raw["cat"],
                      name=raw["name"], dur=raw.get("dur", 0.0),
                      args=raw.get("args", {}))


class JsonlSink:
    """Streams one JSON object per event to a path or file object."""

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
        else:
            self._handle = open(target, "w")
            self._owns = True

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event_to_dict(event)))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owns:
            self._handle.close()


def perfetto_events(events, *, sim_pid: int = SIM_PID,
                    wall_pid: int = WALL_PID, label: str = "",
                    wall_offset_s: float = 0.0,
                    out: "list[dict] | None" = None) -> "list[dict]":
    """Convert events to Chrome ``trace_event`` dicts (plus metadata).

    One thread per category within each time-domain process; thread ids
    are assigned in first-seen order so identical runs produce identical
    documents.  ``label`` prefixes the process names and
    ``wall_offset_s`` shifts wall timestamps into a shared clock domain
    — both used by :mod:`repro.obs.merge` to lay shards from several
    processes side by side; the defaults reproduce the classic
    two-process (``sim-time`` pid 1 / ``wall-time`` pid 2) layout.
    """
    tids: "dict[tuple[int, str], int]" = {}
    out = [] if out is None else out
    prefix = f"{label} " if label else ""
    for pid, domain in ((sim_pid, "sim-time"), (wall_pid, "wall-time")):
        out.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                    "name": "process_name",
                    "args": {"name": f"{prefix}{domain}"}})

    def tid_of(pid: int, category: str) -> int:
        key = (pid, category)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == pid]) + 1
            tids[key] = tid
            out.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                        "name": "thread_name", "args": {"name": category}})
        return tid

    for event in events:
        if event.phase == "X":
            out.append({"ph": "X", "pid": wall_pid,
                        "tid": tid_of(wall_pid, event.category),
                        "ts": (event.wall + wall_offset_s) * 1e6,
                        "dur": event.dur * 1e6,
                        "cat": event.category, "name": event.name,
                        "args": dict(event.args)})
        elif event.phase == "C":
            # Counter tracks accept numeric series only.
            values = {k: v for k, v in event.args.items()
                      if isinstance(v, Number) and not isinstance(v, bool)}
            out.append({"ph": "C", "pid": sim_pid,
                        "tid": tid_of(sim_pid, event.category),
                        "ts": event.ts * 1e6,
                        "name": f"{event.category}.{event.name}",
                        "args": values})
        else:
            out.append({"ph": "i", "pid": sim_pid,
                        "tid": tid_of(sim_pid, event.category),
                        "ts": event.ts * 1e6, "s": "t",
                        "cat": event.category, "name": event.name,
                        "args": dict(event.args)})
    return out


def perfetto_document(events) -> dict:
    """The full JSON object Perfetto/chrome://tracing loads."""
    return {
        "traceEvents": perfetto_events(events),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs",
                      "sim_time_unit": "1us == 1e-6 simulated seconds"},
    }
