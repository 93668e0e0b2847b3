"""Merging traced sweep points into one Perfetto file.

A traced sweep (:mod:`repro.exec.runner`) records every computed point
under its own tracer, in-process or in a worker process, and returns the
point's events with its result.  The parent keeps each point as a
:class:`TraceShard`: its index and display label (assigned in declared
point order), ``epoch`` — the Unix time at which the point's tracer was
created, which is what lets the parent translate every shard's relative
wall stamps into one shared clock domain — the retained events, and the
tracer's dropped-event count.

The parent merges any number of shards into a single Perfetto document:
shards are ordered by index; shard *k* (0-based) occupies pids
``2k+1`` (sim-time) and ``2k+2`` (wall-time), labelled with the shard's
point, so a merge of one unlabelled shard degenerates to the classic
two-process layout.  Wall timestamps are shifted by each shard's epoch
offset from the earliest shard, aligning all workers on one timeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .sinks import perfetto_events
from .tracer import TraceEvent

__all__ = ["TraceShard", "merged_document", "write_merged"]


@dataclass
class TraceShard:
    """One traced point: its place in the merge and its events."""

    index: int
    label: str
    epoch: float
    events: "list[TraceEvent]"
    dropped: int = 0


def merged_document(shards: "list[TraceShard]") -> dict:
    """One Perfetto document laying every shard's two time domains side
    by side, ordered by shard index, wall clocks aligned to the
    earliest shard's epoch."""
    ordered = sorted(shards, key=lambda s: (s.index, s.label))
    base_epoch = min((s.epoch for s in ordered), default=0.0)
    trace_events: "list[dict]" = []
    for position, shard in enumerate(ordered):
        perfetto_events(
            shard.events,
            sim_pid=2 * position + 1, wall_pid=2 * position + 2,
            label=shard.label,
            wall_offset_s=shard.epoch - base_epoch,
            out=trace_events)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.merge",
            "sim_time_unit": "1us == 1e-6 simulated seconds",
            "shards": len(ordered),
            "shard_labels": [s.label for s in ordered],
        },
    }


def write_merged(shards: "list[TraceShard]", out) -> dict:
    """Merge ``shards`` and write the Perfetto JSON to ``out`` (path or
    file object).  Returns a summary dict: shard/event/drop totals for
    the caller's exit report."""
    doc = merged_document(shards)
    if hasattr(out, "write"):
        json.dump(doc, out)
    else:
        with open(out, "w") as handle:
            json.dump(doc, handle)
    return {"shards": len(shards),
            "events": sum(len(s.events) for s in shards),
            "dropped": sum(s.dropped for s in shards)}
