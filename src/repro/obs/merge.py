"""Cross-process trace shards and their merge into one Perfetto file.

Parallel sweeps (:mod:`repro.exec.runner`) used to be observability-
blind: worker processes would emit events into their own, unobserved
tracers.  Instead, each worker now records every point into a
*per-point trace shard* — a JSONL file with three record kinds:

* a **meta** header (``{"shard": {...}}``): shard index, a display
  label, the sweep name and point parameters, the worker ``pid``, the
  tracer's sampling config, and ``epoch_unix`` — the Unix time of the
  tracer's wall-clock epoch, which is what lets the parent translate
  every shard's relative wall stamps into one shared clock domain;
* **heartbeat** status records (``{"heartbeat": {...}}``) at point
  start and completion (with event/drop/wall totals), so a hung worker
  is visible from its shard file alone;
* plain **event** lines (the :func:`~repro.obs.sinks.event_to_dict`
  payload), written in one batch from the worker's tracer.

The parent merges any number of shards into a single Perfetto document:
shards are ordered by index; shard *k* (0-based) occupies pids
``2k+1`` (sim-time) and ``2k+2`` (wall-time), labelled with the shard's
point, so a two-shard merge of one point degenerates to the classic
two-process layout.  Wall timestamps are shifted by each shard's epoch
offset from the earliest shard, aligning all workers on one timeline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from .sinks import event_from_dict, event_to_dict, perfetto_events
from .tracer import TraceEvent

__all__ = ["ShardWriter", "TraceShard", "merged_document", "read_shard",
           "write_merged"]

SHARD_SCHEMA = "repro-trace-shard/1"


class ShardWriter:
    """Writes one trace shard (meta + heartbeats + events) as JSONL."""

    def __init__(self, path: str, *, index: int, label: str,
                 sweep: str = "", params: str = "",
                 sample: "int | None" = None, seed: int = 0) -> None:
        self.path = path
        self.index = index
        self._handle = open(path, "w")
        self._write({"shard": {
            "schema": SHARD_SCHEMA, "index": index, "label": label,
            "sweep": sweep, "params": params, "pid": os.getpid(),
            "epoch_unix": time.time(), "sample": sample, "seed": seed,
        }})

    def _write(self, obj: dict) -> None:
        self._handle.write(json.dumps(obj))
        self._handle.write("\n")
        self._handle.flush()

    def heartbeat(self, status: str, **extra) -> None:
        """A status record (``start`` / ``done`` / ``error``) with the
        worker pid and Unix time, plus any caller totals."""
        self._write({"heartbeat": {"status": status, "pid": os.getpid(),
                                   "t_unix": time.time(), **extra}})

    def write_events(self, events) -> None:
        """Append the event stream (one batch, ``tracer.events()``)."""
        handle = self._handle
        for event in events:
            handle.write(json.dumps(event_to_dict(event)))
            handle.write("\n")
        handle.flush()

    def close(self) -> None:
        self._handle.close()


@dataclass
class TraceShard:
    """One parsed shard: meta header, heartbeats, and the events."""

    meta: dict
    events: "list[TraceEvent]" = field(default_factory=list)
    heartbeats: "list[dict]" = field(default_factory=list)

    @property
    def index(self) -> int:
        return self.meta.get("index", 0)

    @property
    def label(self) -> str:
        return self.meta.get("label", f"shard-{self.index}")

    @property
    def epoch_unix(self) -> float:
        return self.meta.get("epoch_unix", 0.0)

    @property
    def sampled(self) -> bool:
        return bool(self.meta.get("sample"))


def read_shard(path: str) -> TraceShard:
    """Parse one shard file back into meta, heartbeats, and events."""
    meta: dict = {}
    heartbeats: "list[dict]" = []
    events: "list[TraceEvent]" = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "shard" in obj:
                meta = obj["shard"]
            elif "heartbeat" in obj:
                heartbeats.append(obj["heartbeat"])
            else:
                events.append(event_from_dict(obj))
    return TraceShard(meta=meta, events=events, heartbeats=heartbeats)


def merged_document(shards: "list[TraceShard]") -> dict:
    """One Perfetto document laying every shard's two time domains side
    by side, ordered by shard index, wall clocks aligned to the
    earliest shard's epoch."""
    ordered = sorted(shards, key=lambda s: (s.index, s.label))
    base_epoch = min((s.epoch_unix for s in ordered), default=0.0)
    trace_events: "list[dict]" = []
    for position, shard in enumerate(ordered):
        perfetto_events(
            shard.events,
            sim_pid=2 * position + 1, wall_pid=2 * position + 2,
            label=shard.label,
            wall_offset_s=shard.epoch_unix - base_epoch,
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


def write_merged(paths, out) -> dict:
    """Read every shard file in ``paths``, merge, and write the Perfetto
    JSON to ``out`` (path or file object).  Returns a summary dict:
    shard/event/drop totals for the caller's exit report."""
    shards = [read_shard(path) for path in paths]
    doc = merged_document(shards)
    if hasattr(out, "write"):
        json.dump(doc, out)
    else:
        with open(out, "w") as handle:
            json.dump(doc, handle)
    dropped = 0
    incomplete = 0
    for shard in shards:
        done = [h for h in shard.heartbeats if h.get("status") == "done"]
        if done:
            dropped += int(done[-1].get("dropped", 0))
        else:
            incomplete += 1
    return {"shards": len(shards),
            "events": sum(len(s.events) for s in shards),
            "dropped": dropped,
            "incomplete": incomplete}
