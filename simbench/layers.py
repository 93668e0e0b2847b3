"""Per-layer tracing for the benchmark's traced run.

The simulator is not instrumented for this: the traced run wraps the
public entry points of each layer under ``src/repro/`` from outside, and
each wrapped call records one span — name, start, end, parent span and
quantum index — in compact in-memory arrays that are written out when
the run ends.  A layer's self time is its spans' durations minus the
durations of their child spans.

LLC spans are named after the layer that called into the cache:
``cache.ddio`` under ``Nic.dma_burst``, ``cache.core`` anywhere else,
and ``cache.journal`` for the speculation journal.  A cache call made
from inside another cache call (``ddio_write_batch`` calls
``access_batch``) is folded into its caller.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from repro.cache.llc import SlicedLLC
from repro.core.daemon import ControllerDaemon
from repro.net.traffic import TrafficGen
from repro.pci.nic import Nic
from repro.pci.ring import DescRing
from repro.sim.engine import Simulation
from repro.vswitch.flowtable import FlowTables
from repro.workloads.base import ENGINE_STATS, CorePort, VectorPlan, Workload

#: (class, methods, span name) for every wrapped entry point outside
#: the cache.  Workload subclasses' own ``plan_chunk``,
#: ``plan_transmit_chunk`` and ``prefill`` are added by :func:`_sites`.
_FIXED_SITES = (
    (Simulation, ("run",), "sim"),
    (TrafficGen, ("sample_quantum",), "net"),
    (Nic, ("dma_burst",), "pci.dma"),
    (DescRing, ("post_batch", "peek_batch", "consume_batch"), "pci.ring"),
    (Workload, ("run",), "workloads.drain"),
    (VectorPlan, ("materialize",), "workloads.plan"),
    (CorePort, ("run_plan", "access_batch", "access"), "workloads.account"),
    (FlowTables, ("lookup_chunk", "lookup"), "vswitch"),
    (ControllerDaemon, ("on_interval",), "core"),
)

#: SlicedLLC entry points: method -> whether its first argument is an
#: address vector (counted as the span's items).
_CACHE_METHODS = {"access_batch": True, "ddio_write_batch": True,
                  "device_read_batch": True, "access": False}
_JOURNAL_METHODS = ("snapshot", "rollback", "commit")

#: Span names the set-up phase records.
SETUP_BUILD = "setup.build"
SETUP_PREFILL = "setup.prefill"


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


def _sites() -> list:
    sites = list(_FIXED_SITES)
    for cls in _subclasses(Workload):
        own = cls.__dict__
        plans = tuple(m for m in ("plan_chunk", "plan_transmit_chunk")
                      if m in own)
        if plans:
            sites.append((cls, plans, "workloads.plan"))
        if "prefill" in own:
            sites.append((cls, ("prefill",), SETUP_PREFILL))
    return sites


class SpanLog:
    """In-memory span store plus the wrappers that fill it.

    ``quantum`` is the index stamped on new spans; the benchmark sets it
    before each step (negative indices mark set-up).
    """

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.quantum_of = array("i")
        self.items = array("q")
        self.stack: "list[int]" = []
        self.quantum = 0
        self._restore: "list[tuple]" = []

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    # -- recording -------------------------------------------------------
    def _open(self, sid: int, items: int) -> int:
        i = len(self.start)
        stack = self.stack
        self.name.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.quantum_of.append(self.quantum)
        self.items.append(items)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._plain(fn, self.name_id(name))(*args, **kwargs)

    def _plain(self, fn, sid: int):
        log = self

        def wrapper(*args, **kwargs):
            i = log._open(sid, 0)
            try:
                return fn(*args, **kwargs)
            finally:
                log._close(i)
        return wrapper

    def _cache(self, fn, counted: bool):
        log = self
        names = self.name
        stack = self.stack
        ddio = self.name_id("cache.ddio")
        core = self.name_id("cache.core")
        cache_ids = {ddio, core, self.name_id("cache.journal")}
        dma = self.name_id("pci.dma")

        def wrapper(*args, **kwargs):
            top = names[stack[-1]] if stack else -1
            if top in cache_ids:
                return fn(*args, **kwargs)
            i = log._open(ddio if top == dma else core,
                          len(args[1]) if counted else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                log._close(i)
        return wrapper

    def install(self) -> None:
        """Wrap every layer's entry points (undo with :meth:`uninstall`)."""
        if self._restore:
            raise RuntimeError("SpanLog already installed")
        patches = []
        for cls, methods, name in _sites():
            sid = self.name_id(name)
            for method in methods:
                patches.append((cls, method, self._plain(
                    cls.__dict__[method], sid)))
        for method, counted in _CACHE_METHODS.items():
            patches.append((SlicedLLC, method, self._cache(
                SlicedLLC.__dict__[method], counted)))
        journal = self.name_id("cache.journal")
        for method in _JOURNAL_METHODS:
            patches.append((SlicedLLC, method, self._plain(
                SlicedLLC.__dict__[method], journal)))
        for cls, method, wrapper in patches:
            self._restore.append((cls, method, cls.__dict__[method]))
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._restore):
            setattr(cls, method, original)
        self._restore = []

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "quantum": np.frombuffer(self.quantum_of, dtype=np.int32),
                "items": np.frombuffer(self.items, dtype=np.int64)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> "np.ndarray":
    """Each span's duration minus its children's durations."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=dur.shape[0])
    return dur - covered


def counters(scen) -> dict:
    """The exact simulator counters the per-layer ratios are made of."""
    llc = scen.platform.llc
    tables = [w.tables for w in scen.workloads.values()
              if isinstance(getattr(w, "tables", None), FlowTables)]
    snap = ENGINE_STATS.snapshot()
    del snap["size_buckets"]
    return {
        **snap,
        "dma_lines": sum(vf.ddio_hits + vf.ddio_misses
                         for vf in scen.vfs.values()),
        "dma_packets": sum(vf.delivered for vf in scen.vfs.values()),
        "ddio_hits": llc.stat_ddio_hits,
        "ddio_writes": llc.stat_ddio_hits + llc.stat_ddio_misses,
        "emc_hits": sum(t.emc_hits for t in tables),
        "emc_lookups": sum(t.emc_hits + t.emc_misses for t in tables),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-quantum self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "net.ms": "net",
    "pci.dma_ms": "pci.dma",
    "pci.ring_ms": "pci.ring",
    "cache.ddio_ms": "cache.ddio",
    "cache.core_ms": "cache.core",
    "cache.journal_ms": "cache.journal",
    "workloads.drain_ms": "workloads.drain",
    "workloads.plan_ms": "workloads.plan",
    "workloads.account_ms": "workloads.account",
    "vswitch.ms": "vswitch",
    "sim.other_ms": "sim",
}


def report(log: SpanLog, before: dict, after: dict, ref_ms: list,
           setup_ref_ms: list, nominal_ms: float) -> dict:
    """Per-layer metrics of a traced run.

    ``before``/``after`` are :func:`counters` at the edges of the
    measured window; ``ref_ms[i]`` is the reference-kernel time that
    scales measured quantum ``i + 1`` and ``setup_ref_ms[r]`` the one
    that scales set-up ``r``.  Times are reference-scaled; counts are
    exact.
    """
    spans = log.arrays()
    name = spans["name"]
    quantum = spans["quantum"]
    dur = spans["end"] - spans["start"]
    ids = {n: i for i, n in enumerate(log.names)}

    # Seconds of a measured quantum -> reference-scaled milliseconds.
    quanta = len(ref_ms)
    factor = np.zeros(quanta + 1)
    factor[1:] = 1e3 * nominal_ms / np.asarray(ref_ms)
    measured = quantum >= 1
    where = name[measured]
    scale = factor[quantum[measured]]
    busy = np.bincount(where, weights=self_times(spans)[measured] * scale,
                       minlength=len(ids))
    inclusive = np.bincount(where, weights=dur[measured] * scale,
                            minlength=len(ids))
    calls = np.bincount(where, minlength=len(ids))

    out = {metric: float(busy[ids[span]]) / quanta
           for metric, span in SELF_TIME_METRICS.items()}
    cache_spans = measured & np.isin(name, [ids["cache.ddio"],
                                            ids["cache.core"]])
    batches = int(np.count_nonzero(cache_spans))
    out["cache.batches"] = batches / quanta
    out["cache.lines_per_batch"] = _ratio(
        int(spans["items"][cache_spans].sum()), batches)
    core = ids["core"]
    out["core.iterations"] = int(calls[core])
    out["core.ms_per_iter"] = _ratio(float(busy[core]), int(calls[core]))
    # Whole traced quanta, against which trace.overhead and the shares
    # are taken.
    out["quantum_ms_mean"] = float(inclusive[ids["sim"]]) / quanta

    d = {key: after[key] - before[key] for key in after}
    out["pci.lines_per_pkt"] = _ratio(d["dma_lines"], d["dma_packets"])
    out["cache.ddio_hit_ratio"] = _ratio(d["ddio_hits"], d["ddio_writes"])
    out["workloads.chunk_pkts"] = _ratio(d["exec_packets"], d["chunks"])
    out["workloads.launches_per_chunk"] = _ratio(d["kernel_launches"],
                                                 d["chunks"])
    out["workloads.rollback_rate"] = _ratio(d["rollbacks"], d["spec_chunks"])
    out["workloads.useful_share"] = _ratio(d["packets"], d["exec_packets"])
    out["vswitch.emc_hit_ratio"] = _ratio(d["emc_hits"], d["emc_lookups"])

    # Set-up phases: inclusive durations per set-up, scaled, median.
    parent = spans["parent"]
    top_prefill = (name == ids[SETUP_PREFILL]) & (
        (parent < 0) | (name[np.maximum(parent, 0)] != name))
    build = name == ids[SETUP_BUILD]
    builds, prefills = [], []
    for rep, ref in enumerate(setup_ref_ms):
        in_rep = quantum == -1 - rep
        builds.append(float(dur[build & in_rep].sum()) * nominal_ms / ref)
        prefills.append(float(dur[top_prefill & in_rep].sum())
                        * nominal_ms / ref)
    out["setup.build_s"] = float(np.median(builds))
    out["setup.prefill_s"] = float(np.median(prefills))
    return out
