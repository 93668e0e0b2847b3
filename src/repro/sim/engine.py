"""The discrete-time simulation engine.

Time advances in quanta (default 0.1 s simulated).  Each quantum is
split into sub-steps that interleave the producer (NIC DMA through
DDIO) with the consumers (workloads draining rings / issuing memory
accesses), which is what lets ring backlog, Leaky DMA evictions and
packet drops emerge rather than being scripted.

Controllers (the IAT daemon, or the baseline policies of
:mod:`repro.core.policies`) are invoked on their own interval — 1 s for
IAT, per Table II — mirroring the daemon's sleep loop.  Scheduled
events support the paper's phase scripts ("at t1 a large number of
flows appear...", Fig. 7).
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..core.monitor import SlowdownTracker
from ..net.traffic import PhasedTraffic, TrafficGen, TrafficSpec
from ..obs.metrics import REGISTRY
from ..obs.tracer import current_tracer
from ..pci.nic import Nic, VirtualFunction
from ..tenants.tenant import Tenant, TenantSet
from ..workloads.base import (CorePort, ENGINE_STATS, EngineStats,
                              Workload)
from .metrics import MetricsRecorder, QuantumRecord, TenantSnapshot
from .platform import Platform


class Controller(Protocol):
    """A control-plane agent invoked periodically by the engine."""

    interval_s: float

    def on_start(self, now: float) -> None: ...

    def on_interval(self, now: float) -> None: ...


@dataclass
class TenantBinding:
    """A tenant together with its workload and core ports."""

    tenant: Tenant
    workload: Workload
    ports: "list[CorePort]"
    owner_id: int


@dataclass
class TrafficBinding:
    """Traffic offered to one VF, possibly phase-scripted."""

    nic: Nic
    vf: VirtualFunction
    gen: TrafficGen
    phased: "PhasedTraffic | None" = None


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: "Callable[[], None]" = field(compare=False)


#: Valid workload execution modes (see :attr:`Workload.exec_mode`):
#: ``vector`` is the fully array-native pipeline, ``scalar`` the
#: per-packet reference loop.
EXEC_MODES = ("vector", "scalar")


class Simulation:
    """Builds and runs one multi-tenant scenario on a platform.

    ``exec_mode`` selects how workloads execute each sub-quantum; both
    modes simulate the same machine and are kept equivalent by the
    engine-level equivalence suite (``tests/test_engine_batch_equiv``).
    The vector drains need an LLC that can journal, so on the scalar
    LLC backend every workload runs its scalar loop whatever the mode.
    """

    def __init__(self, platform: Platform, *, seed: int = 2021,
                 exec_mode: str = "vector") -> None:
        self.exec_mode = exec_mode
        self.platform = platform
        self.bindings: "list[TenantBinding]" = []
        self.traffic: "list[TrafficBinding]" = []
        self.controllers: "list[Controller]" = []
        self._controller_due: "list[float]" = []
        self._events: "list[_Event]" = []
        self._event_seq = 0
        self.metrics = MetricsRecorder()
        self.now = 0.0
        self._started = False
        self._seed_seq = np.random.SeedSequence(seed)
        self._counter_last: "dict[str, tuple[int, int, int, int]]" = {}
        self._ddio_last = (0, 0)
        self._vf_last: "dict[str, tuple[int, int]]" = {}
        self._quantum_seq = 0
        # Fairness export: per-tenant slowdown estimates fed to the
        # metrics registry each quantum (LFOC-style, peak-IPC proxy).
        self._slowdowns = SlowdownTracker()
        # Flow samplers by (n_flows, zipf_theta), shared by this
        # simulation's traffic streams (see TrafficGen).
        self._flow_samplers: dict = {}

    @property
    def exec_mode(self) -> str:
        return self._exec_mode

    @exec_mode.setter
    def exec_mode(self, mode: str) -> None:
        if mode not in EXEC_MODES:
            raise ValueError(f"exec_mode must be one of {EXEC_MODES}, "
                             f"not {mode!r}")
        self._exec_mode = mode

    # ------------------------------------------------------------------
    # Scenario construction
    # ------------------------------------------------------------------
    def _spawn_rng(self) -> "np.random.Generator":
        return np.random.default_rng(self._seed_seq.spawn(1)[0])

    def add_tenant(self, tenant: Tenant, workload: Workload, *,
                   region_bytes: int = 1 << 30) -> TenantBinding:
        """Register a tenant: assign a CLOS, ports, and a memory region."""
        owner_id = len(self.bindings) + 1
        tenant.cos_id = owner_id
        for core in tenant.cores:
            self.platform.cat.associate(core, tenant.cos_id)
        ports = [self.platform.core_port(core, owner_id)
                 for core in tenant.cores]
        workload.time_scale = self.platform.spec.time_scale
        workload.bind(ports, self.platform.alloc_region(region_bytes),
                      self._spawn_rng())
        binding = TenantBinding(tenant, workload, ports, owner_id)
        self.bindings.append(binding)
        return binding

    def tenant_set(self) -> TenantSet:
        return TenantSet([b.tenant for b in self.bindings])

    def attach_traffic(self, nic: Nic, vf: VirtualFunction,
                       traffic: "TrafficSpec | PhasedTraffic") -> TrafficBinding:
        """Offer traffic to a VF (rates already time-scaled by caller)."""
        phased = traffic if isinstance(traffic, PhasedTraffic) else None
        spec = phased.spec_at(0.0) if phased else traffic
        gen = TrafficGen(spec, self._spawn_rng(),
                         samplers=self._flow_samplers)
        binding = TrafficBinding(nic, vf, gen, phased)
        self.traffic.append(binding)
        return binding

    def add_controller(self, controller: Controller) -> None:
        self.controllers.append(controller)
        self._controller_due.append(controller.interval_s)

    def at(self, time: float, action: "Callable[[], None]") -> None:
        """Schedule a phase-change callback at simulated ``time``."""
        heapq.heappush(self._events, _Event(time, self._event_seq, action))
        self._event_seq += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> MetricsRecorder:
        """Advance the simulation by ``duration_s`` simulated seconds."""
        spec = self.platform.spec
        mode = self.exec_mode if self.platform.llc.can_snapshot \
            else "scalar"
        for binding in self.bindings:
            binding.workload.exec_mode = mode
        if not self._started:
            self._started = True
            for controller in self.controllers:
                controller.on_start(0.0)
            for binding in self.bindings:
                binding.workload.prefill()
            self._prime_counter_baselines()
        end = self.now + duration_s
        dt = spec.quantum_s
        while self.now < end - 1e-12:
            self._run_quantum(dt)
        return self.metrics

    def _run_quantum(self, dt: float) -> None:
        """Advance one quantum: sample every stream's arrivals,
        interleave each sub-step's DMA with the workload drains, record
        the quantum, then run the due controllers.

        On a quantum the current tracer samples
        (:meth:`~repro.obs.tracer.Tracer.begin_quantum`) the loop also
        closes back-to-back ``engine`` spans — ``traffic`` after
        sampling and after each sub-step's DMA, ``workloads`` after each
        sub-step's drains, then ``record`` and ``controllers`` — and the
        ``sim/quantum`` span around them.  Any other quantum reads no
        clock unless the metrics registry is on.  Neither changes what
        is simulated.
        """
        tracer = current_tracer()
        index = self._quantum_seq
        self._quantum_seq = index + 1
        traced = tracer.begin_quantum(index)
        metrics_on = REGISTRY.enabled
        observed = traced or metrics_on
        platform = self.platform
        # This quantum's counter baselines: its deltas cover exactly the
        # quantum, however many quanta went unobserved before it.
        if observed:
            clock = tracer.clock
            t0 = clock()
            engine_last = ENGINE_STATS.snapshot()
        if traced:
            llc_last = platform.llc.stats()
            tracer.set_sim_time(self.now)
        spec = platform.spec
        bindings = self.bindings
        self._fire_events()
        platform.mem.begin_window(dt)
        for binding in bindings:
            binding.workload.begin_quantum(self.now)
        sub_dt = dt / spec.subquanta
        budget = spec.cycles_per_quantum / spec.subquanta
        if traced:
            mark = clock()
        bundles = self._sample_traffic(sub_dt, spec.subquanta)
        if traced:
            mark = _close_stage(tracer, "traffic", mark)
        for sub in range(spec.subquanta):
            sub_now = self.now + sub * sub_dt
            for binding, bundle in bundles:
                lo = bundle.offsets[sub]
                hi = bundle.offsets[sub + 1]
                if hi > lo:
                    binding.nic.dma_burst(
                        binding.vf, bundle.sizes[lo:hi],
                        bundle.flows[lo:hi], platform.llc,
                        platform.ddio.mask, platform.mem,
                        platform.uncore, sub_now, tracer=tracer)
            if traced:
                mark = _close_stage(tracer, "traffic", mark)
            for binding in bindings:
                binding.workload.run(budget, sub_now)
            if traced:
                mark = _close_stage(tracer, "workloads", mark)
        window_bytes = platform.mem.end_window()
        self.now += dt
        record = self._record_quantum(window_bytes)
        if observed:
            engine = _engine_stats_since(engine_last)
        if traced:
            self._trace_quantum(tracer, record, llc_last, engine)
            mark = _close_stage(tracer, "record", mark)
        self._run_controllers()
        if traced:
            mark = _close_stage(tracer, "controllers", mark)
            tracer.complete("sim", "quantum", mark - t0, t=self.now)
        elif metrics_on:
            mark = clock()
        if metrics_on:
            self._export_metrics(record, mark - t0, engine)

    def _fire_events(self) -> None:
        while self._events and self._events[0].time <= self.now + 1e-12:
            heapq.heappop(self._events).action()

    def _sample_traffic(self, sub_dt: float, subquanta: int):
        """Pre-sample every stream's arrivals for the coming quantum as
        one array bundle per stream (phase scripts are honoured at
        sub-step granularity inside ``sample_quantum``)."""
        return [(binding,
                 binding.gen.sample_quantum(sub_dt, subquanta, self.now,
                                            binding.phased))
                for binding in self.traffic]

    def _run_controllers(self) -> None:
        for i, controller in enumerate(self.controllers):
            if self.now + 1e-9 >= self._controller_due[i]:
                controller.on_interval(self.now)
                self._controller_due[i] += controller.interval_s

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _prime_counter_baselines(self) -> None:
        for binding in self.bindings:
            block = self.platform.counters.aggregate(binding.tenant.cores)
            self._counter_last[binding.tenant.name] = (
                block.instructions, block.cycles,
                block.llc_references, block.llc_misses)
        exact = self.platform.uncore.exact()
        self._ddio_last = (exact.hits, exact.misses)
        for vf in self._fed_vfs():
            self._vf_last[vf.name] = (vf.delivered, vf.drops)

    def _fed_vfs(self) -> "list[VirtualFunction]":
        """Every VF with attached traffic, once — a VF may be fed by
        several streams (e.g. the KVS GET and SET streams)."""
        return list({id(b.vf): b.vf for b in self.traffic}.values())

    def _record_quantum(self, window_bytes: "tuple[int, int]"
                        ) -> QuantumRecord:
        tenants: "dict[str, TenantSnapshot]" = {}
        for binding in self.bindings:
            name = binding.tenant.name
            block = self.platform.counters.aggregate(binding.tenant.cores)
            last = self._counter_last.get(name, (0, 0, 0, 0))
            d_instr = block.instructions - last[0]
            d_cycles = block.cycles - last[1]
            tenants[name] = TenantSnapshot(
                ipc=d_instr / d_cycles if d_cycles else 0.0,
                llc_references=block.llc_references - last[2],
                llc_misses=block.llc_misses - last[3],
                mask=self.platform.cat.get_mask(binding.tenant.cos_id))
            self._counter_last[name] = (block.instructions, block.cycles,
                                        block.llc_references,
                                        block.llc_misses)
        exact = self.platform.uncore.exact()
        d_hits = exact.hits - self._ddio_last[0]
        d_misses = exact.misses - self._ddio_last[1]
        self._ddio_last = (exact.hits, exact.misses)
        read_bytes, write_bytes = window_bytes
        record = QuantumRecord(time=self.now, tenants=tenants,
                               ddio_hits=d_hits, ddio_misses=d_misses,
                               ddio_mask=self.platform.ddio.mask,
                               mem_read_bytes=read_bytes,
                               mem_write_bytes=write_bytes)
        for vf in self._fed_vfs():
            name = vf.name
            last = self._vf_last.get(name, (0, 0))
            record.vf_delivered[name] = vf.delivered - last[0]
            record.vf_dropped[name] = vf.drops - last[1]
            self._vf_last[name] = (vf.delivered, vf.drops)
        self.metrics.append(record)
        return record

    def _trace_quantum(self, tracer, record: QuantumRecord,
                       llc_last: "dict[str, int]", engine: dict) -> None:
        """Emit one quantum's telemetry: the full record (the
        ``metrics`` view's source of truth), per-track counters, and
        the LLC and chunk counters' change since the quantum began
        (``llc_last``; ``engine`` is ENGINE_STATS' delta)."""
        tracer.set_sim_time(record.time)
        tracer.instant("metrics", "quantum", **asdict(record))
        tracer.counter("ddio", "events", hits=record.ddio_hits,
                       misses=record.ddio_misses, mask=record.ddio_mask)
        tracer.counter("mem", "bytes", read=record.mem_read_bytes,
                       write=record.mem_write_bytes)
        for name, snap in record.tenants.items():
            tracer.counter("tenant", name, ipc=snap.ipc,
                           llc_references=snap.llc_references,
                           llc_misses=snap.llc_misses, mask=snap.mask)
        tracer.counter("llc", "events",
                       **{key: value - llc_last[key]
                          for key, value in self.platform.llc.stats().items()})
        if engine["chunks"]:
            tracer.counter("engine", "chunks",
                           chunks=engine["chunks"],
                           packets=engine["packets"],
                           exec_packets=engine["exec_packets"],
                           spec_chunks=engine["spec_chunks"],
                           rollbacks=engine["rollbacks"],
                           wasted_packets=engine["wasted_packets"],
                           kernel_launches=engine["kernel_launches"])

    def _export_metrics(self, record: QuantumRecord, wall_s: float,
                        delta: dict) -> None:
        """Feed the process-wide metrics registry from one quantum's
        record, its wall time and ENGINE_STATS' ``delta`` over it
        (callers gate on ``REGISTRY.enabled``)."""
        reg = REGISTRY
        reg.gauge("repro_sim_time_seconds",
                  "Simulated time").set(record.time)
        reg.histogram("repro_quantum_wall_seconds",
                      "Wall-clock time per simulation quantum"
                      ).observe(wall_s)
        ipc = reg.gauge("repro_tenant_ipc",
                        "Per-tenant IPC over the last quantum")
        misses = reg.counter("repro_tenant_llc_misses_total",
                             "Per-tenant LLC misses")
        for name, snap in record.tenants.items():
            ipc.labels(tenant=name).set(snap.ipc)
            misses.labels(tenant=name).inc(snap.llc_misses)
        slowdowns = self._slowdowns.update(
            {name: snap.ipc for name, snap in record.tenants.items()})
        slow = reg.gauge("repro_tenant_slowdown",
                         "Estimated slowdown (best observed IPC over "
                         "current IPC, LFOC-style)")
        for name, value in slowdowns.items():
            slow.labels(tenant=name).set(value)
        reg.gauge("repro_fairness_index",
                  "Jain fairness index over per-tenant slowdowns "
                  "(1.0 = perfectly fair)").set(
            self._slowdowns.fairness_index())
        ddio_total = record.ddio_hits + record.ddio_misses
        reg.gauge("repro_ddio_hit_rate",
                  "DDIO hit fraction over the last quantum").set(
            record.ddio_hits / ddio_total if ddio_total else 0.0)
        reg.counter("repro_ddio_hits_total",
                    "DDIO (inline DMA) LLC hits").inc(record.ddio_hits)
        reg.counter("repro_ddio_misses_total",
                    "DDIO (inline DMA) LLC misses").inc(record.ddio_misses)
        mem = reg.counter("repro_mem_bytes_total",
                          "Memory controller traffic in bytes")
        mem.labels(dir="read").inc(record.mem_read_bytes)
        mem.labels(dir="write").inc(record.mem_write_bytes)
        delivered = reg.counter("repro_vf_delivered_total",
                                "Packets delivered per virtual function")
        dropped = reg.counter("repro_vf_dropped_total",
                              "Packets dropped per virtual function")
        total_delivered = 0
        total_dropped = 0
        for name, count in record.vf_delivered.items():
            drops = record.vf_dropped.get(name, 0)
            delivered.labels(vf=name).inc(count)
            dropped.labels(vf=name).inc(drops)
            total_delivered += count
            total_dropped += drops
        offered = total_delivered + total_dropped
        reg.gauge("repro_vf_drop_rate",
                  "Packet drop fraction over the last quantum").set(
            total_dropped / offered if offered else 0.0)
        if delta["chunks"]:
            reg.counter("repro_engine_chunks_total",
                        "Executed vector-drain chunks").inc(delta["chunks"])
            reg.counter("repro_engine_packets_total",
                        "Packets committed by the vector drains"
                        ).inc(delta["packets"])
            reg.counter("repro_spec_chunks_total",
                        "Chunks executed under a speculative snapshot"
                        ).inc(delta["spec_chunks"])
            reg.counter("repro_spec_rollbacks_total",
                        "Speculative chunks rolled back on budget "
                        "overshoot").inc(delta["rollbacks"])
            reg.counter("repro_spec_wasted_packets_total",
                        "Packets executed and then rolled back"
                        ).inc(delta["wasted_packets"])
            spec = delta["spec_chunks"]
            reg.gauge("repro_spec_rollback_rate",
                      "Rollback fraction of speculative chunks over the "
                      "last quantum").set(
                delta["rollbacks"] / spec if spec else 0.0)
            reg.gauge("repro_engine_kernel_launches_per_chunk",
                      "Plan-pipeline NumPy launches per chunk over the "
                      "last quantum").set(
                delta["kernel_launches"] / delta["chunks"])
            reg.histogram("repro_chunk_size_packets",
                          "Packets per executed chunk",
                          buckets=EngineStats.SIZE_BUCKETS).add_counts(
                delta["size_buckets"], delta["chunks"],
                delta["exec_packets"])


def _close_stage(tracer, name: str, start: float) -> float:
    """Close the ``engine/<name>`` span opened at clock reading
    ``start``; returns the reading that closes it, which opens the next
    stage."""
    end = tracer.clock()
    tracer.complete("engine", name, end - start)
    return end


def _engine_stats_since(last: dict) -> dict:
    """ENGINE_STATS' change since the snapshot ``last``."""
    snap = ENGINE_STATS.snapshot()
    delta = {key: value - last[key] for key, value in snap.items()
             if key != "size_buckets"}
    delta["size_buckets"] = tuple(
        v - p for v, p in zip(snap["size_buckets"], last["size_buckets"]))
    return delta
