"""Shared runner for the application co-location study (Figs. 12-14).

Paper Sec. VI-C protocol:

1. Run each application **solo** for its isolated performance.
2. Co-run it with a networking workload (Redis behind OVS, or the
   FastClick NFV chain) under the baseline (random initial placement,
   no DDIO awareness) and under IAT (tenant-way management disabled,
   shuffling active), ten times each.
3. Report degradation vs. the solo run; the baseline's min-max range
   comes from where the random shuffle happened to place the
   cache-hungry containers relative to DDIO.

This module runs one (scenario, app, mode, seed) cell and returns every
metric the three figures need, so the per-figure modules are thin
aggregations.  :func:`solo_app_run`, :func:`solo_net_run` and
:func:`corun` are module-level pure functions of picklable arguments on
purpose: they are the *point functions* of the Fig. 12-14 sweeps
(:mod:`repro.exec`), dispatched to worker processes and keyed into the
result cache by their argument lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.config import PlatformSpec, XEON_6140
from ..sim.engine import Simulation
from ..sim.platform import Platform
from ..tenants.tenant import Priority, Tenant
from ..workloads import RocksDb, SpecWorkload
from ..workloads.spec import SPEC_PROFILES
from ..workloads.ycsb import ALL_WORKLOADS, OpType
from .common import Scenario, kvs_scenario, nfv_scenario
from .measure import StatsWindow


@dataclass
class AppMetrics:
    """Everything measured for one run."""

    #: Application progress rate: SPEC instructions/s or RocksDB ops/s.
    app_rate: float
    #: RocksDB per-op-type average latency (cycles), if the app is RocksDB.
    rocksdb_per_op: "dict[OpType, float] | None" = None
    #: Aggregate Redis metrics (None for the NFV scenario / solo app runs).
    redis_tput: "float | None" = None
    redis_avg_us: "float | None" = None
    redis_p99_us: "float | None" = None


def _app_rate(workload, seconds: float, time_scale: float,
              start_instr: float, start_ops: int) -> float:
    if isinstance(workload, SpecWorkload):
        return (workload.instructions_retired - start_instr) \
            / seconds / time_scale
    return (workload.stats.ops - start_ops) / seconds / time_scale


def _rocksdb_window(workload: RocksDb, start):
    out = {}
    for op, acc in workload.per_op.items():
        count = acc.count - start[op][0]
        total = acc.total_cycles - start[op][1]
        out[op] = total / count if count else 0.0
    return out


def measure_scenario(scenario: Scenario, *, warmup_s: float,
                     measure_s: float) -> AppMetrics:
    """Warm up, then measure the app (and Redis, if present)."""
    sim = scenario.sim
    platform = scenario.platform
    app = scenario.workloads.get("app")
    redis = [w for name, w in scenario.workloads.items()
             if name.startswith("redis")]
    sim.run(warmup_s)
    now0 = sim.now
    app_instr0 = getattr(app, "instructions_retired", 0.0) if app else 0.0
    app_ops0 = app.stats.ops if app else 0
    rocks0 = ({op: (acc.count, acc.total_cycles)
               for op, acc in app.per_op.items()}
              if isinstance(app, RocksDb) else None)
    redis_windows = [StatsWindow(r) for r in redis]
    redis_sample0 = [len(r.stats.latency_samples) for r in redis]
    for w in redis_windows:
        w.open(now0)
    sim.run(measure_s)
    elapsed = sim.now - now0
    scale = scenario.time_scale
    freq = platform.spec.freq_hz

    metrics = AppMetrics(app_rate=_app_rate(app, elapsed, scale,
                                            app_instr0, app_ops0)
                         if app else 0.0)
    if rocks0 is not None:
        metrics.rocksdb_per_op = _rocksdb_window(app, rocks0)
    if redis:
        results = [w.close(sim.now) for w in redis_windows]
        metrics.redis_tput = sum(r.ops_per_sec(scale) for r in results)
        total_ops = sum(r.ops for r in results)
        total_lat = sum(r.latency_sum_cycles for r in results)
        metrics.redis_avg_us = (total_lat / total_ops / freq * 1e6
                                if total_ops else 0.0)
        samples = np.concatenate([
            np.asarray(r.stats.latency_samples[s0:])
            for r, s0 in zip(redis, redis_sample0)
            if len(r.stats.latency_samples) > s0] or [np.zeros(1)])
        metrics.redis_p99_us = float(np.percentile(samples, 99)) / freq * 1e6
    return metrics


# ---------------------------------------------------------------------------
# Solo runs
# ---------------------------------------------------------------------------
def solo_app_run(app: str, ycsb_letter: str = "C", *,
                 warmup_s: float = 2.0, measure_s: float = 4.0,
                 spec: "PlatformSpec | None" = None,
                 seed: int = 99) -> AppMetrics:
    """The app alone on the machine, on its two ways (Sec. VI-C solo)."""
    platform = Platform(spec or XEON_6140)
    sim = Simulation(platform, seed=seed)
    freq = platform.spec.freq_hz
    if app == "rocksdb":
        workload = RocksDb("app", ALL_WORKLOADS[ycsb_letter],
                           core_freq_hz=freq)
    else:
        workload = SpecWorkload(SPEC_PROFILES[app], core_freq_hz=freq)
        workload.name = "app"
    sim.add_tenant(Tenant("app", cores=(0,), priority=Priority.PC,
                          initial_ways=2), workload)
    scenario = Scenario(platform, sim, workloads={"app": workload})
    scenario.attach_controller("static")
    return measure_scenario(scenario, warmup_s=warmup_s,
                            measure_s=measure_s)


def solo_net_run(kind: str, ycsb_letter: str = "C", *,
                 warmup_s: float = 2.0, measure_s: float = 4.0,
                 spec: "PlatformSpec | None" = None) -> AppMetrics:
    """The networking side alone (for Fig. 14's Redis solo baseline)."""
    scenario = build_corun(kind, app=None, ycsb_letter=ycsb_letter,
                           spec=spec)
    scenario.attach_controller("baseline")
    return measure_scenario(scenario, warmup_s=warmup_s,
                            measure_s=measure_s)


# ---------------------------------------------------------------------------
# Co-run
# ---------------------------------------------------------------------------
def build_corun(kind: str, app: "str | None", ycsb_letter: str = "C", *,
                spec: "PlatformSpec | None" = None,
                seed: int = 12) -> Scenario:
    if kind == "kvs":
        scenario = kvs_scenario(app=app or "gcc", ycsb_letter=ycsb_letter,
                                spec=spec, seed=seed)
    elif kind == "nfv":
        scenario = nfv_scenario(app=app or "gcc", ycsb_letter=ycsb_letter,
                                spec=spec, seed=seed)
    else:
        raise ValueError(f"unknown scenario kind {kind!r}")
    if app is None:
        # Solo-networking variant: silence the non-networking containers
        # by removing their bindings before the run starts.
        scenario.sim.bindings = [
            b for b in scenario.sim.bindings
            if b.tenant.name not in ("app", "be0", "be1")]
        for name in ("app", "be0", "be1"):
            scenario.workloads.pop(name, None)
    return scenario


def corun(kind: str, app: str, mode: str, *, ycsb_letter: str = "C",
          seed: int = 0, warmup_s: float = 2.0, measure_s: float = 4.0,
          spec: "PlatformSpec | None" = None) -> AppMetrics:
    """One co-located run under ``mode`` ('baseline' uses random placement
    seeded by ``seed``; 'iat' runs with tenant-way management disabled,
    per Sec. VI-C)."""
    scenario = build_corun(kind, app, ycsb_letter, spec=spec,
                           seed=1000 + seed)
    if mode == "baseline":
        scenario.attach_controller("baseline-rand", seed=seed)
    elif mode == "iat":
        scenario.attach_controller("iat", manage_tenant_ways=False)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return measure_scenario(scenario, warmup_s=warmup_s,
                            measure_s=measure_s)
