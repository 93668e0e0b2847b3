"""Extension study: device-aware and application-aware DDIO (Sec. VII).

The paper's "Future DDIO consideration": today every PCIe device shares
the same DDIO ways, so "a BE batch application with heavy inbound
traffic may evict the data of other PC applications from DDIO's LLC
ways".  The authors propose two hardware evolutions, both implemented
in this reproduction's NIC model:

* **device-aware DDIO** — per-device way masks
  (``VirtualFunction.ddio_mask_override``), CAT-style;
* **application-aware DDIO** — header-only injection
  (``VirtualFunction.header_only_ddio``): payload lines bypass the LLC.

This experiment builds that exact scenario: a latency-sensitive PC
forwarder and a bandwidth-hungry BE bulk stream on separate VFs, then
compares three DDIO configurations.  The victim metric is the PC
tenant's LLC miss rate on its packet buffers (evicted buffers must be
re-fetched from DRAM) and its average packet latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.cat import ways_to_mask
from ..core import ControlPlane, ControllerDaemon, StaticPolicy
from ..exec import ParallelRunner, SweepSpec, run_sweep
from ..net.traffic import TrafficSpec
from ..sim.config import PlatformSpec
from ..sim.engine import Simulation
from ..tenants.tenant import Priority, Tenant
from ..workloads.l3fwd import L3Fwd
from ..workloads.testpmd import TestPmd
from .common import make_platform
from .measure import mean_mem_bandwidth, steady_window

MODES = ("shared", "device-aware", "header-only")


@dataclass
class ExtPoint:
    mode: str
    #: The victim metric: the PC device's DDIO hit rate.  A write
    #: allocate on a recycled mbuf means the bulk device evicted the
    #: PC device's pool from the shared ways since the last cycle.
    pc_ddio_hit_rate: float
    pc_miss_rate: float
    pc_latency_us: float
    mem_gbps: float


@dataclass
class ExtResult:
    points: "list[ExtPoint]"

    def point(self, mode: str) -> ExtPoint:
        for p in self.points:
            if p.mode == mode:
                return p
        raise KeyError(mode)


def run_one(mode: str, *, duration_s: float = 8.0, warmup_s: float = 3.0,
            spec: "PlatformSpec | None" = None, seed: int = 7) -> ExtPoint:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    platform = make_platform(spec)
    ways = platform.spec.llc.ways
    # Shared and header-only run on the hardware-default two DDIO ways;
    # device-aware widens to four so each device can own two — giving
    # devices their own ways is exactly the hardware evolution the
    # paper proposes.
    platform.ddio.set_ways(4 if mode == "device-aware" else 2)
    sim = Simulation(platform, seed=seed)
    nic = platform.add_nic("nic0", 40.0)
    pc_vf = nic.add_vf(entries=512, name="pc.vf")
    # The bulk device's mbuf pool (4096 x 2 x 24 lines at MTU) exceeds
    # even four DDIO ways, so under the shared default its churn evicts
    # the PC device's buffers — the Sec. VII motivating situation.
    be_vf = nic.add_vf(entries=4096, name="be.vf")

    if mode == "device-aware":
        pc_vf.ddio_mask_override = ways_to_mask(ways - 2, 2)   # top two
        be_vf.ddio_mask_override = ways_to_mask(ways - 4, 2)   # next two
    elif mode == "header-only":
        be_vf.header_only_ddio = True

    # The PC tenant forwards against a large flow table, so its own CAT
    # ways churn with table entries (as a real latency-critical NF's
    # would with application state) — evicted rx buffers cannot park in
    # its ways for long, and the DDIO hit rate honestly reflects
    # whether the bulk device pushed its pool out of the shared ways.
    pc = L3Fwd("pc", [pc_vf.rx_ring], n_flows=1_000_000,
               core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("pc", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=2), pc)
    be = TestPmd("be", [be_vf.rx_ring],
                 core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("be", cores=(1, 2), priority=Priority.BE,
                          is_io=True, initial_ways=2), be)
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    sim.add_controller(ControllerDaemon(control, StaticPolicy()))

    scale = platform.spec.time_scale
    # PC: modest latency-critical traffic; BE: bulk MTU at line rate.
    sim.attach_traffic(nic, pc_vf, TrafficSpec.line_rate(
        10.0, 256, scale=scale, n_flows=1_000_000, zipf_theta=0.5))
    sim.attach_traffic(nic, be_vf, TrafficSpec.line_rate(
        40.0, 1500, scale=scale))
    sim.run(duration_s)

    records = steady_window(sim.metrics, warmup_s)
    refs = sum(r.tenants["pc"].llc_references for r in records)
    misses = sum(r.tenants["pc"].llc_misses for r in records)
    quantum = platform.spec.quantum_s
    return ExtPoint(
        mode=mode,
        pc_ddio_hit_rate=pc_vf.ddio_hit_rate,
        pc_miss_rate=misses / refs if refs else 0.0,
        pc_latency_us=(pc.stats.avg_latency_cycles
                       / platform.spec.freq_hz * 1e6),
        mem_gbps=mean_mem_bandwidth(records, quantum, scale) / 1e9)


def sweep(*, duration_s: float = 8.0, warmup_s: float = 3.0,
          spec: "PlatformSpec | None" = None) -> SweepSpec:
    return SweepSpec.from_product(
        "ext-ddio", run_one, axes={"mode": MODES},
        common=dict(duration_s=duration_s, warmup_s=warmup_s, spec=spec))


def run(*, duration_s: float = 8.0, warmup_s: float = 3.0,
        spec: "PlatformSpec | None" = None,
        runner: "ParallelRunner | None" = None) -> ExtResult:
    return ExtResult(run_sweep(sweep(duration_s=duration_s,
                                     warmup_s=warmup_s, spec=spec),
                               runner))


def format_table(result: ExtResult) -> str:
    lines = ["Extension — device-/application-aware DDIO (Sec. VII)",
             f"{'mode':>14} {'PC DDIO hit':>12} {'PC miss rate':>13} "
             f"{'PC latency':>12} {'mem GB/s':>9}"]
    for p in result.points:
        lines.append(f"{p.mode:>14} {p.pc_ddio_hit_rate * 100:>11.1f}% "
                     f"{p.pc_miss_rate * 100:>12.1f}% "
                     f"{p.pc_latency_us:>10.2f}us {p.mem_gbps:>9.2f}")
    lines.append("expected: isolating the BE device (either way) keeps the "
                 "PC device's pool LLC-resident")
    return "\n".join(lines)


def main() -> None:
    print(format_table(run()))


if __name__ == "__main__":
    main()
