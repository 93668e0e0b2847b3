#!/usr/bin/env python3
"""Quickstart: build a two-tenant server, watch IAT manage the LLC.

This is the smallest end-to-end use of the library:

1. assemble a simulated Xeon 6140 platform with one 40GbE NIC,
2. register an I/O tenant (DPDK testpmd) and a non-I/O tenant (X-Mem),
3. offer MTU-sized line-rate traffic (enough to leak out of the default
   two DDIO ways),
4. attach the IAT daemon and run for 10 simulated seconds,
5. print what the daemon saw and did each interval.

Run:  python examples/quickstart.py
"""

from repro.core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from repro.net import TrafficSpec
from repro.sim import Platform, Simulation, XEON_6140
from repro.tenants import Priority, Tenant
from repro.workloads import TestPmd, XMem


def main() -> None:
    # 1. The machine: Table I's Xeon Gold 6140 (11-way 24.75 MB LLC).
    platform = Platform(XEON_6140)
    nic = platform.add_nic("nic0", link_gbps=40.0)
    vf = nic.add_vf(entries=1024, name="nic0.vf0")
    sim = Simulation(platform, seed=2021)

    # 2. Tenants: a performance-critical packet forwarder on two cores,
    #    and a best-effort memory-bound container on one core.
    pmd = TestPmd("pmd", [vf.rx_ring], core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("pmd", cores=(0, 1), priority=Priority.PC,
                          is_io=True, initial_ways=2), pmd)
    xmem = XMem("xmem", working_set_bytes=8 << 20,
                core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("xmem", cores=(2,), priority=Priority.BE,
                          initial_ways=2), xmem)

    # 3. Traffic: 40 Gb line rate of 1.5 KB packets (rates are scaled by
    #    the platform's time_scale; footprints are full-size).
    sim.attach_traffic(nic, vf, TrafficSpec.line_rate(
        40.0, 1500, scale=platform.spec.time_scale))

    # 4. The daemon, speaking pqos + MSRs through the control plane.
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    daemon = ControllerDaemon(control, IATPolicy(IATParams()))
    sim.add_controller(daemon)

    metrics = sim.run(10.0)

    # 5. Report.
    print("interval log (state / DDIO ways / action):")
    for entry in daemon.history:
        print(f"  t={entry.time:5.1f}s  {entry.state.value:12s} "
              f"ddio={entry.ddio_ways}  {entry.action}")
    hits, misses = metrics.total_ddio()
    print(f"\nDDIO transactions: {hits} write updates (hits), "
          f"{misses} write allocates (misses)")
    print(f"packets forwarded: {pmd.packets_processed}, "
          f"dropped: {pmd.drops}")
    print(f"X-Mem: {xmem.stats.ops} ops, "
          f"avg latency {xmem.avg_latency_ns():.1f} ns")
    print(f"final DDIO mask: {platform.ddio.mask:#05x} "
          f"({bin(platform.ddio.mask).count('1')} ways)")


if __name__ == "__main__":
    main()
