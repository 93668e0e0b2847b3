#!/usr/bin/env python3
"""The Leaky DMA problem in the aggregation model (paper Secs. III-A, VI-B).

Two 40GbE NICs feed an OVS-style virtual switch that forwards to two
testpmd containers over virtio rings — the exact Fig. 8 topology.  The
script runs the same traffic twice, with the static baseline and with
IAT, and prints the head-to-head: DDIO hit/miss rates, memory bandwidth,
and the switch's IPC/cycles-per-packet.

Watch the mechanism: at MTU packet size the in-flight buffer footprint
exceeds the default two DDIO ways, so the NIC's write allocates evict
packets to DRAM before the switch reads them (that's the "leak").  IAT
sees the DDIO miss counter climb, walks Low Keep -> I/O Demand, and
widens the DDIO mask one way per second until the misses subside.

Run:  python examples/leaky_dma_aggregation.py [packet_size]
"""

import sys

from repro.experiments.common import leaky_dma_scenario
from repro.experiments.measure import (ddio_rates, mean_mem_bandwidth,
                                       mean_tenant_ipc, steady_window)


def run_mode(mode: str, packet_size: int) -> dict:
    scenario = leaky_dma_scenario(packet_size=packet_size)
    controller = scenario.attach_controller(mode)
    scenario.sim.run(10.0)
    records = steady_window(scenario.sim.metrics, warmup_s=4.0)
    quantum = scenario.platform.spec.quantum_s
    scale = scenario.time_scale
    hits, misses = ddio_rates(records, quantum, scale)
    ovs = scenario.workloads["ovs"]
    result = {
        "ddio_hits_per_s": hits,
        "ddio_misses_per_s": misses,
        "mem_gbps": mean_mem_bandwidth(records, quantum, scale) / 1e9,
        "ovs_ipc": mean_tenant_ipc(records, "ovs"),
        "ovs_cpp": ovs.cycles_per_packet(),
        "ddio_ways": bin(scenario.platform.ddio.mask).count("1"),
        "history": controller.history,
    }
    return result


def main() -> None:
    packet_size = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    print(f"packet size: {packet_size} B, two NICs at line rate\n")
    baseline = run_mode("baseline", packet_size)
    iat = run_mode("iat", packet_size)

    print(f"{'metric':>22} {'baseline':>12} {'IAT':>12}")
    for key, label in (("ddio_hits_per_s", "DDIO hits/s"),
                       ("ddio_misses_per_s", "DDIO misses/s"),
                       ("mem_gbps", "memory GB/s"),
                       ("ovs_ipc", "OVS IPC"),
                       ("ovs_cpp", "OVS cycles/pkt"),
                       ("ddio_ways", "final DDIO ways")):
        b, i = baseline[key], iat[key]
        if key.endswith("per_s"):
            print(f"{label:>22} {b / 1e6:>11.2f}M {i / 1e6:>11.2f}M")
        else:
            print(f"{label:>22} {b:>12.2f} {i:>12.2f}")

    print("\nIAT state trajectory:")
    for entry in iat["history"]:
        print(f"  t={entry.time:5.1f}s {entry.state.value:12s} "
              f"ddio={entry.ddio_ways} {entry.action}")


if __name__ == "__main__":
    main()
