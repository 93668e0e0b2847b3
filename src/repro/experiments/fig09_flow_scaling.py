"""Fig. 9: Core Demand detection — OVS under growing flow counts.

Paper Sec. VI-B, second microbenchmark: 64 B traffic fixed at line rate
while the number of flows grows.  A bigger flow population blows up
OVS's EMC/megaflow tables; a static allocation leaves OVS thrashing its
two LLC ways (LLC misses up, IPC down past ~1k flows), while IAT
detects the core-side demand and grants OVS more ways (paper: up to
11.4% higher IPC).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec import ParallelRunner, SweepSpec, run_sweep
from ..sim.config import PlatformSpec
from .common import leaky_dma_scenario
from .measure import mean_tenant_ipc, steady_window, sum_tenant_misses

DEFAULT_FLOW_COUNTS = (1, 100, 1_000, 10_000, 100_000, 1_000_000)
MODES = ("baseline", "iat")


@dataclass
class Fig9Point:
    n_flows: int
    mode: str
    ovs_ipc: float
    ovs_llc_misses_per_s: float
    ovs_ways_final: int


@dataclass
class Fig9Result:
    points: "list[Fig9Point]"

    def point(self, n_flows: int, mode: str) -> Fig9Point:
        for p in self.points:
            if p.n_flows == n_flows and p.mode == mode:
                return p
        raise KeyError((n_flows, mode))

    def ipc_gain(self, n_flows: int) -> float:
        base = self.point(n_flows, "baseline").ovs_ipc
        iat = self.point(n_flows, "iat").ovs_ipc
        return iat / base - 1.0 if base else 0.0


def run_one(n_flows: int, mode: str, *, duration_s: float = 12.0,
            warmup_s: float = 6.0, flow_jump_s: float = 2.0,
            rate_fraction: float = 0.6,
            spec: "PlatformSpec | None" = None) -> Fig9Point:
    """One cell of Fig. 9.

    As in the paper, the traffic *starts* from a single flow and the
    population grows mid-run (at ``flow_jump_s``) — IAT detects the
    resulting DDIO-hit drop / OVS miss-rate jump and walks into Core
    Demand; a static flow count from t=0 would present no change to
    detect.  Measurement covers the post-jump steady state.
    """
    scenario = leaky_dma_scenario(packet_size=64, n_flows=1,
                                  rate_fraction=rate_fraction, spec=spec)
    scenario.attach_controller(mode)
    if n_flows > 1:
        from dataclasses import replace

        def grow_flows() -> None:
            for binding in scenario.sim.traffic:
                binding.gen.set_spec(replace(binding.gen.spec,
                                             n_flows=n_flows,
                                             zipf_theta=0.3))

        scenario.sim.at(flow_jump_s, grow_flows)
    scenario.sim.run(duration_s)
    records = steady_window(scenario.sim.metrics, warmup_s)
    seconds = max(1, len(records)) * scenario.platform.spec.quantum_s \
        * scenario.time_scale
    ways = scenario.controller.history[-1].group_ways.get("ovs", 2)
    return Fig9Point(
        n_flows=n_flows, mode=mode,
        ovs_ipc=mean_tenant_ipc(records, "ovs"),
        ovs_llc_misses_per_s=sum_tenant_misses(records, "ovs") / seconds,
        ovs_ways_final=ways)


def sweep(*, flow_counts=DEFAULT_FLOW_COUNTS, duration_s: float = 10.0,
          warmup_s: float = 4.0,
          spec: "PlatformSpec | None" = None) -> SweepSpec:
    return SweepSpec.from_product(
        "fig9", run_one,
        axes={"n_flows": flow_counts, "mode": MODES},
        common=dict(duration_s=duration_s, warmup_s=warmup_s, spec=spec))


def run(*, flow_counts=DEFAULT_FLOW_COUNTS, duration_s: float = 10.0,
        warmup_s: float = 4.0, spec: "PlatformSpec | None" = None,
        runner: "ParallelRunner | None" = None) -> Fig9Result:
    points = run_sweep(sweep(flow_counts=flow_counts,
                             duration_s=duration_s, warmup_s=warmup_s,
                             spec=spec), runner)
    return Fig9Result(points)


def format_table(result: Fig9Result) -> str:
    lines = ["Fig. 9 — OVS IPC / LLC miss vs flow count (64B line rate)",
             f"{'flows':>9} {'mode':>9} {'OVS IPC':>8} {'LLCmiss/s':>12} "
             f"{'OVS ways':>9}"]
    for n_flows in sorted({p.n_flows for p in result.points}):
        for mode in ("baseline", "iat"):
            p = result.point(n_flows, mode)
            lines.append(f"{n_flows:>9} {mode:>9} {p.ovs_ipc:>8.3f} "
                         f"{p.ovs_llc_misses_per_s / 1e6:>10.2f}M "
                         f"{p.ovs_ways_final:>9}")
        lines.append(f"       -> IPC gain "
                     f"{result.ipc_gain(n_flows) * 100:+5.1f}%")
    lines.append("paper: IAT up to +11.4% OVS IPC past 1k flows")
    return "\n".join(lines)


def main() -> None:
    print(format_table(run()))


if __name__ == "__main__":
    main()
