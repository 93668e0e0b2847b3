"""Ablation benches for the design choices DESIGN.md calls out.

1. **Way-increment policy** (paper Sec. IV-D: "miss-curve-based
   increment like UCP can also be explored"): one way per iteration vs
   the UCP-style two-way step on steep miss-rate jumps.  The UCP mode
   must converge to the same DDIO width at least as fast.
2. **Shuffling** (Sec. IV-D second half): IAT with and without the
   BE-next-to-DDIO shuffle, in the Fig. 10 scenario.  Without it, the
   PC X-Mem container lands wherever registration order put it and
   loses isolation.
"""

from conftest import run_once, save_table

from repro.cache.ddio import ddio_mask_for_ways
from repro.core import IATParams
from repro.experiments.common import leaky_dma_scenario, shuffle_scenario
from repro.experiments.measure import StatsWindow


def _ddio_convergence(increment_mode: str) -> "tuple[int, float]":
    """(final DDIO ways, seconds until first reaching them).

    Traffic starts at a trickle and jumps to line rate at t=3 s, so the
    DDIO-miss slope at the jump is steep — the condition under which
    the UCP-style mode takes two-way steps.
    """
    scenario = leaky_dma_scenario(packet_size=1500, rate_fraction=0.05)
    params = IATParams(increment_mode=increment_mode)
    daemon = scenario.attach_controller("iat", params=params)
    from dataclasses import replace

    def jump() -> None:
        for binding in scenario.sim.traffic:
            binding.gen.set_spec(replace(binding.gen.spec,
                                         pps=binding.gen.spec.pps * 20))

    scenario.sim.at(3.0, jump)
    scenario.sim.run(12.0)
    final = daemon.policy.allocator.ddio_ways
    reached_at = next((h.time for h in daemon.history
                       if h.ddio_ways >= final), 12.0)
    return final, reached_at


def test_ablation_increment_mode(benchmark):
    def run():
        return _ddio_convergence("one"), _ddio_convergence("ucp")

    (one_ways, one_at), (ucp_ways, ucp_at) = run_once(benchmark, run)
    table = ("Ablation — way-increment policy (Fig. 8 scenario, 1.5KB,\n"
             "traffic jumps to line rate at t=3s)\n"
             f"{'mode':>6} {'final DDIO ways':>16} {'reached at (s)':>15}\n"
             f"{'one':>6} {one_ways:>16} {one_at:>15.1f}\n"
             f"{'ucp':>6} {ucp_ways:>16} {ucp_at:>15.1f}")
    save_table("ablation_increment", table)
    assert ucp_ways >= one_ways - 1
    assert ucp_at <= one_at  # steeper steps converge no slower


def _fig10_iat(shuffle: bool) -> float:
    scenario = shuffle_scenario(packet_size=1500)
    scenario.attach_controller("iat", manage_ddio=False, shuffle=shuffle)
    sim = scenario.sim
    c4 = scenario.workloads["c4"]
    window = StatsWindow(c4)
    sim.at(5.0, lambda: c4.set_working_set(10 << 20))
    sim.at(15.0, lambda: scenario.platform.ddio.set_mask(
        ddio_mask_for_ways(scenario.platform.spec.llc, 4)))
    sim.at(20.0, lambda: window.open(sim.now))
    sim.run(25.0)
    return window.close(sim.now).ops_per_sec(scenario.time_scale)


def test_ablation_shuffling(benchmark):
    def run():
        return _fig10_iat(True), _fig10_iat(False)

    with_shuffle, without = run_once(benchmark, run)
    table = ("Ablation — LLC-way shuffling (Fig. 10 scenario, 1.5KB,\n"
             "container-4 throughput after DDIO widens to 4 ways)\n"
             f"  shuffle on : {with_shuffle / 1e6:8.2f} M ops/s\n"
             f"  shuffle off: {without / 1e6:8.2f} M ops/s")
    save_table("ablation_shuffle", table)
    assert with_shuffle > without
