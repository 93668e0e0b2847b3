"""The paper's two worked examples (Sec. IV-F, Fig. 7) as integration
tests.

Fig. 7b (slicing model): traffic starts low; at t1 it surges, so IAT
moves to I/O Demand and widens DDIO; at t2 a BE tenant enters an
LLC-heavy phase, so IAT shuffles the *other* (lighter) BE tenant next
to DDIO; at t3 traffic fades and IAT reclaims DDIO ways.

Fig. 7a (aggregation model): the flow count in the traffic jumps at t1,
growing the virtual switch's tables — IAT grants the switch more ways;
when the flows end at t2, it reclaims them.

These run on the full Xeon geometry with a short polling interval so
each phase spans several iterations.
"""

from dataclasses import replace

import pytest

from repro.core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from repro.core.fsm import State
from repro.experiments.common import leaky_dma_scenario
from repro.net.traffic import TrafficSpec
from repro.sim.config import XEON_6140
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem

FAST = IATParams(interval_s=0.2)


class TestFig7bSlicing:
    @pytest.fixture(scope="class")
    def run(self):
        platform = Platform(XEON_6140)
        sim = Simulation(platform, seed=77)
        nic = platform.add_nic("nic0", 40.0)
        vf = nic.add_vf(entries=1024, name="pc.vf")
        pc = TestPmd("pc", [vf.rx_ring],
                     core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(Tenant("pc", cores=(0,), priority=Priority.PC,
                              is_io=True, initial_ways=2), pc)
        # 1 MB working sets are L2-resident (as in the paper's BE
        # containers), so a BE tenant's LLC reference count reflects
        # its LLC appetite — the quantity Sec. IV-D sorts by.
        be1 = XMem("be1", 1 << 20, core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(Tenant("be1", cores=(1,), priority=Priority.BE,
                              initial_ways=2), be1)
        be2 = XMem("be2", 1 << 20, core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(Tenant("be2", cores=(2,), priority=Priority.BE,
                              initial_ways=2), be2)
        scale = platform.spec.time_scale
        low = TrafficSpec.line_rate(0.2, 1500, scale=scale)
        binding = sim.attach_traffic(nic, vf, low)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=scale)
        daemon = ControllerDaemon(control, IATPolicy(FAST))
        sim.add_controller(daemon)

        t1, t2, t3 = 2.0, 6.0, 10.0
        surge = TrafficSpec.line_rate(40.0, 1500, scale=scale)
        sim.at(t1, lambda: binding.gen.set_spec(surge))
        # t2: BE2's working set explodes (LLC-heavy phase).
        sim.at(t2, lambda: be2.set_working_set(12 << 20))
        sim.at(t3, lambda: binding.gen.set_spec(low.scaled(0.2)))
        sim.run(14.0)
        return daemon, (t1, t2, t3)

    def ways_at(self, daemon, t):
        entries = [h for h in daemon.history if h.time <= t]
        return entries[-1].ddio_ways if entries else None

    def test_t1_traffic_surge_grows_ddio(self, run):
        daemon, (t1, t2, _) = run
        assert self.ways_at(daemon, t1) == daemon.policy.params.ddio_ways_min
        assert self.ways_at(daemon, t2) > daemon.policy.params.ddio_ways_min
        states = {h.state for h in daemon.history
                  if t1 < h.time <= t2}
        assert State.IO_DEMAND in states

    def test_t2_heavy_be_displaced_from_ddio(self, run):
        daemon, (_, t2, t3) = run
        # After BE2 goes LLC-heavy, the shuffler must put BE1 (the
        # lighter BE tenant) at the top of the order, i.e. next to DDIO.
        orders = [h for h in daemon.history if t2 + 0.6 < h.time <= t3]
        assert orders, "no iterations in phase"
        assert daemon.policy._order[-1] == "be1"

    def test_t3_fading_traffic_reclaims(self, run):
        daemon, (_, _, t3) = run
        final = daemon.history[-1].ddio_ways
        peak = max(h.ddio_ways for h in daemon.history)
        assert final < peak
        states = {h.state for h in daemon.history if h.time > t3}
        assert State.RECLAIM in states or State.LOW_KEEP in states


class TestFig7aAggregation:
    @pytest.fixture(scope="class")
    def run(self):
        scenario = leaky_dma_scenario(packet_size=64, rate_fraction=0.6)
        daemon = scenario.attach_controller("iat", params=FAST)
        sim = scenario.sim
        t1, t2 = 2.0, 8.0

        def set_flows(n, theta):
            for binding in sim.traffic:
                binding.gen.set_spec(replace(binding.gen.spec,
                                             n_flows=n, zipf_theta=theta))

        sim.at(t1, lambda: set_flows(1_000_000, 0.3))
        sim.at(t2, lambda: set_flows(1, 0.0))
        sim.run(13.0)
        return daemon, (t1, t2)

    def ovs_ways_at(self, daemon, t):
        entries = [h for h in daemon.history if h.time <= t]
        return entries[-1].group_ways["ovs"] if entries else None

    def test_t1_flow_surge_grows_the_switch(self, run):
        daemon, (t1, t2) = run
        assert self.ovs_ways_at(daemon, t1) == 2
        assert self.ovs_ways_at(daemon, t2) > 2

    def test_t2_flows_end_reclaims_switch_ways(self, run):
        daemon, (_, t2) = run
        peak = max(h.group_ways["ovs"] for h in daemon.history)
        final = daemon.history[-1].group_ways["ovs"]
        assert final < peak
