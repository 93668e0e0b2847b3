"""Unit tests for the platform assembly and simulation engine."""

import pytest

from repro.experiments.common import kvs_scenario
from repro.net.traffic import Phase, PhasedTraffic, TrafficSpec
from repro.sim.config import TINY_PLATFORM, XEON_6140, PlatformSpec
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem


class TestPlatformSpec:
    def test_xeon_matches_table_i(self):
        assert XEON_6140.cores == 18
        assert XEON_6140.freq_hz == 2.3e9
        assert XEON_6140.llc.ways == 11

    def test_cycles_per_quantum_scaled(self):
        spec = PlatformSpec(name="s", freq_hz=1e9, time_scale=1e-3,
                            quantum_s=0.1)
        assert spec.cycles_per_quantum == pytest.approx(1e5)

    @pytest.mark.parametrize("kwargs", [
        {"cores": 0}, {"time_scale": 0}, {"time_scale": 2},
        {"quantum_s": 0}, {"subquanta": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PlatformSpec(name="bad", **kwargs)


class TestPlatformAssembly:
    def test_regions_are_disjoint(self, platform):
        a = platform.alloc_region(1 << 20)
        b = platform.alloc_region(1 << 20)
        assert b >= a + (1 << 20)

    def test_region_needs_positive_size(self, platform):
        with pytest.raises(ValueError):
            platform.alloc_region(0)

    def test_nic_attachment(self, platform):
        nic = platform.add_nic("n0", 40.0)
        assert platform.nics == [nic]
        vf = nic.add_vf(entries=64)
        assert vf.rx_ring.base_addr >= nic.region_base

    def test_pqos_wired_to_ddio(self, platform):
        platform.pqos.ddio_set_mask(0b111 << 8)
        assert platform.ddio.mask == 0b111 << 8


def build_sim():
    platform = Platform(TINY_PLATFORM)
    sim = Simulation(platform, seed=1)
    nic = platform.add_nic("n0", 40.0)
    vf = nic.add_vf(entries=64, name="vf0")
    tenant = Tenant("pmd", cores=(0,), priority=Priority.PC, is_io=True,
                    initial_ways=2)
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(tenant, pmd)
    return platform, sim, nic, vf, pmd


class TestSimulation:
    def test_quantum_count(self):
        _, sim, nic, vf, _ = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=100.0))
        metrics = sim.run(1.0)
        expected = round(1.0 / TINY_PLATFORM.quantum_s)
        assert len(metrics) == expected

    def test_traffic_reaches_workload(self):
        platform, sim, nic, vf, pmd = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=500.0, packet_size=64))
        sim.run(1.0)
        assert pmd.packets_processed == pytest.approx(500, rel=0.1)

    def test_tenant_cos_assignment(self):
        platform, sim, _, _, _ = build_sim()
        tenant2 = Tenant("x", cores=(1,), initial_ways=1)
        sim.add_tenant(tenant2, XMem("x", 1 << 20))
        assert platform.cat.cos_of(0) == 1
        assert platform.cat.cos_of(1) == 2

    def test_metrics_record_tenants_and_ddio(self):
        platform, sim, nic, vf, _ = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=1000.0))
        metrics = sim.run(0.5)
        record = metrics.records[-1]
        assert "pmd" in record.tenants
        assert record.ddio_hits + record.ddio_misses > 0
        assert record.vf_delivered["vf0"] > 0

    def test_events_fire_in_order(self):
        _, sim, nic, vf, _ = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=10.0))
        fired = []
        sim.at(0.2, lambda: fired.append("a"))
        sim.at(0.1, lambda: fired.append("b"))
        sim.run(0.5)
        assert fired == ["b", "a"]

    def test_phased_traffic_switches(self):
        platform, sim, nic, vf, pmd = build_sim()
        phased = PhasedTraffic([
            Phase(0.0, TrafficSpec(pps=0.0)),
            Phase(0.5, TrafficSpec(pps=2000.0)),
        ])
        sim.attach_traffic(nic, vf, phased)
        sim.run(0.5)
        early = pmd.packets_processed
        sim.run(0.5)
        assert early == 0
        assert pmd.packets_processed > 100

    def test_controller_called_on_interval(self):
        _, sim, nic, vf, _ = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=10.0))
        calls = []

        class Probe:
            interval_s = 0.2

            def on_start(self, now):
                calls.append(("start", now))

            def on_interval(self, now):
                calls.append(("tick", now))

        sim.add_controller(Probe())
        sim.run(1.0)
        assert calls[0][0] == "start"
        ticks = [c for c in calls if c[0] == "tick"]
        assert len(ticks) == 5

    def test_runs_resume(self):
        _, sim, nic, vf, pmd = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=100.0))
        sim.run(0.5)
        mid = sim.now
        sim.run(0.5)
        assert sim.now == pytest.approx(1.0)
        assert mid == pytest.approx(0.5)

    def test_ipc_derived_from_counters(self):
        platform, sim, nic, vf, _ = build_sim()
        sim.attach_traffic(nic, vf, TrafficSpec(pps=100.0))
        metrics = sim.run(0.5)
        assert metrics.records[-1].tenants["pmd"].ipc > 0


class TestStartOnce:
    """Start-up (controllers' ``on_start``, every prefill, the counter
    baselines) happens on the first :meth:`Simulation.run` only, even
    when that run covers no time."""

    def build(self):
        scen = kvs_scenario(app="rocksdb", ycsb_letter="A")
        scen.attach_controller("iat", manage_tenant_ways=False)
        calls = []
        for binding in scen.sim.bindings:
            workload = binding.workload
            prefill = workload.prefill

            def spy(name=workload.name, prefill=prefill):
                calls.append(("prefill", name))
                prefill()

            workload.prefill = spy
        for controller in scen.sim.controllers:
            on_start = controller.on_start

            def spy_start(now, on_start=on_start):
                calls.append(("on_start", now))
                on_start(now)

            controller.on_start = spy_start
        return scen, calls

    @staticmethod
    def state(scen):
        llc = scen.platform.llc
        vfs = [(name, vf.delivered, vf.drops, vf.ddio_hits, vf.ddio_misses)
               for name, vf in scen.vfs.items()]
        ops = [(name, w.stats.ops) for name, w in scen.workloads.items()]
        return (scen.sim.now, scen.sim.metrics.records, vfs, ops,
                llc.stats(), llc._clock, llc.occupancy_by_owner())

    def test_zero_run_then_quantum_equals_fresh_quantum(self):
        quantum = XEON_6140.quantum_s
        fresh, fresh_calls = self.build()
        fresh.sim.run(quantum)
        split, split_calls = self.build()
        split.sim.run(0.0)
        assert split.sim.metrics.records == []
        split.sim.run(quantum)
        assert self.state(split) == self.state(fresh)
        assert split_calls == fresh_calls
        names = [name for kind, name in fresh_calls if kind == "prefill"]
        assert sorted(names) == sorted(fresh.workloads)
        assert [c for c in fresh_calls if c[0] == "on_start"] \
            == [("on_start", 0.0)]
