"""Structural tests for the experiment scenario builders.

These assert the *topology* each builder produces matches the paper's
setup descriptions (core counts, way grants, priorities, groups,
traffic wiring) without running the simulations.
"""

import pytest

from repro.cache.geometry import TINY_LLC
from repro.experiments.common import (kvs_scenario, l3fwd_scenario,
                                      latent_contender_scenario,
                                      leaky_dma_scenario, nfv_scenario,
                                      shuffle_scenario)
from repro.sim.config import PlatformSpec
from repro.tenants.tenant import Priority

SMALL = PlatformSpec(name="small", cores=12, llc=TINY_LLC)


class TestL3fwdScenario:
    def test_single_core_io_tenant(self):
        scenario = l3fwd_scenario(spec=SMALL)
        tenants = scenario.sim.tenant_set()
        assert len(tenants) == 1
        tenant = tenants.by_name("l3fwd")
        assert tenant.cores == (0,) and tenant.is_io

    def test_ring_entries_respected(self):
        scenario = l3fwd_scenario(ring_entries=256, spec=SMALL)
        assert scenario.vfs["vf0"].rx_ring.entries == 256


class TestLeakyDmaScenario:
    def test_fig8_topology(self):
        """Sec. VI-B: OVS on 2 cores / 2 ways; two testpmd containers on
        2 cores / 1 way each; two NICs."""
        scenario = leaky_dma_scenario(packet_size=1500, spec=SMALL)
        tenants = scenario.sim.tenant_set()
        ovs = tenants.by_name("ovs")
        assert ovs.is_stack and len(ovs.cores) == 2 and ovs.initial_ways == 2
        for name in ("pmd0", "pmd1"):
            pmd = tenants.by_name(name)
            assert pmd.is_pc and len(pmd.cores) == 2
            assert pmd.initial_ways == 1
        assert len(scenario.nics) == 2
        assert len(scenario.sim.traffic) == 2

    def test_ovs_routes_cover_both_nics(self):
        scenario = leaky_dma_scenario(packet_size=64, spec=SMALL)
        ovs = scenario.workloads["ovs"]
        assert set(ovs.routes) == {0, 1}


class TestShuffleScenario:
    def test_fig10_topology(self):
        """Sec. VI-B: c0/c1 PC testpmd sharing 3 ways; c2/c3 BE and c4
        PC X-Mem with 2 dedicated ways each."""
        scenario = shuffle_scenario(packet_size=1024, spec=SMALL)
        tenants = scenario.sim.tenant_set()
        assert tenants.by_name("c0").group == "pmd"
        assert tenants.by_name("c1").group == "pmd"
        assert tenants.group_priority("pmd") is Priority.PC
        assert tenants.by_name("c2").priority is Priority.BE
        assert tenants.by_name("c3").priority is Priority.BE
        assert tenants.by_name("c4").priority is Priority.PC
        for name in ("c2", "c3", "c4"):
            assert tenants.by_name(name).initial_ways == 2
        # Initial working sets: all X-Mem containers start at 2 MB.
        assert scenario.workloads["c4"].working_set_bytes == 2 << 20


class TestLatentContenderScenario:
    def test_masks_differ_by_overlap_flag(self):
        ded = latent_contender_scenario(xmem_ws_bytes=4 << 20,
                                        overlap_ddio=False, spec=SMALL)
        ovl = latent_contender_scenario(xmem_ws_bytes=4 << 20,
                                        overlap_ddio=True, spec=SMALL)
        ded.sim.run(0.0)  # no-op; masks applied by controller at start
        # Controllers are attached inside the builder (StaticPolicy).
        assert ded.sim.controllers and ovl.sim.controllers
        ded_mask = ded.sim.controllers[0].policy.explicit_masks["xmem"]
        ovl_mask = ovl.sim.controllers[0].policy.explicit_masks["xmem"]
        top_two = 0b11 << (TINY_LLC.ways - 2)
        assert ovl_mask == top_two
        assert ded_mask & top_two == 0


class TestKvsScenario:
    def test_fig_kvs_topology(self):
        """Sec. VI-C: OVS (2 cores) + 2 Redis (2 cores each) share 3
        ways; app 1 core / 2 ways; two BE X-Mem; nine cores total."""
        scenario = kvs_scenario(app="mcf", spec=SMALL)
        tenants = scenario.sim.tenant_set()
        assert len(tenants.all_cores) == 9
        for name in ("ovs", "redis0", "redis1"):
            assert tenants.by_name(name).group == "net"
            assert tenants.by_name(name).initial_ways == 3
        assert tenants.by_name("app").is_pc
        assert tenants.by_name("be0").is_be
        assert tenants.group_priority("net") is Priority.STACK

    def test_rocksdb_app_needs_mix(self):
        scenario = kvs_scenario(app="rocksdb", ycsb_letter="B", spec=SMALL)
        assert scenario.workloads["app"].mix.letter == "B"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            kvs_scenario(app="fortnite", spec=SMALL)

    def test_be_working_sets(self):
        """One 1 MB and one 10 MB X-Mem BE container (Sec. VI-C)."""
        scenario = kvs_scenario(app="gcc", spec=SMALL)
        assert scenario.workloads["be0"].working_set_bytes == 1 << 20
        assert scenario.workloads["be1"].working_set_bytes == 10 << 20


class TestNfvScenario:
    def test_fig_nfv_topology(self):
        """Sec. VI-C: four chains on one core each sharing 3 ways, one
        VF per VLAN, 20 Gb/s per VLAN."""
        scenario = nfv_scenario(app="gcc", spec=SMALL)
        tenants = scenario.sim.tenant_set()
        for i in range(4):
            chain = tenants.by_name(f"nf{i}")
            assert chain.group == "net" and chain.is_io
            assert len(chain.cores) == 1
        assert len(scenario.vfs) == 4
        assert len(scenario.sim.traffic) == 4
        # All traffic at 1.5 KB packets.
        for binding in scenario.sim.traffic:
            assert binding.gen.spec.packet_size == 1500

    def test_attach_unknown_controller(self):
        scenario = nfv_scenario(app="gcc", spec=SMALL)
        with pytest.raises(ValueError):
            scenario.attach_controller("quantum-annealer")
