"""Integration tests: the paper's phenomena must *emerge* from the
simulator, and the daemon must react end-to-end.

These run on the TINY platform (same 11-way geometry, small LLC) with
footprints chosen relative to its way capacity, so each test finishes
in well under a second of simulated time.
"""

import pytest

from repro.cache.ddio import ddio_mask_for_ways
from repro.core import (ControlPlane, ControllerDaemon, IATParams,
                        IATPolicy, StaticPolicy)
from repro.net.traffic import TrafficSpec
from repro.sim.config import TINY_PLATFORM, PlatformSpec
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem

#: TINY way capacity: 64 sets x 4 slices x 64 B = 16 KiB per way.
WAY_BYTES = TINY_PLATFORM.llc.way_capacity_bytes


def build_io_scenario(*, ring_entries=64, packet_size=1500, pps=2000.0,
                      pmd_ways=2, ddio_ways=2, xmem=None, seed=5):
    platform = Platform(TINY_PLATFORM)
    platform.ddio.set_ways(ddio_ways)
    sim = Simulation(platform, seed=seed)
    nic = platform.add_nic("n0", 40.0)
    vf = nic.add_vf(entries=ring_entries, name="vf0")
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(Tenant("pmd", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=pmd_ways), pmd)
    workloads = {"pmd": pmd}
    if xmem is not None:
        work = XMem("xmem", xmem)
        # Scale the modelled private L2 down with the TINY LLC (the
        # real ratio is ~1:24), or every access would be an L2 hit.
        work.l2_bytes = 8 << 10
        sim.add_tenant(Tenant("xmem", cores=(1,), priority=Priority.PC,
                              initial_ways=2), work)
        workloads["xmem"] = work
    sim.attach_traffic(nic, vf, TrafficSpec(pps=pps,
                                            packet_size=packet_size))
    return platform, sim, workloads, vf


class TestLeakyDmaEmerges:
    """Sec. III-A: when the DMA footprint exceeds the DDIO ways, write
    allocates (DDIO misses) and memory traffic appear; when it fits,
    write updates (hits) dominate."""

    def _run(self, ring_entries, masks):
        platform, sim, _, _ = build_io_scenario(ring_entries=ring_entries)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=platform.spec.time_scale)
        sim.add_controller(ControllerDaemon(
            control, StaticPolicy(explicit_masks=masks)))
        sim.run(2.0)
        exact = platform.uncore.exact()
        return exact.hits, exact.misses, platform.mem.write_bytes

    def test_small_footprint_hits(self):
        # 64-byte packets touch one line per slot: 8 entries x pool 2 =
        # 16 lines in flight, far below the DDIO ways' capacity.
        platform, sim, _, _ = build_io_scenario(ring_entries=8,
                                                packet_size=64)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=platform.spec.time_scale)
        sim.add_controller(ControllerDaemon(
            control, StaticPolicy(explicit_masks={"pmd": 0b11})))
        sim.run(2.0)
        exact = platform.uncore.exact()
        assert exact.hits > 5 * exact.misses

    def test_large_footprint_misses(self):
        # 64 slots x 2 KB x 2 = 256 KB against 32 KB of DDIO ways.
        hits, misses, writebacks = self._run(64, {"pmd": 0b11})
        assert misses > hits
        assert writebacks > 0

    def test_more_ddio_ways_cut_misses(self):
        platform_small = self._run(64, {"pmd": 0b11})
        platform, sim, _, _ = build_io_scenario(ring_entries=64,
                                                ddio_ways=6)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=platform.spec.time_scale)
        sim.add_controller(ControllerDaemon(
            control, StaticPolicy(explicit_masks={"pmd": 0b11})))
        sim.run(2.0)
        wide = platform.uncore.exact()
        assert wide.misses < platform_small[1]


class TestLatentContenderEmerges:
    """Sec. III-B: a tenant whose ways overlap DDIO's suffers even
    though no *core* shares its ways."""

    def _xmem_perf(self, overlap):
        ways = TINY_PLATFORM.llc.ways
        xmem_mask = (0b11 << (ways - 2)) if overlap else (0b11 << 4)
        platform, sim, workloads, _ = build_io_scenario(
            ring_entries=64, xmem=2 * WAY_BYTES)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=platform.spec.time_scale)
        sim.add_controller(ControllerDaemon(control, StaticPolicy(
            explicit_masks={"pmd": 0b11, "xmem": xmem_mask})))
        sim.run(3.0)
        return workloads["xmem"].stats.ops

    def test_ddio_overlap_slows_xmem(self):
        dedicated = self._xmem_perf(overlap=False)
        overlapped = self._xmem_perf(overlap=True)
        assert overlapped < dedicated * 0.93


class TestDaemonEndToEnd:
    def _daemon_sim(self, **kwargs):
        platform, sim, workloads, vf = build_io_scenario(**kwargs)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=platform.spec.time_scale)
        params = IATParams(interval_s=0.2,
                           ddio_ways_max=6)
        daemon = ControllerDaemon(control, IATPolicy(params))
        sim.add_controller(daemon)
        return platform, sim, daemon

    def test_daemon_grows_ddio_under_leak(self):
        platform, sim, daemon = self._daemon_sim(ring_entries=64)
        sim.run(4.0)
        ways_seen = {h.ddio_ways for h in daemon.history}
        assert max(ways_seen) > daemon.policy.params.ddio_ways_min
        states = {h.state for h in daemon.history}
        from repro.core.fsm import State
        assert State.IO_DEMAND in states

    def test_daemon_keeps_minimum_when_quiet(self):
        platform, sim, daemon = self._daemon_sim(ring_entries=8,
                                                 packet_size=64, pps=200.0)
        sim.run(3.0)
        assert daemon.policy.allocator.ddio_ways \
            == daemon.policy.params.ddio_ways_min

    def test_daemon_masks_stay_legal(self):
        platform, sim, daemon = self._daemon_sim(ring_entries=64)
        from repro.cache.cat import is_contiguous
        for _ in range(10):
            sim.run(0.4)
            for tenant in daemon.control.tenants:
                mask = platform.cat.get_mask(tenant.cos_id)
                assert is_contiguous(mask)
                assert mask >> platform.spec.llc.ways == 0


class TestOneSliceSampling:
    def test_sampling_error_small_under_real_traffic(self):
        platform, sim, _, _ = build_io_scenario(ring_entries=64)
        sim.run(2.0)
        assert platform.uncore.sampling_error() < 0.25


class TestPrefill:
    def test_prefill_warms_working_set(self):
        platform, sim, workloads, _ = build_io_scenario(
            ring_entries=8, xmem=WAY_BYTES)
        control = ControlPlane(platform.pqos, sim.tenant_set(),
                               time_scale=platform.spec.time_scale)
        sim.add_controller(ControllerDaemon(control, StaticPolicy(
            explicit_masks={"pmd": 0b11, "xmem": 0b1100})))
        sim.run(0.2)
        # Raw counters include the prefill burst (all cold misses); the
        # recorded metrics are baselined after it, so the first quantum
        # already sees a warm cache.
        record = sim.metrics.records[0]
        snap = record.tenants["xmem"]
        assert snap.llc_references > 0
        assert snap.llc_misses / snap.llc_references < 0.5
