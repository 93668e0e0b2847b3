"""Cross-cutting invariants checked over randomized whole-system runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.llc import EMPTY
from repro.core.monitor import (ChangeKind, SystemSample, TenantSample)
from repro.net.traffic import TrafficSpec
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.workloads.testpmd import TestPmd


def run_sim(pps, packet_size, entries, seed):
    platform = Platform(TINY_PLATFORM)
    sim = Simulation(platform, seed=seed)
    nic = platform.add_nic("n0", 40.0)
    vf = nic.add_vf(entries=entries, name="vf0")
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(Tenant("pmd", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=2), pmd)
    sim.attach_traffic(nic, vf, TrafficSpec(pps=pps,
                                            packet_size=packet_size,
                                            n_flows=16, zipf_theta=0.5))
    sim.run(1.0)
    return platform, vf, pmd


class TestConservation:
    @given(st.floats(min_value=100.0, max_value=20_000.0),
           st.sampled_from([64, 256, 1500]),
           st.sampled_from([8, 64, 256]),
           st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_packet_conservation(self, pps, packet_size, entries, seed):
        """Every offered packet is enqueued, dropped, or never arrived;
        every enqueued packet is consumed or still queued."""
        platform, vf, pmd = run_sim(pps, packet_size, entries, seed)
        ring = vf.rx_ring
        assert ring.enqueued == ring.dequeued + ring.occupancy
        assert pmd.packets_processed == ring.dequeued
        assert ring.dropped >= 0

    @given(st.floats(min_value=100.0, max_value=20_000.0),
           st.sampled_from([64, 1500]),
           st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_ddio_events_bounded_by_dma_lines(self, pps, packet_size,
                                              seed):
        """DDIO hit+miss equals exactly the lines DMA-written for the
        enqueued (not dropped) packets."""
        platform, vf, pmd = run_sim(pps, packet_size, 64, seed)
        lines_per_pkt = -(-packet_size // 64)
        exact = platform.uncore.exact()
        assert exact.hits + exact.misses \
            == vf.rx_ring.enqueued * lines_per_pkt

    @given(st.floats(min_value=100.0, max_value=5_000.0),
           st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_memory_bytes_are_line_multiples(self, pps, seed):
        platform, _, _ = run_sim(pps, 512, 64, seed)
        assert platform.mem.read_bytes % 64 == 0
        assert platform.mem.write_bytes % 64 == 0

    @given(st.floats(min_value=100.0, max_value=20_000.0),
           st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_llc_occupancy_bounded(self, pps, seed):
        platform, _, _ = run_sim(pps, 1500, 64, seed)
        assert platform.llc.valid_lines() <= platform.spec.llc.lines

    @pytest.mark.parametrize("seconds", [0.0, 0.5])
    def test_llc_conservation_after_kvs_prefill(self, seconds):
        """The KVS co-run's prefill (bulk all-miss batches of up to an
        LLC's worth of lines) keeps the cache's books, and so do the
        vector quanta after it, whose cut chunks hand their fills,
        evictions and occupancy back: occupancy per owner and valid
        lines match the owner and tag planes, fills minus evictions
        equal the valid lines, and no tenant holds more lines than its
        ways can.  ``seconds=0.0`` runs start-up and prefill only."""
        from repro.experiments.common import kvs_scenario

        scen = kvs_scenario(app="rocksdb", ycsb_letter="A")
        scen.attach_controller("iat", manage_tenant_ways=False)
        scen.sim.run(seconds)
        llc = scen.platform.llc
        occ = llc.occupancy_by_owner()
        valid = llc._tags != EMPTY
        owners, counts = np.unique(llc._owner[valid], return_counts=True)
        assert llc.valid_lines() == int(np.count_nonzero(valid)) > 0
        assert occ == dict(zip(owners.tolist(), counts.tolist()))
        assert llc.stat_fills - llc.stat_evictions == llc.valid_lines()
        sets = llc.geometry.total_sets
        for binding in scen.sim.bindings:
            mask = scen.platform.cat.mask_of_core(binding.tenant.cores[0])
            assert occ.get(binding.owner_id, 0) \
                <= bin(mask).count("1") * sets, binding.tenant.name


def make_sample(rng):
    tenants = {}
    for i in range(3):
        refs = int(rng.integers(0, 100_000))
        tenants[f"t{i}"] = TenantSample(
            name=f"t{i}", ipc=float(rng.random() * 3),
            llc_references=refs,
            llc_misses=int(rng.integers(0, refs + 1)))
    return SystemSample(tenants=tenants,
                        ddio_hits=int(rng.integers(0, 1_000_000)),
                        ddio_misses=int(rng.integers(0, 1_000_000)))


class TestMonitorTotality:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_classify_total_over_random_samples(self, seed):
        """classify never raises and always yields a known kind, for any
        sequence of random samples and overlap sets."""
        from repro.cache.cat import CatController
        from repro.cache.ddio import DdioConfig
        from repro.cache.geometry import TINY_LLC
        from repro.core.monitor import ProfMonitor
        from repro.core.params import IATParams
        from repro.perf.counters import CounterFile
        from repro.perf.msr import SimMsr
        from repro.perf.pqos import PqosLib
        from repro.perf.uncore import ChaCounters
        from repro.tenants.tenant import TenantSet

        rng = np.random.default_rng(seed)
        pqos = PqosLib(CounterFile(num_cores=3), ChaCounters(TINY_LLC),
                       CatController(num_ways=11),
                       SimMsr(DdioConfig(TINY_LLC)))
        tenants = TenantSet([
            Tenant("t0", cores=(0,), priority=Priority.PC, is_io=True),
            Tenant("t1", cores=(1,), priority=Priority.PC),
            Tenant("t2", cores=(2,), priority=Priority.BE),
        ])
        monitor = ProfMonitor(pqos, tenants, IATParams())
        for _ in range(6):
            overlap = {f"t{i}" for i in range(3)
                       if rng.random() < 0.5}
            report = monitor.classify(
                make_sample(rng),
                ddio_at_max=bool(rng.random() < 0.5),
                ddio_at_min=bool(rng.random() < 0.5),
                ddio_overlap=overlap)
            assert isinstance(report.kind, ChangeKind)
            assert set(report.miss_rate_delta) == {"t0", "t1", "t2"}
