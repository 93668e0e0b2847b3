"""Unit tests for packet-consuming workloads and the virtual switch."""

import numpy as np
import pytest

from repro.pci.ring import DescRing
from repro.sim.config import TINY_PLATFORM
from repro.sim.platform import Platform
from repro.vswitch.flowtable import FlowTables
from repro.vswitch.ovs import OvsDataplane
from repro.workloads.l3fwd import L3Fwd
from repro.workloads.netbase import EMPTY_POLL_CYCLES, RingConsumer
from repro.workloads.nfv import NfvChain
from repro.workloads.redis import RedisServer
from repro.workloads.testpmd import TestPmd
from repro.workloads.ycsb import WORKLOAD_C


def make_ring(platform, entries=64):
    return DescRing(entries, base_addr=platform.alloc_region(1 << 20))


def bind(platform, workload, cores=(0,)):
    ports = [platform.core_port(c, 1) for c in cores]
    workload.bind(ports, platform.alloc_region(1 << 30),
                  np.random.default_rng(3))
    workload.begin_quantum(0.0)
    return workload


class TestTestPmd:
    def test_consumes_posted_packets(self, platform):
        ring = make_ring(platform)
        pmd = bind(platform, TestPmd("pmd", [ring]))
        for _ in range(10):
            ring.post(256)
        pmd.run(100_000, 0.0)
        assert pmd.packets_processed == 10
        assert ring.occupancy == 0
        assert pmd.tx_bytes == 2560

    def test_idles_on_empty_ring(self, platform):
        ring = make_ring(platform)
        pmd = bind(platform, TestPmd("pmd", [ring]))
        pmd.run(10_000, 0.0)
        assert pmd.packets_processed == 0
        # Budget still consumed spinning.
        assert pmd.ports[0].block.cycles >= 9_000

    def test_round_robin_across_rings(self, platform):
        rings = [make_ring(platform), make_ring(platform)]
        pmd = bind(platform, TestPmd("pmd", rings))
        for ring in rings:
            for _ in range(5):
                ring.post(64)
        pmd.run(100_000, 0.0)
        assert pmd.packets_processed == 10

    def test_latency_includes_queueing(self, platform):
        ring = make_ring(platform)
        pmd = bind(platform, TestPmd("pmd", [ring]))
        ring.post(64, now=0.0)
        pmd.run(50_000, now=0.001)  # packet waited 1 ms
        assert pmd.stats.avg_latency_cycles \
            > 0.0005 * pmd.core_freq_hz

    def test_needs_a_ring(self):
        with pytest.raises(ValueError):
            TestPmd("pmd", [])


class TestConsumerStalls:
    def test_stall_skips_budget(self, platform):
        ring = make_ring(platform)
        pmd = TestPmd("pmd", [ring], stall_period=0.5,
                      stall_durations=(0.2,))
        bind(platform, pmd)
        ring.post(64)
        pmd.begin_quantum(0.5)   # stall scheduled at t=0.5 for 0.2 s
        pmd.run(50_000, 0.55)    # inside the stall window
        assert pmd.packets_processed == 0
        pmd.run(50_000, 0.75)    # stall over
        assert pmd.packets_processed == 1

    def test_no_stall_by_default(self, platform):
        ring = make_ring(platform)
        pmd = bind(platform, TestPmd("pmd", [ring]))
        ring.post(64)
        pmd.begin_quantum(10.0)
        pmd.run(50_000, 10.0)
        assert pmd.packets_processed == 1


class TestL3Fwd:
    def test_flow_table_lookup_issues_access(self, platform):
        ring = make_ring(platform)
        fwd = bind(platform, L3Fwd("fwd", [ring], n_flows=1000))
        ring.post(64, flow_id=7)
        fwd.run(50_000, 0.0)
        # Buffer line + table line = two LLC references at least.
        assert fwd.ports[0].block.llc_references >= 2

    def test_large_table_misses_more(self):
        results = {}
        for n_flows in (100, 1_000_000):
            platform = Platform(TINY_PLATFORM)
            ring = make_ring(platform)
            fwd = bind(platform, L3Fwd("fwd", [ring], n_flows=n_flows))
            rng = np.random.default_rng(0)
            for batch in range(20):
                for _ in range(50):
                    ring.post(64, flow_id=int(rng.integers(n_flows)))
                fwd.run(200_000, 0.0)
            block = fwd.ports[0].block
            results[n_flows] = block.llc_misses / block.llc_references
        assert results[1_000_000] > results[100]

    def test_rejects_zero_flows(self, platform):
        with pytest.raises(ValueError):
            L3Fwd("fwd", [make_ring(platform)], n_flows=0)


class TestNfvChain:
    def test_processes_and_updates_flow_state(self, platform):
        ring = make_ring(platform)
        chain = bind(platform, NfvChain("nf", [ring], n_flows=128))
        for i in range(20):
            ring.post(1500, flow_id=i)
        chain.run(300_000, 0.0)
        assert chain.packets_processed == 20
        block = chain.ports[0].block
        assert block.llc_references > 20 * 24  # buffers + tables

    def test_rejects_bad_config(self, platform):
        with pytest.raises(ValueError):
            NfvChain("nf", [make_ring(platform)], n_flows=0)


class TestRedis:
    def test_serves_requests(self, platform):
        ring = make_ring(platform)
        redis = bind(platform, RedisServer("r", [ring], WORKLOAD_C,
                                           n_records=1000))
        for i in range(10):
            ring.post(128, flow_id=i)
        redis.run(300_000, 0.0)
        assert redis.stats.ops == 10
        assert redis.tx_bytes == 10 * redis.value_bytes

    def test_latency_reporting(self, platform):
        ring = make_ring(platform)
        redis = bind(platform, RedisServer("r", [ring], WORKLOAD_C,
                                           n_records=1000))
        for i in range(30):
            ring.post(128, flow_id=i)
        redis.run(1_000_000, 0.0)
        assert redis.avg_latency_us() > 0
        assert redis.p99_latency_us() >= 0


class TestFlowTables:
    def test_emc_hit_after_install(self, platform):
        port = platform.core_port(0, 1)
        port.begin_quantum()
        tables = FlowTables(platform.alloc_region(1 << 24))
        first = tables.lookup(port, 42)
        second = tables.lookup(port, 42)
        assert not first.emc_hit and second.emc_hit
        assert first.cycles > second.cycles

    def test_emc_collision_evicts(self, platform):
        port = platform.core_port(0, 1)
        port.begin_quantum()
        tables = FlowTables(platform.alloc_region(1 << 24), emc_entries=8)
        tables.lookup(port, 1)
        tables.lookup(port, 9)   # same slot (9 % 8 == 1)
        assert not tables.lookup(port, 1).emc_hit

    def test_hit_rate_tracks(self, platform):
        port = platform.core_port(0, 1)
        port.begin_quantum()
        tables = FlowTables(platform.alloc_region(1 << 24))
        for _ in range(10):
            tables.lookup(port, 5)
        assert tables.emc_hit_rate == pytest.approx(0.9)

    def test_bad_sizes(self, platform):
        with pytest.raises(ValueError):
            FlowTables(0, emc_entries=0)


class TestOvs:
    def build_ovs(self, platform, n_rings=2):
        nic_rings = [make_ring(platform) for _ in range(n_rings)]
        virtio = [make_ring(platform) for _ in range(n_rings)]
        ovs = OvsDataplane("ovs", nic_rings,
                           routes=dict(enumerate(virtio)))
        bind(platform, ovs, cores=(0, 1))
        return ovs, nic_rings, virtio

    def test_forwards_by_route(self, platform):
        ovs, nic_rings, virtio = self.build_ovs(platform)
        nic_rings[0].post(256, flow_id=1)
        nic_rings[1].post(256, flow_id=2)
        ovs.run(200_000, 0.0)
        assert virtio[0].occupancy == 1
        assert virtio[1].occupancy == 1
        assert ovs.forwarded == 2

    def test_output_drop_when_virtio_full(self, platform):
        nic_ring = make_ring(platform, entries=64)
        virtio = make_ring(platform, entries=2)
        ovs = OvsDataplane("ovs", [nic_ring], routes={0: virtio})
        bind(platform, ovs, cores=(0,))
        for _ in range(5):
            nic_ring.post(64)
        ovs.run(200_000, 0.0)
        assert ovs.output_drops == 3
        assert virtio.occupancy == 2

    def test_missing_route_rejected(self, platform):
        with pytest.raises(ValueError):
            OvsDataplane("ovs", [make_ring(platform)], routes={})

    def test_route_into_polled_ring_rejected(self, platform):
        """A vector chunk plans its posts before any of its consumes
        apply, so a ring the switch polls cannot also take its posts."""
        nic_rings = [make_ring(platform) for _ in range(2)]
        with pytest.raises(ValueError):
            OvsDataplane("ovs", nic_rings, routes={0: nic_rings[1],
                                                   1: make_ring(platform)})

    def test_cpp_reported(self, platform):
        ovs, nic_rings, _ = self.build_ovs(platform)
        for _ in range(20):
            nic_rings[0].post(64)
        ovs.run(300_000, 0.0)
        assert ovs.cycles_per_packet() > 0
