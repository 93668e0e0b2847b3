"""Unit tests for the workload models (ports, X-Mem, SPEC, KVS, streams)."""

import numpy as np
import pytest

from repro.sim.config import TINY_PLATFORM
from repro.sim.platform import Platform
from repro.workloads.base import (CorePort, L2_HIT_CYCLES, LLC_HIT_CYCLES,
                                  WorkloadStats)
from repro.workloads.rocksdb import RocksDb
from repro.workloads.spec import SPEC_PROFILES, SpecProfile, SpecWorkload
from repro.workloads.streams import (ZipfKeyStream, sequential_lines,
                                     uniform_lines)
from repro.workloads.xmem import XMem
from repro.workloads.ycsb import (ALL_WORKLOADS, OpType, WORKLOAD_A,
                                  YcsbMix, YcsbOpStream)


def make_port(platform, core=0, owner=1):
    return platform.core_port(core, owner)


class TestCorePort:
    def test_miss_costs_more_than_hit(self, platform):
        port = make_port(platform)
        port.begin_quantum()
        miss_cost = port.access(0x40000)
        hit_cost = port.access(0x40000)
        assert miss_cost > hit_cost == LLC_HIT_CYCLES

    def test_counters_updated(self, platform):
        port = make_port(platform)
        port.begin_quantum()
        port.access(0x1000)
        port.access(0x1000)
        assert port.block.llc_references == 2
        assert port.block.llc_misses == 1

    def test_miss_adds_memory_read(self, platform):
        platform.mem.begin_window(0.1)
        port = make_port(platform)
        port.begin_quantum()
        port.access(0x2000)
        assert platform.mem.read_bytes == 64

    def test_mlp_divides_latency(self, platform):
        port = make_port(platform)
        port.begin_quantum()
        serial = port.access(0x3000)
        overlapped = port.access(0x83000, mlp=8.0)
        assert overlapped < serial

    def test_charge(self, platform):
        port = make_port(platform)
        port.charge(100, 200)
        assert port.block.instructions == 100
        assert port.block.cycles == 200

    def test_mask_follows_cat(self, platform):
        platform.cat.set_mask(0, 0b11)
        port = make_port(platform)
        port.begin_quantum()
        assert port.mask == 0b11

    def test_invalid_core_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.core_port(999, 1)

    def test_device_read_counts_memory_on_miss(self, platform):
        platform.mem.begin_window(0.1)
        port = make_port(platform)
        port.read_line_for_device(0x5000)
        assert platform.mem.read_bytes == 64


class TestWorkloadStats:
    def test_record_and_average(self):
        stats = WorkloadStats()
        stats.record_op(100.0)
        stats.record_op(200.0)
        assert stats.ops == 2
        assert stats.avg_latency_cycles == 150.0

    def test_percentiles_from_samples(self):
        stats = WorkloadStats()
        for i in range(100):
            stats.record_op(float(i), sample=True)
        assert stats.percentile_latency(99) == pytest.approx(98.01, rel=0.1)

    def test_empty_stats(self):
        stats = WorkloadStats()
        assert stats.avg_latency_cycles == 0.0
        assert stats.percentile_latency(99) == 0.0


class TestStreams:
    def test_uniform_lines_in_range(self, rng):
        addrs = uniform_lines(rng, 1 << 20, 4096, 100)
        assert ((addrs >= 1 << 20) & (addrs < (1 << 20) + 4096)).all()
        assert (addrs % 64 == 0).all()

    def test_sequential_lines_wrap(self):
        addrs, cursor = sequential_lines(0, 256, 2, 4)
        assert addrs.tolist() == [128, 192, 0, 64]
        assert cursor == 2

    def test_zipf_key_stream_skew(self, rng):
        stream = ZipfKeyStream(1000, 0.99, rng)
        keys = stream.draw(5000)
        assert (keys < 10).mean() > 0.2

    def test_zipf_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            ZipfKeyStream(0, 0.99, rng)


class TestXMem:
    def run_xmem(self, platform, ws, budget=200_000):
        xmem = XMem("x", ws)
        port = make_port(platform)
        xmem.bind([port], 1 << 32, np.random.default_rng(7))
        xmem.prefill()
        xmem.begin_quantum(0.0)
        xmem.run(budget, 0.0)
        return xmem, port

    def test_small_ws_is_fast(self, platform):
        small, _ = self.run_xmem(platform, 256 << 10)
        big, _ = self.run_xmem(Platform(TINY_PLATFORM), 64 << 20)
        assert small.stats.ops > big.stats.ops
        assert small.avg_latency_ns() < big.avg_latency_ns()

    def test_charges_cycles(self, platform):
        xmem, port = self.run_xmem(platform, 1 << 20)
        assert port.block.cycles >= 190_000  # roughly the budget

    def test_working_set_change(self, platform):
        xmem, _ = self.run_xmem(platform, 1 << 20)
        xmem.set_working_set(8 << 20)
        assert xmem.working_set_bytes == 8 << 20
        with pytest.raises(ValueError):
            xmem.set_working_set(0)

    def test_throughput_unscaling(self, platform):
        xmem, _ = self.run_xmem(platform, 1 << 20)
        scaled = xmem.throughput_ops(1.0, time_scale=1.0)
        unscaled = xmem.throughput_ops(1.0, time_scale=1e-3)
        assert unscaled == pytest.approx(scaled * 1000)


class TestSpecWorkloads:
    def test_profile_catalogue(self):
        assert {"mcf", "omnetpp", "xalancbmk"} <= set(SPEC_PROFILES)
        for profile in SPEC_PROFILES.values():
            assert profile.working_set_bytes > 0
            assert 0 < profile.read_fraction <= 1

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            SpecProfile("x", 1 << 20, read_fraction=2.0)
        with pytest.raises(ValueError):
            SpecProfile("x", 1 << 20, pattern="spiral")

    def test_runs_and_retires_instructions(self, platform):
        work = SpecWorkload(SPEC_PROFILES["gcc"])
        work.bind([make_port(platform)], 1 << 32,
                  np.random.default_rng(1))
        work.begin_quantum(0.0)
        work.run(100_000, 0.0)
        assert work.instructions_retired > 0
        assert work.instruction_rate(1.0) == work.instructions_retired

    def test_cache_heavy_slower_than_friendly(self, platform):
        """mcf (64MB pointer-chase) must achieve a far lower instruction
        rate than gcc (8MB) on the tiny LLC."""
        rates = {}
        for name in ("mcf", "gcc"):
            p = Platform(TINY_PLATFORM)
            work = SpecWorkload(SPEC_PROFILES[name])
            work.bind([p.core_port(0, 1)], 1 << 32,
                      np.random.default_rng(1))
            work.prefill()
            work.begin_quantum(0.0)
            work.run(300_000, 0.0)
            rates[name] = work.instructions_retired
        assert rates["gcc"] > 1.5 * rates["mcf"]


class TestYcsb:
    def test_all_mixes_sum_to_one(self):
        for mix in ALL_WORKLOADS.values():
            assert sum(mix.proportions.values()) == pytest.approx(1.0)

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbMix("X", {OpType.READ: 0.5})

    def test_op_stream_respects_mix(self, rng):
        stream = YcsbOpStream(WORKLOAD_A, 1000, rng)
        ops = stream.draw(4000)
        reads = sum(1 for op, _ in ops if op is OpType.READ)
        assert 0.4 < reads / len(ops) < 0.6

    def test_read_only_mix(self, rng):
        stream = YcsbOpStream(ALL_WORKLOADS["C"], 1000, rng)
        assert all(op is OpType.READ for op, _ in stream.draw(500))

    def test_insert_allocates_new_keys(self, rng):
        stream = YcsbOpStream(ALL_WORKLOADS["D"], 100, rng)
        ops = stream.draw(2000)
        inserted = [k for op, k in ops if op is OpType.INSERT]
        assert inserted
        assert all(0 <= k < 200 for _, k in ops)


class TestRocksDb:
    def run_db(self, platform, mix=WORKLOAD_A, budget=400_000):
        db = RocksDb("db", mix)
        db.bind([make_port(platform)], 1 << 32, np.random.default_rng(5))
        db.prefill()
        db.begin_quantum(0.0)
        db.run(budget, 0.0)
        return db

    def test_serves_ops(self, platform):
        db = self.run_db(platform)
        assert db.stats.ops > 50
        assert db.per_op[OpType.READ].count > 0
        assert db.per_op[OpType.UPDATE].count > 0

    def test_weighted_latency_vs_self_is_one(self, platform):
        db = self.run_db(platform)
        assert db.weighted_latency_vs(db) == pytest.approx(1.0)

    def test_scan_costs_more_than_read(self, platform):
        db = self.run_db(platform, mix=ALL_WORKLOADS["E"])
        if db.per_op[OpType.SCAN].count and db.per_op[OpType.INSERT].count:
            assert db.per_op[OpType.SCAN].avg \
                > db.per_op[OpType.INSERT].avg
