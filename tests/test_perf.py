"""Unit tests for counters, uncore sampling, MSRs, and the pqos facade."""

import numpy as np
import pytest

from repro.cache.cat import CatController
from repro.cache.ddio import IIO_LLC_WAYS_MSR, DdioConfig
from repro.cache.geometry import TINY_LLC, XEON_6140_LLC, CacheGeometry
from repro.cache.llc import SlicedLLC
from repro.mem.dram import MemoryController
from repro.pci.nic import Nic
from repro.perf.counters import CoreCounterBlock, CounterFile
from repro.perf.msr import MsrError, SimMsr
from repro.perf.pqos import PqosLib
from repro.perf.uncore import ChaCounters


class TestCoreCounters:
    def test_credit_accumulates(self):
        block = CoreCounterBlock()
        block.credit(instructions=100, cycles=50, llc_references=10,
                     llc_misses=2)
        block.credit(instructions=1)
        assert block.instructions == 101
        assert block.cycles == 50

    def test_aggregate_sums_cores(self):
        cf = CounterFile(num_cores=4)
        cf.core(0).credit(instructions=10)
        cf.core(2).credit(instructions=5, llc_misses=3)
        total = cf.aggregate([0, 2])
        assert total.instructions == 15
        assert total.llc_misses == 3

    def test_snapshot_is_independent(self):
        block = CoreCounterBlock()
        snap = block.snapshot()
        block.credit(cycles=10)
        assert snap.cycles == 0


class TestUncoreSampling:
    def test_record_and_exact(self):
        cha = ChaCounters(TINY_LLC)
        for i in range(100):
            cha.record_ddio(i * 64, hit=(i % 2 == 0))
        exact = cha.exact()
        assert exact.hits == 50
        assert exact.misses == 50

    def test_sample_scales_one_slice(self):
        cha = ChaCounters(TINY_LLC)
        for i in range(4000):
            cha.record_ddio(i * 64, hit=True)
        sample = cha.sample()
        exact = cha.exact()
        # One-slice estimate should be near truth for hashed addresses.
        assert abs(sample.hits - exact.hits) / exact.hits < 0.2
        assert cha.sampling_error() < 0.2

    def test_sampling_error_zero_when_no_traffic(self):
        assert ChaCounters(TINY_LLC).sampling_error() == 0.0

    def test_invalid_sample_slice(self):
        with pytest.raises(ValueError):
            ChaCounters(TINY_LLC, sample_slice=99)


#: 48 sets per slice: the set index is no bitmask of the hash quotient.
ODD_LLC = CacheGeometry(ways=4, sets_per_slice=48, slices=3)


class TestDdioBatchRecording:
    """A DMA burst records each line against the slice per-address
    :meth:`ChaCounters.record_ddio` would, whether the slice comes from
    the LLC batch's set index or from hashing the addresses."""

    @pytest.mark.parametrize("geometry", [TINY_LLC, XEON_6140_LLC, ODD_LLC],
                             ids=["tiny", "xeon", "odd-sets"])
    @pytest.mark.parametrize("backend", ["scalar", "array"])
    @pytest.mark.parametrize("header_only", [False, True])
    def test_dma_burst_matches_per_address_record(self, geometry, backend,
                                                  header_only):
        llc = SlicedLLC(geometry, backend=backend)
        mem = MemoryController()
        mem.begin_window(0.1)
        uncore = ChaCounters(geometry)
        seen = []
        record_batch = uncore.record_ddio_batch

        def spy(addrs, hit, index=None):
            seen.append((np.array(addrs), np.array(hit), index is not None))
            record_batch(addrs, hit, index)

        uncore.record_ddio_batch = spy
        nic = Nic(name="nic0", link_gbps=40.0, region_base=1 << 30,
                  region_size=1 << 24)
        vf = nic.add_vf(entries=64, pool_factor=1)
        vf.header_only_ddio = header_only
        rng = np.random.default_rng(4)
        mask = 0b1111 << (geometry.ways - 4)
        for burst in range(12):
            # Uniform and ragged bursts, small and large; the ring wraps
            # over its buffers, so later bursts hit.
            count = (3, 40, 64)[burst % 3]
            sizes = (np.full(count, 256) if burst % 2
                     else rng.integers(64, 512, count))
            nic.dma_burst([(vf, sizes, np.zeros(count, dtype=np.int64))],
                          llc, mask, mem, uncore)
            vf.rx_ring.consume_batch(vf.rx_ring.occupancy)
        reference = ChaCounters(geometry)
        for addrs, hit, _ in seen:
            for addr, h in zip(addrs.tolist(), hit.tolist()):
                reference.record_ddio(addr, hit=h)
        assert uncore.hits == reference.hits
        assert uncore.misses == reference.misses
        assert all(type(c) is int for c in uncore.hits + uncore.misses)
        assert sum(reference.hits) > 0 and sum(reference.misses) > 0
        # The array backend's vector engine hands over its set index.
        assert any(used for _, _, used in seen) == (backend == "array")


class TestSimMsr:
    def test_iio_llc_ways_reads_ddio_mask(self):
        ddio = DdioConfig(TINY_LLC)
        msr = SimMsr(ddio)
        assert msr.read(IIO_LLC_WAYS_MSR) == ddio.mask

    def test_iio_llc_ways_write_reprograms(self):
        ddio = DdioConfig(TINY_LLC)
        msr = SimMsr(ddio)
        msr.write(IIO_LLC_WAYS_MSR, 0b111 << (TINY_LLC.ways - 3))
        assert ddio.way_count == 3

    def test_scratch_registers(self):
        msr = SimMsr(DdioConfig(TINY_LLC))
        msr.write(0x123, 0xDEAD)
        assert msr.read(0x123) == 0xDEAD
        assert msr.read(0x456) == 0

    def test_rejects_oversized_value(self):
        msr = SimMsr(DdioConfig(TINY_LLC))
        with pytest.raises(MsrError):
            msr.write(0x10, 1 << 64)


def make_pqos():
    ddio = DdioConfig(TINY_LLC)
    counters = CounterFile(num_cores=4)
    uncore = ChaCounters(TINY_LLC)
    cat = CatController(num_ways=TINY_LLC.ways)
    return PqosLib(counters, uncore, cat, SimMsr(ddio)), counters, uncore


class TestPqosFacade:
    def test_mon_poll_returns_deltas(self):
        pqos, counters, _ = make_pqos()
        pqos.mon_start("g", [0, 1])
        counters.core(0).credit(instructions=100, cycles=50)
        result = pqos.mon_poll("g")
        assert result.instructions == 100
        assert result.ipc == pytest.approx(2.0)
        # Second poll with no activity: zero deltas.
        assert pqos.mon_poll("g").instructions == 0

    def test_mon_groups_are_exclusive_names(self):
        pqos, _, _ = make_pqos()
        pqos.mon_start("g", [0])
        with pytest.raises(ValueError):
            pqos.mon_start("g", [1])
        pqos.mon_stop("g")
        pqos.mon_start("g", [1])

    def test_mon_group_needs_cores(self):
        pqos, _, _ = make_pqos()
        with pytest.raises(ValueError):
            pqos.mon_start("empty", [])

    def test_ddio_poll_deltas(self):
        pqos, _, uncore = make_pqos()
        pqos.ddio_poll()  # establish baseline
        for i in range(100):
            uncore.record_ddio(i * 64, hit=True)
        hits, misses = pqos.ddio_poll()
        assert hits > 0 and misses == 0
        assert pqos.ddio_poll() == (0, 0)

    def test_alloc_and_assoc(self):
        pqos, _, _ = make_pqos()
        pqos.alloc_set(3, 0b11)
        assert pqos.alloc_get(3) == 0b11
        pqos.assoc_set(2, 3)
        assert pqos.assoc_get(2) == 3

    def test_ddio_mask_roundtrip(self):
        pqos, _, _ = make_pqos()
        pqos.ddio_set_mask(0b1111 << (TINY_LLC.ways - 4))
        assert pqos.ddio_way_count() == 4

    def test_cost_model_accumulates(self):
        pqos, _, _ = make_pqos()
        pqos.mon_start("g", [0, 1, 2])
        pqos.reset_cost()
        pqos.mon_poll("g")
        cost_three_cores = pqos.reset_cost()
        pqos.mon_stop("g")
        pqos.mon_start("h", [0])
        pqos.reset_cost()
        pqos.mon_poll("h")
        cost_one_core = pqos.reset_cost()
        assert cost_three_cores > cost_one_core > 0

    def test_miss_rate(self):
        pqos, counters, _ = make_pqos()
        pqos.mon_start("g", [0])
        counters.core(0).credit(llc_references=100, llc_misses=25)
        assert pqos.mon_poll("g").miss_rate == pytest.approx(0.25)
