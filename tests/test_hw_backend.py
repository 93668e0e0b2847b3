"""Unit tests for the real-hardware pqos backend, against fake MSRs.

These verify the register-level behaviour (which MSR gets which value)
and that the IAT daemon runs unmodified on top of :class:`HwPqos` —
the whole point of the control-plane abstraction.
"""

import pytest

from repro.cache.ddio import IIO_LLC_WAYS_MSR
from repro.core.control import ControlPlane
from repro.core.daemon import ControllerDaemon
from repro.core.policies import IATPolicy
from repro.core.params import IATParams
from repro.perf.hw import (CHA_EVT_DDIO_HIT, EVT_LLC_MISS,
                           EVT_LLC_REFERENCE, HwPqos, IA32_FIXED_CTR0,
                           IA32_FIXED_CTR1, IA32_L3_QOS_MASK_BASE,
                           IA32_PERFEVTSEL0, IA32_PERFEVTSEL1, IA32_PMC0,
                           IA32_PMC1, IA32_PQR_ASSOC, cha_ctl_msr,
                           cha_ctr_msr)
from repro.perf.msr import MsrDevice
from repro.tenants.tenant import Priority, Tenant, TenantSet


class FakeMsr(MsrDevice):
    """Records every write; reads return stored values (default 0)."""

    def __init__(self):
        self.values = {}
        self.writes = []

    def read(self, register):
        return self.values.get(register, 0)

    def write(self, register, value):
        self.values[register] = value
        self.writes.append((register, value))


def make_hw(n_cores=4):
    msrs = {core: FakeMsr() for core in range(n_cores)}
    return HwPqos(msr_of=msrs, num_ways=11, num_slices=18), msrs


class TestAllocation:
    def test_cbm_written_to_l3_mask_msr(self):
        hw, msrs = make_hw()
        hw.alloc_set(3, 0b1100)
        assert msrs[0].values[IA32_L3_QOS_MASK_BASE + 3] == 0b1100
        assert hw.alloc_get(3) == 0b1100

    def test_invalid_cbm_rejected(self):
        hw, _ = make_hw()
        with pytest.raises(ValueError):
            hw.alloc_set(0, 0)
        with pytest.raises(ValueError):
            hw.alloc_set(0, 1 << 11)

    def test_assoc_sets_high_bits_preserving_rmid(self):
        hw, msrs = make_hw()
        msrs[2].values[IA32_PQR_ASSOC] = 0x5  # existing RMID
        hw.assoc_set(2, 7)
        assert msrs[2].values[IA32_PQR_ASSOC] == (7 << 32) | 0x5
        assert hw.assoc_get(2) == 7

    def test_unknown_core_rejected(self):
        hw, _ = make_hw(n_cores=2)
        with pytest.raises(ValueError):
            hw.assoc_set(9, 1)


class TestDdioRegister:
    def test_roundtrip(self):
        hw, msrs = make_hw()
        hw.ddio_set_mask(0b111 << 8)
        assert msrs[0].values[IIO_LLC_WAYS_MSR] == 0b111 << 8
        assert hw.ddio_way_count() == 3


class TestMbaRegisters:
    def test_throttle_written_per_clos(self):
        from repro.perf.hw import IA32_MBA_THRTL_BASE
        hw, msrs = make_hw()
        hw.mba_set(5, 40)
        assert msrs[0].values[IA32_MBA_THRTL_BASE + 5] == 40
        assert hw.mba_get(5) == 40

    def test_invalid_steps_rejected(self):
        hw, _ = make_hw()
        with pytest.raises(ValueError):
            hw.mba_set(0, 45)
        with pytest.raises(ValueError):
            hw.mba_set(0, 100)


class TestMonitoring:
    def test_pmu_programmed_on_first_group(self):
        hw, msrs = make_hw()
        hw.mon_start("g", [1])
        assert msrs[1].values[IA32_PERFEVTSEL0] == EVT_LLC_REFERENCE
        assert msrs[1].values[IA32_PERFEVTSEL1] == EVT_LLC_MISS

    def test_poll_reads_deltas_across_cores(self):
        hw, msrs = make_hw()
        hw.mon_start("g", [0, 1])
        for core in (0, 1):
            msrs[core].values[IA32_FIXED_CTR0] = 1000
            msrs[core].values[IA32_FIXED_CTR1] = 500
            msrs[core].values[IA32_PMC0] = 100
            msrs[core].values[IA32_PMC1] = 10
        result = hw.mon_poll("g")
        assert result.instructions == 2000
        assert result.cycles == 1000
        assert result.ipc == pytest.approx(2.0)
        assert result.llc_misses == 20
        assert hw.mon_poll("g").instructions == 0  # deltas

    def test_duplicate_group_rejected(self):
        hw, _ = make_hw()
        hw.mon_start("g", [0])
        with pytest.raises(ValueError):
            hw.mon_start("g", [1])

    def test_ddio_poll_scales_one_cha(self):
        hw, msrs = make_hw()
        hw.ddio_poll()  # programs + baselines
        assert msrs[0].values[cha_ctl_msr(0, 0)] == CHA_EVT_DDIO_HIT
        msrs[0].values[cha_ctr_msr(0, 0)] = 100
        msrs[0].values[cha_ctr_msr(0, 1)] = 10
        hits, misses = hw.ddio_poll()
        assert hits == 100 * 18
        assert misses == 10 * 18


class TestDaemonOnHwBackend:
    def test_daemon_runs_unmodified(self):
        hw, msrs = make_hw(n_cores=4)
        msrs[0].values[IIO_LLC_WAYS_MSR] = 0b11 << 9
        tenants = TenantSet([
            Tenant("io", cores=(0,), priority=Priority.PC, is_io=True,
                   initial_ways=2),
            Tenant("app", cores=(1,), priority=Priority.BE,
                   initial_ways=2),
        ])
        for i, tenant in enumerate(tenants):
            tenant.cos_id = i + 1
        control = ControlPlane(hw, tenants, time_scale=1.0)
        daemon = ControllerDaemon(control, IATPolicy(IATParams()))
        daemon.on_start(0.0)
        # Initial LLC Alloc programmed real CBM registers.
        assert IA32_L3_QOS_MASK_BASE + 1 in msrs[0].values
        assert IA32_L3_QOS_MASK_BASE + 2 in msrs[0].values
        # Low Keep pinned the DDIO register to one way.
        assert bin(msrs[0].values[IIO_LLC_WAYS_MSR]).count("1") == 1
        # A couple of quiet intervals run cleanly.
        daemon.on_interval(1.0)
        daemon.on_interval(2.0)
        assert len(daemon.timings) == 2
