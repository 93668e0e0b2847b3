"""Unit tests for the IAT daemon loop against a hand-driven platform."""

import pytest

from repro.cache.ddio import default_ddio_mask
from repro.cache.geometry import TINY_LLC
from repro.core.control import ControlPlane
from repro.core.daemon import ControllerDaemon
from repro.core.fsm import State
from repro.core.monitor import ChangeKind
from repro.core.params import IATParams
from repro.core.policies import (IATPolicy, available_policies,
                                 create_policy)
from repro.sim.config import TINY_PLATFORM
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant, TenantSet


def build(n_io=1, n_app=2, params=None, **daemon_kwargs):
    platform = Platform(TINY_PLATFORM)
    tenants = []
    core = 0
    for i in range(n_io):
        tenants.append(Tenant(f"io{i}", cores=(core,), priority=Priority.PC,
                              is_io=True, initial_ways=2))
        core += 1
    for i in range(n_app):
        prio = Priority.BE if i else Priority.PC
        tenants.append(Tenant(f"app{i}", cores=(core,), priority=prio,
                              initial_ways=2))
        core += 1
    tenant_set = TenantSet(tenants)
    for i, tenant in enumerate(tenant_set):
        tenant.cos_id = i + 1
        for c in tenant.cores:
            platform.cat.associate(c, tenant.cos_id)
    control = ControlPlane(platform.pqos, tenant_set, time_scale=1.0)
    daemon = ControllerDaemon(
        control, IATPolicy(params or IATParams(), **daemon_kwargs))
    return platform, daemon, tenant_set


def drive_ddio(platform, hits, misses):
    for s in range(TINY_LLC.slices):
        platform.uncore.hits[s] += hits // TINY_LLC.slices
        platform.uncore.misses[s] += misses // TINY_LLC.slices


def drive_core(platform, core, refs=1000, misses=100, instr=10_000):
    platform.counters.core(core).credit(
        instructions=instr, cycles=instr, llc_references=refs,
        llc_misses=misses)


MISS_HIGH = 4_000_000 * TINY_LLC.slices  # far above 1M/s threshold


class TestStartup:
    def test_initial_alloc_applies_masks(self):
        platform, daemon, tenants = build()
        daemon.on_start(0.0)
        for tenant in tenants:
            mask = platform.cat.get_mask(tenant.cos_id)
            assert mask != platform.cat.get_mask(0)  # not default full
        # Low Keep boot: DDIO pinned at the minimum.
        assert bin(platform.ddio.mask).count("1") == 1

    def test_manage_ddio_false_leaves_hardware_default(self):
        platform, daemon, _ = build(manage_ddio=False)
        daemon.on_start(0.0)
        assert platform.ddio.mask == default_ddio_mask(TINY_LLC)

    def test_boot_state_low_keep(self):
        _, daemon, _ = build()
        daemon.on_start(0.0)
        assert daemon.policy.state is State.LOW_KEEP


class TestFsmDrive:
    def test_io_pressure_grows_ddio(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        daemon.on_interval(1.0)  # baseline sample
        ways = []
        for t in range(2, 8):
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH * t)
            for c in range(3):
                drive_core(platform, c)
            daemon.on_interval(float(t))
            ways.append(daemon.policy.allocator.ddio_ways)
        assert daemon.policy.state in (State.IO_DEMAND, State.HIGH_KEEP)
        assert max(ways) > daemon.policy.params.ddio_ways_min

    def test_ddio_capped_at_max(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        for t in range(1, 20):
            drive_ddio(platform, hits=MISS_HIGH,
                       misses=MISS_HIGH * (t + 1))
            for c in range(3):
                drive_core(platform, c, refs=1000 + 10 * t)
            daemon.on_interval(float(t))
        assert daemon.policy.allocator.ddio_ways \
            <= daemon.policy.params.ddio_ways_max

    def test_quiet_system_reclaims_to_min(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        # Push DDIO up first.
        for t in range(1, 6):
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH * t)
            daemon.on_interval(float(t))
        grown = daemon.policy.allocator.ddio_ways
        # Then let traffic die: misses collapse interval over interval.
        misses = MISS_HIGH
        for t in range(6, 16):
            misses = int(misses * 0.3)
            drive_ddio(platform, hits=MISS_HIGH // 100, misses=misses)
            daemon.on_interval(float(t))
        assert daemon.policy.allocator.ddio_ways <= grown
        assert daemon.policy.allocator.ddio_ways \
            == daemon.policy.params.ddio_ways_min

    def test_stable_intervals_do_nothing(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        history_len = len(daemon.history)
        for t in range(1, 4):
            daemon.on_interval(float(t))
        stable = [t for t in daemon.timings if t.stable]
        assert len(stable) >= 2
        assert daemon.policy.allocator.ddio_ways \
            == daemon.policy.params.ddio_ways_min
        assert len(daemon.history) == history_len + 3


class TestCoreSideGrowth:
    def test_non_io_demand_grows_then_settles(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        # Two identical baseline intervals.
        for t in (1, 2):
            for c in range(3):
                drive_core(platform, c, refs=1000, misses=10)
            daemon.on_interval(float(t))
        # app0 (core 1) jumps to a high miss rate; DDIO stays silent.
        misses = 5000
        for t in range(3, 10):
            drive_core(platform, 0, refs=1000, misses=10)
            drive_core(platform, 1, refs=10_000, misses=misses)
            drive_core(platform, 2, refs=1000, misses=10)
            misses = max(500, int(misses * 0.6))  # each grant helps
            daemon.on_interval(float(t))
        assert daemon.policy.allocator.group_ways["app0"] > 2

    def test_frozen_tenant_ways_never_change(self):
        platform, daemon, _ = build(manage_tenant_ways=False)
        daemon.on_start(0.0)
        for t in range(1, 8):
            drive_core(platform, 1, refs=10_000, misses=5000 + 100 * t)
            daemon.on_interval(float(t))
        assert daemon.policy.allocator.group_ways["app0"] == 2


class TestShuffling:
    def test_shuffle_reorders_be_groups(self):
        platform, daemon, _ = build(n_io=1, n_app=3)
        daemon.on_start(0.0)
        for t in (1, 2):
            for c in range(4):
                drive_core(platform, c)
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH)
            daemon.on_interval(float(t))
        # BE tenants app1 (core 2) hungry, app2 (core 3) idle.
        for t in range(3, 6):
            drive_core(platform, 2, refs=50_000, misses=5_000)
            drive_core(platform, 3, refs=100, misses=10)
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH * t)
            daemon.on_interval(float(t))
        order = daemon.policy._order
        # Least-hungry BE (app2) must sit last = adjacent to DDIO.
        assert order[-1] == "app2"

    def test_no_shuffle_keeps_registration_order(self):
        platform, daemon, _ = build(n_io=1, n_app=3, shuffle=False)
        daemon.on_start(0.0)
        for t in range(1, 5):
            drive_core(platform, 3, refs=100_000 * t, misses=10_000 * t)
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH * t)
            daemon.on_interval(float(t))
        layout_groups = list(daemon.layout.group_masks)
        assert layout_groups == ["io0", "app0", "app1", "app2"]


class TestPcIsolationClamp:
    def test_pc_group_trimmed_when_ddio_widens(self):
        platform, daemon, tenants = build(n_io=1, n_app=2,
                                          manage_ddio=False)
        daemon.on_start(0.0)
        # Grow the PC app group (app0) near the cache size.
        daemon.policy.allocator.group_ways["app0"] = 9
        platform.ddio.set_ways(4)
        daemon.on_interval(1.0)
        limit = platform.spec.llc.ways - 4
        assert daemon.policy.allocator.group_ways["app0"] <= limit
        assert daemon.layout.group_masks["app0"] \
            & daemon.layout.ddio_mask == 0

    def test_io_groups_not_trimmed(self):
        platform, daemon, _ = build(n_io=1, n_app=1, manage_ddio=False)
        daemon.on_start(0.0)
        daemon.policy.allocator.group_ways["io0"] = 9
        platform.ddio.set_ways(4)
        daemon.on_interval(1.0)
        # The I/O tenant may keep its ways (its data is the DDIO data).
        assert daemon.policy.allocator.group_ways["io0"] == 9

    def test_frozen_tenant_ways_never_trimmed(self):
        platform, daemon, _ = build(n_io=1, n_app=1, manage_ddio=False,
                                    manage_tenant_ways=False)
        daemon.on_start(0.0)
        daemon.policy.allocator.group_ways["app0"] = 9
        platform.ddio.set_ways(4)
        daemon.on_interval(1.0)
        assert daemon.policy.allocator.group_ways["app0"] == 9


class TestRegistryRefresh:
    def test_tenant_file_change_reinitializes(self, tmp_path):
        from repro.tenants.registry import TenantRegistry, format_records
        platform, daemon, tenants = build()
        path = tmp_path / "tenants.txt"
        registry = TenantRegistry(str(path))
        registry.save(tenants)
        daemon.control.registry = registry
        registry.load()
        daemon.on_start(0.0)
        # Rewrite the file with an extra tenant.
        new = TenantSet(list(tenants.tenants)
                        + [Tenant("late", cores=(5,), initial_ways=1)])
        import os
        registry.save(new)
        os.utime(path, (9e8, 9e8))
        daemon.on_interval(1.0)
        assert "late" in daemon.policy.allocator.group_ways

    @pytest.mark.parametrize(
        "name", [info.name for info in available_policies()])
    def test_every_policy_adopts_a_late_tenant(self, tmp_path, name):
        """The Sec. IV-E re-read under every registered policy: the
        daemon re-initializes the policy, and the tenant added to the
        file gets an allocation."""
        import os
        from repro.tenants.registry import TenantRegistry
        _, iat, tenants = build()
        daemon = ControllerDaemon(iat.control, create_policy(name))
        path = tmp_path / "tenants.txt"
        registry = TenantRegistry(str(path))
        registry.save(tenants)
        daemon.control.registry = registry
        registry.load()
        daemon.on_start(0.0)
        daemon.on_interval(1.0)
        registry.save(TenantSet(list(tenants.tenants)
                                + [Tenant("late", cores=(5,),
                                          initial_ways=1)]))
        os.utime(path, (9e8, 9e8))
        daemon.on_interval(2.0)
        daemon.on_interval(3.0)
        assert "late" in daemon.history[-1].group_ways


class TestTimings:
    def test_timings_recorded_per_interval(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        daemon.on_interval(1.0)
        daemon.on_interval(2.0)
        assert len(daemon.timings) == 2
        assert all(t.modelled_us > 0 for t in daemon.timings)
        assert daemon.mean_timing_us(stable=True) >= 0.0
