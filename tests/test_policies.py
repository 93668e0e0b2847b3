"""Unit tests for the comparison policies (baseline, Core-only, I/O-iso)."""

import pytest

from repro.cache.cat import mask_ways
from repro.core.control import ControlPlane
from repro.core.daemon import ControllerDaemon
from repro.core.policies import CoreOnlyPolicy, IOIsoPolicy, StaticPolicy
from repro.sim.config import TINY_PLATFORM
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant, TenantSet


def build(policy_cls, *, tenants=None, **kwargs):
    platform = Platform(TINY_PLATFORM)
    tenants = tenants or TenantSet([
        Tenant("net", cores=(0,), priority=Priority.PC, is_io=True,
               initial_ways=3),
        Tenant("be0", cores=(1,), priority=Priority.BE, initial_ways=2),
        Tenant("be1", cores=(2,), priority=Priority.BE, initial_ways=2),
        Tenant("pc", cores=(3,), priority=Priority.PC, initial_ways=2),
    ])
    for i, tenant in enumerate(tenants):
        tenant.cos_id = i + 1
        for core in tenant.cores:
            platform.cat.associate(core, tenant.cos_id)
    control = ControlPlane(platform.pqos, tenants, time_scale=1.0)
    daemon = ControllerDaemon(control, policy_cls(**kwargs))
    return platform, daemon, tenants


def drive(platform, core, refs, misses):
    platform.counters.core(core).credit(
        instructions=10_000, cycles=10_000,
        llc_references=refs, llc_misses=misses)


class TestStaticPolicy:
    def test_applies_packed_layout_once(self):
        platform, daemon, tenants = build(StaticPolicy)
        daemon.on_start(0.0)
        assert mask_ways(platform.cat.get_mask(1)) == [0, 1, 2]
        assert mask_ways(platform.cat.get_mask(2)) == [3, 4]
        before = platform.cat.get_mask(1)
        daemon.on_interval(1.0)
        assert platform.cat.get_mask(1) == before

    def test_explicit_masks(self):
        platform, daemon, _ = build(
            StaticPolicy, explicit_masks={"net": 0b11, "be0": 0b1100,
                                          "be1": 0b110000, "pc": 0b11000000})
        daemon.on_start(0.0)
        assert platform.cat.get_mask(2) == 0b1100

    def test_random_mode_keeps_io_at_bottom(self):
        for seed in range(8):
            platform, daemon, tenants = build(StaticPolicy,
                                              shuffle_seed=seed)
            daemon.on_start(0.0)
            net_mask = daemon.layout.group_masks["net"]
            assert mask_ways(net_mask) == [0, 1, 2]
            # Never overlapping DDIO (paper: networking tenants share
            # ways with "no DDIO overlap").
            assert net_mask & daemon.layout.ddio_mask == 0

    def test_random_mode_varies_placement(self):
        layouts = set()
        for seed in range(10):
            _, daemon, _ = build(StaticPolicy, shuffle_seed=seed)
            daemon.on_start(0.0)
            layouts.add(tuple(sorted(daemon.layout.group_masks.items())))
        assert len(layouts) > 2

    def test_random_mode_sometimes_overlaps_ddio(self):
        overlaps = 0
        for seed in range(24):
            _, daemon, _ = build(StaticPolicy, shuffle_seed=seed)
            daemon.on_start(0.0)
            if daemon.layout.overlap_groups():
                overlaps += 1
        assert 0 < overlaps < 24  # the paper's wide baseline whiskers

    def test_random_mode_needs_seed_via_scenario(self):
        from repro.experiments.common import kvs_scenario
        from repro.sim.config import PlatformSpec
        from repro.cache.geometry import TINY_LLC
        spec = PlatformSpec(name="t", cores=12, llc=TINY_LLC)
        scenario = kvs_scenario(app="gcc", spec=spec)
        with pytest.raises(ValueError):
            scenario.attach_controller("baseline-rand")


class TestCoreOnlyPolicy:
    def test_grows_into_idle_ways_only(self):
        platform, daemon, _ = build(CoreOnlyPolicy)
        daemon.on_start(0.0)
        # 3+2+2+2 = 9 of 11 ways used: two idle (the DDIO ways).
        for t in range(1, 3):
            for core in range(4):
                drive(platform, core, 1000, 10)
            daemon.on_interval(float(t))
        # pc's miss rate jumps, then improves with each grant but stays
        # meaningful, sustaining the growth session.
        schedule = [8000, 5000, 3500, 2500, 2500, 2500]
        for t, misses in enumerate(schedule, start=3):
            drive(platform, 0, 1000, 10)
            drive(platform, 1, 1000, 10)
            drive(platform, 2, 1000, 10)
            drive(platform, 3, 20_000, misses)
            daemon.on_interval(float(t))
        assert daemon.policy.allocator.group_ways["pc"] == 4  # 2 + the 2 idle
        # The grown mask reaches into the DDIO ways: I/O-unawareness.
        pc_mask = daemon.layout.group_masks["pc"]
        assert pc_mask & daemon.layout.ddio_mask

    def test_never_touches_ddio_mask(self):
        platform, daemon, _ = build(CoreOnlyPolicy)
        before = platform.ddio.mask
        daemon.on_start(0.0)
        daemon.on_interval(1.0)
        assert platform.ddio.mask == before


class TestIOIsoPolicy:
    def test_layout_never_overlaps_ddio(self):
        platform, daemon, _ = build(IOIsoPolicy)
        daemon.on_start(0.0)
        for t in range(1, 8):
            drive(platform, 3, 20_000, 8000)
            daemon.on_interval(float(t))
        for mask in daemon.layout.group_masks.values():
            assert mask & daemon.layout.ddio_mask == 0

    def test_growth_takes_from_best_effort(self):
        platform, daemon, _ = build(IOIsoPolicy)
        daemon.on_start(0.0)
        for t in range(1, 3):
            for core in range(4):
                drive(platform, core, 1000, 10)
            daemon.on_interval(float(t))
        misses = 10_000
        for t in range(3, 10):
            drive(platform, 0, 1000, 10)
            drive(platform, 1, 500, 5)
            drive(platform, 2, 1000, 10)
            drive(platform, 3, 30_000, misses)
            misses = max(1000, int(misses * 0.55))
            daemon.on_interval(float(t))
        assert daemon.policy.allocator.group_ways["pc"] > 2
        # Pool is 9 ways (11 - 2 DDIO): someone must have paid.
        total = sum(daemon.policy.allocator.group_ways.values())
        assert total <= 9
        assert min(daemon.policy.allocator.group_ways["be0"],
                   daemon.policy.allocator.group_ways["be1"]) == 1

    def test_ddio_widening_shrinks_pool(self):
        platform, daemon, _ = build(IOIsoPolicy)
        daemon.on_start(0.0)
        daemon.on_interval(1.0)
        from repro.cache.ddio import ddio_mask_for_ways
        platform.ddio.set_mask(ddio_mask_for_ways(platform.spec.llc, 5))
        drive(platform, 0, 1000, 100)
        daemon.on_interval(2.0)
        total = sum(daemon.policy.allocator.group_ways.values())
        assert total <= platform.spec.llc.ways - 5
        for mask in daemon.layout.group_masks.values():
            assert mask & daemon.layout.ddio_mask == 0
