"""Daemon introspection surfaces: history, timings, layout queries."""

import pytest

from repro.core.daemon import IterationLog, IterationTiming
from repro.core.fsm import State
from repro.core.monitor import ChangeKind

from tests.test_daemon import MISS_HIGH, build, drive_core, drive_ddio


class TestHistory:
    def test_history_records_every_interval(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        for t in range(1, 6):
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH * t)
            daemon.on_interval(float(t))
        assert len(daemon.history) == 6  # init + 5 intervals
        assert all(isinstance(h, IterationLog) for h in daemon.history)
        times = [h.time for h in daemon.history]
        assert times == sorted(times)

    def test_history_snapshots_are_independent(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH)
        daemon.on_interval(1.0)
        first = daemon.history[0].group_ways
        daemon.policy.allocator.group_ways["app0"] = 9
        assert first["app0"] != 9  # logged dicts are copies

    def test_layout_matches_programmed_masks(self):
        platform, daemon, tenants = build()
        daemon.on_start(0.0)
        for tenant in tenants:
            assert platform.cat.get_mask(tenant.cos_id) \
                == daemon.layout.mask_of(tenant)

    def test_actions_describe_state_changes(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        daemon.on_interval(1.0)
        for t in range(2, 6):
            drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH * t)
            for c in range(3):
                drive_core(platform, c)
            daemon.on_interval(float(t))
        actions = [h.action for h in daemon.history]
        assert any("ddio +" in a for a in actions)


class TestTimingSplit:
    def test_stable_vs_unstable_classified(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        daemon.on_interval(1.0)   # first poll establishes baselines
        daemon.on_interval(2.0)   # quiet -> stable
        drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH)
        daemon.on_interval(3.0)   # change -> unstable
        kinds = [t.stable for t in daemon.timings]
        assert True in kinds and False in kinds

    def test_mean_timing_handles_empty_bucket(self):
        _, daemon, _ = build()
        daemon.on_start(0.0)
        assert daemon.mean_timing_us(stable=True) == 0.0
        assert daemon.mean_timing_us(stable=False) == 0.0

    def test_wall_time_positive(self):
        platform, daemon, _ = build()
        daemon.on_start(0.0)
        daemon.on_interval(1.0)
        timing = daemon.timings[0]
        assert isinstance(timing, IterationTiming)
        assert timing.wall_us > 0
        assert timing.modelled_us > 0
