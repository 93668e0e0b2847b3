"""The policy registry: discovery, construction, and the FSM
transition counter."""

import pytest

from repro.core import (ControllerDaemon, Decision, IATParams, IATPolicy,
                        IOCAPolicy, LFOCPolicy, Policy, PolicyBase,
                        available_policies, create_policy, get_policy,
                        register_policy)
from repro.core.monitor import ChangeKind
from repro.experiments.common import shuffle_scenario
from repro.obs.metrics import REGISTRY
from repro.sim.config import TINY_PLATFORM

from tests.test_daemon import MISS_HIGH, build, drive_ddio


class TestRegistry:
    def test_core_policies_are_registered(self):
        names = {info.name for info in available_policies()}
        assert {"iat", "ioca", "lfoc", "static", "core-only",
                "io-iso"} <= names

    def test_entries_carry_summaries(self):
        for info in available_policies():
            assert info.summary, f"{info.name} has no summary"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="iat"):
            get_policy("nope")
        with pytest.raises(KeyError, match="unknown policy"):
            create_policy("nope")

    def test_listing_is_sorted(self):
        names = [info.name for info in available_policies()]
        assert names == sorted(names)

    def test_tunables_cover_constructor_and_params(self):
        tunables = dict(get_policy("iat").tunables())
        assert "manage_ddio" in tunables        # constructor keyword
        assert "interval_s" in tunables         # IATParams field
        assert tunables["interval_s"] == repr(IATParams().interval_s)

    def test_registering_a_duplicate_name_fails(self):
        with pytest.raises(ValueError, match="iat"):
            @register_policy("iat", summary="imposter")
            class Imposter(PolicyBase):
                pass


class TestConstruction:
    def test_create_iat_splits_params(self):
        policy = create_policy("iat", {"interval_s": 0.5,
                                       "shuffle": False})
        assert isinstance(policy, IATPolicy)
        assert policy.params.interval_s == 0.5
        assert policy.shuffle is False
        # Untouched fields keep their defaults.
        assert policy.params.ddio_ways_max == IATParams().ddio_ways_max

    def test_create_with_no_params(self):
        assert isinstance(create_policy("ioca"), IOCAPolicy)
        assert isinstance(create_policy("lfoc"), LFOCPolicy)

    def test_create_rejects_unknown_param(self):
        with pytest.raises(TypeError):
            create_policy("lfoc", {"no_such_knob": 1})

    def test_constructor_knob_overrides(self):
        policy = create_policy("lfoc", {"unfairness_threshold": 2.0})
        assert policy.unfairness_threshold == 2.0

    def test_policies_satisfy_the_protocol(self):
        for name in ("iat", "ioca", "lfoc", "static"):
            assert isinstance(create_policy(name), Policy)


class TestAttach:
    """Every registered policy attaches the same way and keeps the same
    iteration log, the comparison baselines included."""

    @pytest.mark.parametrize(
        "name", [info.name for info in available_policies()])
    def test_attached_policy_logs_every_interval(self, name):
        scenario = shuffle_scenario(packet_size=1500, spec=TINY_PLATFORM)
        daemon = scenario.attach_controller(name)
        assert isinstance(daemon, ControllerDaemon)
        assert scenario.controller is daemon
        assert scenario.sim.controllers == [daemon]
        scenario.sim.run(2.0)
        intervals = int(2.0 / daemon.interval_s)   # static: never
        assert daemon.history[0].action == "init"
        assert len(daemon.history) == 1 + intervals
        assert len(daemon.timings) == intervals

    def test_figure_spellings_of_static(self):
        scenario = shuffle_scenario(packet_size=1500, spec=TINY_PLATFORM)
        daemon = scenario.attach_controller("baseline-rand", seed=3)
        assert daemon.policy.policy_name == "static"
        assert daemon.policy.shuffle_seed == 3
        scenario = shuffle_scenario(packet_size=1500, spec=TINY_PLATFORM)
        daemon = scenario.attach_controller("baseline")
        assert daemon.policy.policy_name == "static"
        assert daemon.policy.shuffle_seed is None


class TestTransitionsCounter:
    def test_fsm_transitions_are_counted(self):
        platform, daemon, _ = build()
        REGISTRY.clear()
        REGISTRY.enabled = True
        try:
            daemon.on_start(0.0)
            for t in range(1, 5):
                drive_ddio(platform, hits=MISS_HIGH,
                           misses=MISS_HIGH * t)
                daemon.on_interval(float(t))
            text = REGISTRY.to_prometheus()
        finally:
            REGISTRY.enabled = False
            REGISTRY.clear()
        assert "repro_policy_transitions_total" in text
        assert 'from="low-keep"' in text or "from=" in text

    def test_counter_silent_when_registry_disabled(self):
        platform, daemon, _ = build()
        REGISTRY.clear()
        daemon.on_start(0.0)
        drive_ddio(platform, hits=MISS_HIGH, misses=MISS_HIGH)
        daemon.on_interval(1.0)
        assert "repro_policy_transitions_total" \
            not in REGISTRY.to_prometheus()


class TestDecision:
    def test_decision_fields(self):
        decision = Decision(ChangeKind.POLICY, "rebalance", stable=False)
        assert decision.kind is ChangeKind.POLICY
        assert decision.action == "rebalance"
        assert decision.stable is False
