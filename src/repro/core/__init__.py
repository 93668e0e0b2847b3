"""IAT: the paper's I/O-aware LLC management mechanism."""

from .allocator import Layout, WayAllocator, pack_bottom_up, plan_layout
from .control import ControlPlane
from .daemon import ControllerDaemon, IterationLog, IterationTiming
from .fsm import INITIAL_STATE, Signals, State, next_state
from .monitor import (ChangeKind, ChangeReport, ProfMonitor, SlowdownTracker,
                      SystemSample, TenantSample, jain_fairness, rel_change)
from .params import IATParams
from .policies import (CoreOnlyPolicy, Decision, IATPolicy, IOCAPolicy,
                       IOIsoPolicy, LFOCPolicy, Policy, PolicyBase,
                       PolicyInfo, PolicyState, ReactivePolicy, StaticPolicy,
                       available_policies, create_policy, get_policy,
                       register_policy)
from .shuffler import group_refs, placement_order, share_tenant

__all__ = [
    "ChangeKind", "ChangeReport", "ControlPlane", "ControllerDaemon",
    "CoreOnlyPolicy", "Decision", "IATParams", "IATPolicy",
    "INITIAL_STATE", "IOCAPolicy", "IOIsoPolicy", "IterationLog",
    "IterationTiming", "LFOCPolicy", "Layout", "Policy", "PolicyBase",
    "PolicyInfo", "PolicyState", "ProfMonitor", "ReactivePolicy", "Signals",
    "SlowdownTracker", "State", "StaticPolicy", "SystemSample",
    "TenantSample", "WayAllocator", "available_policies", "create_policy",
    "get_policy", "group_refs", "jain_fairness", "next_state",
    "pack_bottom_up", "placement_order", "plan_layout", "register_policy",
    "rel_change", "share_tenant",
]
