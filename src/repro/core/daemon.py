"""The controller daemon shell: the paper's six-step control loop
(Sec. IV, Fig. 5), generalized over pluggable policies.

    Get Tenant Info -> LLC Alloc -> [ Poll Prof Data -> State Transition
    -> LLC Re-alloc -> Sleep ] ...

:class:`ControllerDaemon` owns everything that is *not* a decision:
iteration timing, the monitor lifecycle, tenant refresh, layout
programming (delegated to :meth:`ControlPlane.apply_layout`), and the
history/trace/metrics plumbing.  All decisions flow through a
:class:`~repro.core.policies.Policy` — observe (``pre_observe`` + the
monitor poll), decide (``decide`` returns a
:class:`~repro.core.policies.Decision`), actuate (the policy plans
:class:`~repro.core.allocator.Layout` objects and applies them via
:meth:`apply_layout`).

The daemon is backend-agnostic: it sees the machine only through a
:class:`~repro.core.control.ControlPlane`.  The simulation engine calls
:meth:`on_interval` once per sleep interval (1 s, Table II).

The paper's daemon is ``ControllerDaemon(control, IATPolicy(...))``;
the Sec. VI-B baselines (static, Core-only, I/O-iso) are registered
policies too, so every controller the engine runs is one of these
shells.

Per-iteration execution time is tracked two ways for Fig. 15: the
modelled MSR/context-switch cost from the pqos facade (comparable to
the paper's absolute microseconds) and actual wall-clock time of the
Python loop.  Stable iterations (poll only) and unstable iterations
(poll + transition + re-alloc) are recorded separately, as in Fig. 15.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.tracer import enabled_tracer
from .allocator import Layout
from .control import ControlPlane
from .fsm import State
from .monitor import ChangeKind

if TYPE_CHECKING:
    from .monitor import ProfMonitor, SystemSample
    from .policies import Policy


@dataclass
class IterationTiming:
    """One interval's cost, split like Fig. 15."""

    stable: bool
    modelled_us: float
    wall_us: float


@dataclass
class IterationLog:
    """What the daemon saw and did in one interval (for Fig. 11 etc.).

    ``state`` is the policy's current state object — an FSM
    :class:`~repro.core.fsm.State` for IAT, a lightweight
    :class:`~repro.core.policies.PolicyState` for other policies; both
    expose ``.value``.
    """

    time: float
    state: "State | object"
    kind: ChangeKind
    ddio_ways: int
    group_ways: "dict[str, int]"
    action: str


class ControllerDaemon:
    """Generic controller shell driving one :class:`Policy`.

    The engine's ``Controller`` protocol (``interval_s`` / ``on_start``
    / ``on_interval``) is implemented here once; policies never talk to
    the engine directly.  Per interval the daemon:

    1. resets the modelled pqos cost counter and starts the wall clock;
    2. refreshes the tenant set (re-initializing the policy on change);
    3. lets the policy observe out-of-band state (``pre_observe``);
    4. polls the policy's monitor (if it created one);
    5. asks the policy to decide and actuate;
    6. records timing, history, and trace events for the iteration.
    """

    def __init__(self, control: ControlPlane, policy: "Policy") -> None:
        self.control = control
        self.policy = policy
        policy.bind(self)
        self.interval_s = policy.interval_s
        self.monitor: "ProfMonitor | None" = None
        self.layout: "Layout | None" = None
        self.timings: "list[IterationTiming]" = []
        self.history: "list[IterationLog]" = []

    # ------------------------------------------------------------------
    # Steps 1-2: Get Tenant Info + LLC Alloc
    # ------------------------------------------------------------------
    def on_start(self, now: float) -> None:
        self._init_tenants(now)

    def _init_tenants(self, now: float) -> None:
        if self.monitor is not None:
            self.monitor.close()
        self.monitor = self.policy.make_monitor()
        self.layout = None
        self.policy.on_init(now)
        self._log(now, ChangeKind.FSM, "init")

    # ------------------------------------------------------------------
    # Steps 3-5: Poll Prof Data -> State Transition -> LLC Re-alloc
    # ------------------------------------------------------------------
    def on_interval(self, now: float) -> None:
        wall_start = time.perf_counter()
        control = self.control
        control.pqos.reset_cost()
        if control.refresh_tenants():
            self._init_tenants(now)
            return
        self.policy.pre_observe(now)
        sample: "SystemSample | None" = (
            self.monitor.poll() if self.monitor is not None else None)
        decision = self.policy.decide(now, sample)
        self._finish(now, decision.kind, decision.action,
                     stable=decision.stable, wall_start=wall_start)

    # ------------------------------------------------------------------
    def apply_layout(self, layout: Layout, *, set_ddio: bool = True) -> None:
        """Program ``layout``'s deltas vs the current one and adopt it."""
        self.control.apply_layout(layout, self.layout, set_ddio=set_ddio)
        self.layout = layout

    def _finish(self, now: float, kind: ChangeKind, action: str, *,
                stable: bool, wall_start: float) -> None:
        modelled = self.control.pqos.reset_cost()
        wall = (time.perf_counter() - wall_start) * 1e6
        self.timings.append(IterationTiming(stable=stable,
                                            modelled_us=modelled,
                                            wall_us=wall))
        tracer = enabled_tracer()
        if tracer is not None:
            tracer.complete("daemon", "interval", wall / 1e6,
                            stable=stable, kind=kind.value,
                            modelled_us=modelled)
        self._log(now, kind, action)

    def _log(self, now: float, kind: ChangeKind, action: str) -> None:
        alloc = getattr(self.policy, "allocator", None)
        if alloc is not None:
            ddio_ways = alloc.ddio_ways
            group_ways = dict(alloc.group_ways)
        elif self.layout is not None:
            ddio_ways = bin(self.layout.ddio_mask).count("1")
            group_ways = {group: bin(mask).count("1")
                          for group, mask in self.layout.group_masks.items()}
        else:
            ddio_ways = 0
            group_ways = {}
        entry = IterationLog(
            time=now, state=self.policy.state, kind=kind,
            ddio_ways=ddio_ways, group_ways=group_ways, action=action)
        self.history.append(entry)
        tracer = enabled_tracer()
        if tracer is not None:
            tracer.set_sim_time(now)
            tracer.instant("daemon", "iteration", time=now,
                           state=entry.state.value, kind=kind.value,
                           ddio_ways=entry.ddio_ways,
                           group_ways=dict(entry.group_ways),
                           action=action)

    # ------------------------------------------------------------------
    # Reporting (Fig. 15)
    # ------------------------------------------------------------------
    def mean_timing_us(self, *, stable: bool,
                       modelled: bool = True) -> float:
        values = [t.modelled_us if modelled else t.wall_us
                  for t in self.timings if t.stable == stable]
        return sum(values) / len(values) if values else 0.0

