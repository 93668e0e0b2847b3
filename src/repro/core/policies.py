"""The policy plane: the registry, the `Policy` protocol, and the zoo.

Every controller is a decorator-registered policy driven by a generic
:class:`~repro.core.daemon.ControllerDaemon`.  Each implements the
:class:`Policy` protocol (``bind`` / ``make_monitor`` / ``on_init`` /
``pre_observe`` / ``decide``), plans
:class:`~repro.core.allocator.Layout` objects, and actuates them
through :meth:`ControllerDaemon.apply_layout` (which delegates mask
programming to :meth:`ControlPlane.apply_layout`).  Registered today:

* ``iat`` — :class:`IATPolicy`, the paper's six-step FSM controller
  (all of Sec. IV), bit-identical to the pre-refactor monolith;
* ``static`` — :class:`StaticPolicy`, the paper's baseline: one
  allocation at start-up, never revisited.  Figs. 12-14 randomize the
  initial placement ("the LLC ways allocation ... randomly shuffled"),
  hence ``shuffle_seed``: a cache-hungry tenant may or may not land on
  the DDIO ways, producing the wide min-max whiskers of the baseline
  bars;
* ``core-only`` — :class:`CoreOnlyPolicy`, dynamic, miss-driven way
  allocation *without* I/O awareness (the paper emulates this by
  "disabling I/O Demand state and LLC shuffling").  It happily treats
  the DDIO ways as free space, which is the Latent Contender problem in
  action;
* ``io-iso`` — :class:`IOIsoPolicy`, Core-only plus a hard exclusion of
  the DDIO ways from the core pool ([14, 69]'s approach).  When demand
  exceeds the shrunken pool, groups are clamped against its top and
  *share* ways ("the PC containers have to share 7-2=5 ways");
* ``ioca`` — :class:`IOCAPolicy`, an IOCA-style I/O-aware manager that
  sizes the DDIO partition from DDIO/PCIe pressure (arXiv:2007.04552);
* ``lfoc`` — :class:`LFOCPolicy`, an LFOC-style fairness-clustering
  policy driven by per-tenant slowdowns (arXiv:2402.07578).

Neither reactive policy (Core-only, I/O-iso) ever touches the DDIO
mask; they re-read its width every interval so external changes (the
Fig. 10 script raises DDIO from two to four ways at t=15 s) are
respected.

Use :func:`create_policy(name, params)` to construct one from a plain
params dict (``Scenario.attach_controller`` and the ``repro compare``
harness do exactly this), and :func:`available_policies` to enumerate
the registry.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, fields as dataclass_fields, \
    replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..cache.cat import ways_to_mask
from ..obs.metrics import REGISTRY
from ..obs.tracer import current_tracer
from ..tenants.tenant import Priority, TenantSet
from .allocator import Layout, WayAllocator, plan_layout
from .fsm import INITIAL_STATE, State, next_state
from .monitor import (ChangeKind, ChangeReport, ProfMonitor, SlowdownTracker,
                      SystemSample, rel_change)
from .params import IATParams
from .shuffler import placement_order

if TYPE_CHECKING:
    from .daemon import ControllerDaemon


# ======================================================================
# The Policy protocol and registry
# ======================================================================

@dataclass(frozen=True)
class PolicyState:
    """State label for policies without a paper FSM.

    Duck-types :class:`~repro.core.fsm.State` where the daemon and the
    trace stream need a ``.value`` string.
    """

    value: str


@dataclass(frozen=True)
class Decision:
    """What a policy decided in one interval.

    The daemon folds this into the iteration log and Fig. 15 timing
    split: ``stable`` iterations polled and did nothing (cheap),
    unstable ones re-planned or re-programmed masks.
    """

    kind: ChangeKind
    action: str
    stable: bool


@runtime_checkable
class Policy(Protocol):
    """The decision layer of the controller plane.

    A policy never talks to the engine or programs masks directly: it
    observes through the monitor its :meth:`make_monitor` created,
    decides in :meth:`decide`, and actuates by planning a
    :class:`~repro.core.allocator.Layout` and handing it to
    ``self.daemon.apply_layout(...)``.
    """

    #: Registry name (set by :func:`register_policy`).
    policy_name: str
    #: Sleep interval the daemon runs this policy at.
    interval_s: float

    def bind(self, daemon: "ControllerDaemon") -> None: ...

    def make_monitor(self) -> "ProfMonitor | None": ...

    def on_init(self, now: float) -> None: ...

    def pre_observe(self, now: float) -> None: ...

    def decide(self, now: float,
               sample: "SystemSample | None") -> Decision: ...


class PolicyBase:
    """Shared plumbing for registered policies.

    Subclasses set ``params_cls`` when they accept an
    :class:`IATParams`-style dataclass; :meth:`from_params` then lets a
    flat dict address both constructor keywords and dataclass fields
    (``create_policy("iat", {"interval_s": 0.2, "shuffle": False})``).
    """

    policy_name = "?"
    summary = ""
    #: Optional params dataclass whose fields are accepted as flat keys
    #: in :meth:`from_params` and listed among the policy's tunables.
    params_cls: "type | None" = None
    interval_s = 1.0
    state: "State | PolicyState" = PolicyState("active")
    allocator: "WayAllocator | None" = None

    def bind(self, daemon: "ControllerDaemon") -> None:
        self.daemon = daemon
        self.control = daemon.control

    @classmethod
    def from_params(cls, params: "dict | None" = None) -> "PolicyBase":
        params = dict(params or {})
        pcls = cls.params_cls
        if pcls is not None:
            known = {f.name for f in dataclass_fields(pcls)}
            accepted = set(inspect.signature(cls.__init__).parameters)
            overrides = {key: params.pop(key) for key in list(params)
                         if key in known and key not in accepted}
            if overrides:
                base = params.get("params") or pcls()
                params["params"] = replace(base, **overrides)
        return cls(**params)

    def make_monitor(self) -> "ProfMonitor | None":
        """The daemon's monitor: a :class:`ProfMonitor` over every tenant
        when the policy takes ``params_cls`` (its thresholds tune the
        monitor), and no monitor otherwise."""
        if self.params_cls is None:
            return None
        control = self.control
        return ProfMonitor(control.pqos, control.tenants, self.params,
                           time_scale=control.time_scale)

    def on_init(self, now: float) -> None:
        """Plan and apply the initial allocation (tenants just changed)."""

    def pre_observe(self, now: float) -> None:
        """Observe out-of-band state before the monitor poll."""

    def decide(self, now: float, sample: "SystemSample | None") -> Decision:
        return Decision(ChangeKind.POLICY, "none", stable=True)


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry: the class plus presentation metadata."""

    name: str
    cls: type
    summary: str

    def tunables(self) -> "list[tuple[str, str]]":
        """(param, default) pairs a params dict may set — constructor
        keywords plus the fields of ``params_cls`` (if any)."""
        out: "list[tuple[str, str]]" = []
        sig = inspect.signature(self.cls.__init__)
        for pname, param in sig.parameters.items():
            if pname in ("self", "params") or param.kind in (
                    param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            default = ("required" if param.default is param.empty
                       else repr(param.default))
            out.append((pname, default))
        pcls = getattr(self.cls, "params_cls", None)
        if pcls is not None:
            seen = {name for name, _ in out}
            for field_ in dataclass_fields(pcls):
                if field_.name not in seen:
                    out.append((field_.name, repr(field_.default)))
        return out


_POLICIES: "dict[str, PolicyInfo]" = {}


def register_policy(name: str, summary: str):
    """Class decorator adding a policy to the registry under ``name``."""
    def wrap(cls: type) -> type:
        existing = _POLICIES.get(name)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"policy name {name!r} already registered by "
                f"{existing.cls.__qualname__}")
        cls.policy_name = name
        cls.summary = summary
        _POLICIES[name] = PolicyInfo(name=name, cls=cls, summary=summary)
        return cls
    return wrap


def available_policies() -> "list[PolicyInfo]":
    """Registry entries, sorted by name."""
    return [_POLICIES[name] for name in sorted(_POLICIES)]


def get_policy(name: str) -> PolicyInfo:
    """Look up one registry entry by name (KeyError lists the rest)."""
    try:
        return _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {name!r} (registered: {known})") \
            from None


def create_policy(name: str, params: "dict | None" = None):
    """Construct a registered policy from a plain params dict."""
    return get_policy(name).cls.from_params(params)


def group_floor(tenants: TenantSet, group: str) -> int:
    """The way count a group may never be shrunk below."""
    members = tenants.group_members(group)
    return max(max(1, t.initial_ways) for t in members)


# ======================================================================
# IAT: the paper's policy (Sec. IV), registry edition
# ======================================================================

@register_policy("iat", "The paper's I/O-aware FSM controller: DDIO way "
                        "sizing, tenant way grants, and way shuffling")
class IATPolicy(PolicyBase):
    """The paper's six-step decision logic behind the Policy protocol.

    Moved verbatim from the pre-refactor monolithic daemon; the
    equivalence suite pins the iteration history (and the pqos call and
    trace event order underneath it) field-for-field against goldens
    captured before the split.

    The feature flags reproduce the paper's ablations exactly:

    * ``manage_ddio=False`` — Sec. VI-B footnote 3 (the Latent Contender
      experiment isolates shuffling by freezing the DDIO way count);
    * ``manage_tenant_ways=False`` — Sec. VI-C ("temporarily disable
      IAT's functionality of assigning more/less LLC ways for tenants,
      but the ways ... will still be shuffled");
    * ``shuffle=False`` — no way shuffling: groups keep their
      registration order (the shuffling ablation).
    """

    params_cls = IATParams

    def __init__(self, params: "IATParams | None" = None, *,
                 manage_ddio: bool = True,
                 manage_tenant_ways: bool = True,
                 shuffle: bool = True) -> None:
        self.params = params or IATParams()
        self.manage_ddio = manage_ddio
        self.manage_tenant_ways = manage_tenant_ways
        self.shuffle = shuffle
        self.interval_s = self.params.interval_s
        self.state = INITIAL_STATE
        self.allocator: "WayAllocator | None" = None
        self._order: "list[str]" = []
        self._last_refs: "dict[str, int]" = {}
        self._growing: "set[str]" = set()

    # ------------------------------------------------------------------
    def on_init(self, now: float) -> None:
        control = self.control
        tenants = control.tenants
        self.allocator = WayAllocator.for_tenants(
            control.pqos.num_ways, self.params, tenants)
        if self.manage_ddio:
            # Boot in Low Keep: DDIO pinned at the minimum (Sec. IV-C).
            self.allocator.clamp_ddio_min()
        else:
            self.allocator.ddio_ways = control.pqos.ddio_way_count()
        self.state = INITIAL_STATE
        self._order = placement_order(tenants)
        self._growing = set()
        self._apply_layout()

    def pre_observe(self, now: float) -> None:
        if not self.manage_ddio:
            # Track externally controlled DDIO width (e.g. the Fig. 10
            # script widening DDIO mid-run) so overlap detection and
            # shuffling see the true mask.
            width = self.control.pqos.ddio_way_count()
            if width != self.allocator.ddio_ways:
                self.allocator.ddio_ways = width
                self._apply_layout()

    def decide(self, now: float, sample: SystemSample) -> Decision:
        control = self.control
        daemon = self.daemon
        overlap = (daemon.layout.overlap_tenants(control.tenants)
                   if daemon.layout else set())
        report = daemon.monitor.classify(
            sample, ddio_at_max=self.allocator.ddio_at_max,
            ddio_at_min=self.allocator.ddio_at_min, ddio_overlap=overlap)
        self._last_refs = {name: t.llc_references
                           for name, t in sample.tenants.items()}

        if report.kind in (ChangeKind.STABLE, ChangeKind.IPC_ONLY):
            return Decision(report.kind, "none", stable=True)

        if report.kind is ChangeKind.CORE_SIDE:
            action = self._core_side_action(report)
            self._apply_layout()
            return Decision(report.kind, action, stable=False)

        tracer = current_tracer()
        if report.kind is ChangeKind.SHUFFLE_FIRST and self.shuffle:
            # Special case 3: reshuffle before touching any way counts.
            self._order = placement_order(control.tenants, self._last_refs)
            if tracer.enabled:
                tracer.instant("shuffle", "order", reason="shuffle-first",
                               order=list(self._order))
            self._apply_layout()
            return Decision(report.kind, "shuffle", stable=False)

        old_state = self.state
        self.state = next_state(old_state, report.signals)
        if tracer.enabled:
            tracer.instant("fsm", "transition", src=old_state.value,
                           dst=self.state.value,
                           signals=asdict(report.signals))
        if REGISTRY.enabled:
            REGISTRY.counter(
                "repro_policy_transitions_total",
                "IAT FSM state transitions by (from, to) state").labels(
                **{"from": old_state.value,
                   "to": self.state.value}).inc()
        action = self._apply_state_action(report)
        grown = self._continue_growth_sessions(report)
        if grown:
            action = f"{action}; {grown}"
        if self.shuffle:
            self._order = placement_order(control.tenants, self._last_refs)
            if tracer.enabled:
                tracer.instant("shuffle", "order", reason="post-transition",
                               order=list(self._order))
        self._apply_layout()
        return Decision(ChangeKind.FSM, action, stable=False)

    # ------------------------------------------------------------------
    def _core_side_action(self, report: ChangeReport) -> str:
        """Special case 2 of Sec. IV-B: pure core-side demand, no I/O
        involvement — "other existing mechanisms can be called to
        allocate LLC ways for the tenant".  A dCAT-style
        grow-while-it-helps loop stands in for those mechanisms: a
        miss-rate jump starts a growth session; each grant continues as
        long as it keeps lowering the miss rate and the rate is still
        meaningful; a sustained low rate above the floor is reclaimed.
        """
        if not self.manage_tenant_ways or not report.tenant:
            return "delegate (frozen)"
        tenant = report.tenant
        group = self.control.tenants.by_name(tenant).group
        delta_pp = report.miss_rate_delta.get(tenant, 0.0)
        rate = report.miss_rate.get(tenant, 0.0)
        if delta_pp > 1.0 and rate > self.GROWTH_STOP_RATE:
            self._growing.add(tenant)
            if self.allocator.grow_group(group):
                return f"core-side +1 way {group}"
            return f"core-side {group} at cap"
        grown = self._continue_growth_sessions(report)
        if grown:
            return grown
        if delta_pp < -1.0 and rate < 0.05:
            if self.allocator.shrink_group(group,
                                           floor=self._group_floor(group)):
                return f"core-side -1 way {group}"
        return "delegate (no demand)"

    #: Miss rate below which a growth session stops granting ways.
    GROWTH_STOP_RATE = 0.15

    def _continue_growth_sessions(self, report: ChangeReport) -> str:
        """Keep granting to tenants in an active growth session while
        each grant keeps lowering their miss rate meaningfully."""
        if not self.manage_tenant_ways:
            return ""
        actions = []
        for tenant in sorted(self._growing):
            rate = report.miss_rate.get(tenant, 0.0)
            delta_pp = report.miss_rate_delta.get(tenant, 0.0)
            if rate > self.GROWTH_STOP_RATE and delta_pp < -0.5:
                group = self.control.tenants.by_name(tenant).group
                if self.allocator.grow_group(group):
                    actions.append(f"grow +1 {group}")
                    continue
            self._growing.discard(tenant)
        return ", ".join(actions)

    def _apply_state_action(self, report: ChangeReport) -> str:
        alloc = self.allocator
        state = self.state
        if state is State.LOW_KEEP:
            if self.manage_ddio and alloc.clamp_ddio_min():
                return "ddio -> min"
            return "keep"
        if state is State.HIGH_KEEP:
            return "keep(max)"
        if state is State.IO_DEMAND:
            if not self.manage_ddio:
                return "io-demand (ddio frozen)"
            # UCP-style sizing keys off how steeply the DDIO misses are
            # climbing (percent change expressed in points).
            step = alloc.increment_step(report.ddio_miss_delta * 100.0)
            if alloc.grow_ddio(step=step):
                return f"ddio +{step}"
            return "ddio at max"
        if state is State.CORE_DEMAND:
            if not self.manage_tenant_ways:
                return "core-demand (tenant ways frozen)"
            target = self._select_core_demand_tenant(report)
            if target is None:
                return "core-demand (no target)"
            delta_pp = report.miss_rate_delta.get(target, 0.0)
            if delta_pp <= 0.5:
                # Nobody's miss rate is actually rising: granting ways
                # would be noise-chasing (and would run a group to its
                # cap in a few intervals).
                return "core-demand (no rising demand)"
            group = self.control.tenants.by_name(target).group
            step = alloc.increment_step(delta_pp)
            if alloc.grow_group(group, step=step):
                return f"group +{step} {group}"
            return f"group at cap {group}"
        if state is State.RECLAIM:
            return self._reclaim(report)
        raise AssertionError(f"unhandled state {state!r}")

    def _select_core_demand_tenant(self, report: ChangeReport) -> "str | None":
        """Who gets the extra way in Core Demand (Sec. IV-D).

        Aggregation model: the software stack first — its Rx/Tx buffers
        gate every attached tenant.  Slicing model: the I/O tenant with
        the largest miss-rate increase (percentage points).
        """
        tenants = self.control.tenants
        stack = tenants.stack
        if stack is not None:
            return stack.name
        candidates = [t.name for t in tenants.io_tenants]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda name: report.miss_rate_delta.get(name, 0.0))

    def _group_floor(self, group: str) -> int:
        return group_floor(self.control.tenants, group)

    def _group_refs(self, group: str) -> int:
        members = self.control.tenants.group_members(group)
        return sum(self._last_refs.get(t.name, 0) for t in members)

    def _group_miss_rate(self, group: str, report: ChangeReport) -> float:
        members = self.control.tenants.group_members(group)
        return max((report.miss_rate.get(t.name, 0.0) for t in members),
                   default=0.0)

    def _reclaim(self, report: ChangeReport) -> str:
        """Reclaim one way from DDIO (preferred while above the minimum)
        or from a grown group whose allocation is "more than enough"
        (Sec. IV-C): low miss rate, smallest LLC reference count first.
        A grown group that is still missing hard keeps its ways — taking
        them back would just re-trigger Core Demand next interval."""
        alloc = self.allocator
        if self.manage_ddio and not alloc.ddio_at_min:
            alloc.shrink_ddio()
            return "ddio -1"
        if not self.manage_tenant_ways:
            return "reclaim (frozen)"
        grown = [group for group, ways in alloc.group_ways.items()
                 if ways > self._group_floor(group)
                 and self._group_miss_rate(group, report) < 0.10]
        if not grown:
            return "reclaim (nothing to reclaim)"
        victim = min(grown, key=self._group_refs)
        alloc.shrink_group(victim, floor=self._group_floor(victim))
        return f"group -1 {victim}"

    # ------------------------------------------------------------------
    def _trim_pc_for_isolation(self) -> None:
        """Keep non-I/O performance-critical groups small enough to fit
        below the DDIO ways ("the tenants running PC workloads should be
        isolated from LLC ways for DDIO as much as possible",
        Sec. IV-D).  Without this, a PC group grown to its cap would be
        forced into the DDIO region when the mask widens (Fig. 10/11's
        t=15 s script)."""
        if not self.manage_tenant_ways:
            return
        alloc = self.allocator
        limit = alloc.num_ways - alloc.ddio_ways
        if limit < 1:
            return
        tenants = self.control.tenants
        for group, ways in alloc.group_ways.items():
            members = tenants.group_members(group)
            pc_non_io = all(t.is_pc and not t.is_io for t in members)
            if pc_non_io and ways > limit:
                alloc.group_ways[group] = max(self._group_floor(group),
                                              limit)

    def _apply_layout(self) -> None:
        """Plan masks for the current order/counts and program them."""
        tenants = self.control.tenants
        self._trim_pc_for_isolation()
        if self.shuffle:
            order = self._order
        else:
            order = tenants.group_names()
        layout = self.allocator.layout(order)
        self.daemon.apply_layout(layout, set_ddio=self.manage_ddio)


def _initial_order(tenants: TenantSet,
                   shuffle_seed: "int | None") -> "list[str]":
    order = tenants.group_names()
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        order = [order[i] for i in rng.permutation(len(order))]
    return order


# ======================================================================
# The Sec. VI-B comparison policies: static, Core-only and I/O-iso
# ======================================================================

@register_policy("static", "One-shot static allocation at start-up "
                           "(the paper's baseline)")
class StaticPolicy(PolicyBase):
    """Fixed allocation applied once at start-up (the paper's baseline).

    With ``shuffle_seed`` set, the placement follows the paper's
    Sec. VI-C protocol: I/O groups (the networking containers and the
    software stack) are packed at the bottom ways, away from DDIO, while
    the non-networking groups are placed in a random order with the idle
    ways scattered randomly between them — so, across seeds, a
    cache-hungry container sometimes lands on the DDIO ways (the wide
    baseline whiskers of Figs. 12-14) and sometimes does not.
    """

    def __init__(self, *, explicit_masks: "dict[str, int] | None" = None,
                 shuffle_seed: "int | None" = None) -> None:
        self.explicit_masks = explicit_masks
        self.shuffle_seed = shuffle_seed
        self.interval_s = 1e9  # effectively never re-invoked

    def _group_counts(self, groups: "list[str]") -> "list[tuple[str, int]]":
        tenants = self.control.tenants
        return [(g, group_floor(tenants, g)) for g in groups]

    def _random_layout(self, ddio_ways: int) -> Layout:
        tenants = self.control.tenants
        num_ways = self.control.pqos.num_ways
        rng = np.random.default_rng(self.shuffle_seed)
        io_groups = [g for g in tenants.group_names()
                     if any(t.is_io or t.is_stack
                            for t in tenants.group_members(g))]
        other = [g for g in tenants.group_names() if g not in io_groups]
        other = [other[i] for i in rng.permutation(len(other))]
        counts = self._group_counts(io_groups + other)
        total = sum(c for _, c in counts)
        free = max(0, num_ways - total)
        # Scatter the idle ways as gaps between the non-I/O groups.
        gaps = (rng.multinomial(free, [1.0 / (len(other) + 1)]
                                * (len(other) + 1))
                if free and other else [0] * (len(other) + 1))
        masks: "dict[str, int]" = {}
        cursor = 0
        gap_idx = 0
        for group, count in counts:
            if group in other:
                cursor += int(gaps[gap_idx])
                gap_idx += 1
            start = min(cursor, num_ways - count)
            masks[group] = ((1 << count) - 1) << start
            cursor = start + count
        return Layout(group_masks=masks,
                      ddio_mask=ways_to_mask(num_ways - ddio_ways,
                                             ddio_ways))

    def on_init(self, now: float) -> None:
        control = self.control
        tenants = control.tenants
        ddio_ways = control.pqos.ddio_way_count()
        if self.explicit_masks is not None:
            layout = Layout(group_masks=dict(self.explicit_masks),
                            ddio_mask=control.pqos.ddio_get_mask())
        elif self.shuffle_seed is not None:
            layout = self._random_layout(ddio_ways)
        else:
            counts = self._group_counts(tenants.group_names())
            layout = plan_layout(control.pqos.num_ways, ddio_ways, counts)
        self.daemon.apply_layout(layout, set_ddio=False)


class ReactivePolicy(PolicyBase):
    """Miss-rate driven, I/O-unaware dynamic allocation (dCAT-like).

    Reads each tenant's LLC references and miss rate from the daemon's
    monitor sample.  ``io_isolated`` is the only difference between the
    two registered variants, :class:`CoreOnlyPolicy` and
    :class:`IOIsoPolicy`.
    """

    params_cls = IATParams
    #: Exclude the DDIO ways from the core pool (I/O-iso) or not.
    io_isolated = False
    #: Miss-rate jump (percentage points) that triggers a way grant.
    GROW_THRESHOLD_PP = 2.0
    #: Relative LLC-reference drop that triggers a reclaim.
    RECLAIM_THRESHOLD = 0.30

    def __init__(self, params: "IATParams | None" = None, *,
                 shuffle_seed: "int | None" = None) -> None:
        self.params = params or IATParams()
        self.shuffle_seed = shuffle_seed
        self.interval_s = self.params.interval_s
        self.allocator: "WayAllocator | None" = None
        self._order: "list[str]" = []
        self._prev_miss_rate: "dict[str, float]" = {}
        self._peak_refs: "dict[str, int]" = {}
        self._growing: "set[str]" = set()

    # ------------------------------------------------------------------
    def on_init(self, now: float) -> None:
        control = self.control
        tenants = control.tenants
        self.allocator = WayAllocator.for_tenants(
            control.pqos.num_ways, self.params, tenants)
        self.allocator.ddio_ways = control.pqos.ddio_way_count()
        self._order = _initial_order(tenants, self.shuffle_seed)
        self._prev_miss_rate = {}
        self._peak_refs = {}
        self._growing = set()
        self._apply()

    def decide(self, now: float, sample: SystemSample) -> Decision:
        control = self.control
        grow_best: "tuple[float, str] | None" = None
        refs_now: "dict[str, int]" = {}
        rate_now: "dict[str, float]" = {}
        for tenant in control.tenants:
            result = sample.tenants[tenant.name]
            group = tenant.group
            refs_now[group] = refs_now.get(group, 0) + result.llc_references
            rate_now[group] = max(rate_now.get(group, 0.0), result.miss_rate)
        for group, rate in rate_now.items():
            delta_pp = (rate - self._prev_miss_rate.get(group, rate)) * 100.0
            if delta_pp > self.GROW_THRESHOLD_PP:
                self._growing.add(group)
                if grow_best is None or delta_pp > grow_best[0]:
                    grow_best = (delta_pp, group)
            elif group in self._growing:
                # Keep granting while the last way kept helping (the
                # dCAT-style grow-while-beneficial loop).
                if rate > 0.10 and delta_pp < -0.5:
                    if grow_best is None:
                        grow_best = (delta_pp, group)
                else:
                    self._growing.discard(group)
        changed = False
        if grow_best is not None:
            changed |= self._grow_into_pool(grow_best[1], refs_now)
        else:
            changed |= self._maybe_reclaim(refs_now)
        # Track the externally controlled DDIO width every interval.
        ddio_ways = control.pqos.ddio_way_count()
        if ddio_ways != self.allocator.ddio_ways:
            self.allocator.ddio_ways = ddio_ways
            changed = True
        if changed:
            self._apply()
        self._prev_miss_rate = rate_now
        return Decision(ChangeKind.POLICY,
                        "rebalance" if changed else "none",
                        stable=not changed)

    def _grow_into_pool(self, group: str,
                        refs_now: "dict[str, int]") -> bool:
        """Grant one way from the *idle* pool only.

        Core-only considers every way a core may use — including, since
        it is I/O-unaware, the DDIO ways (the Latent Contender problem).
        I/O-iso excludes the DDIO ways; when its pool is exhausted it
        first takes a way back from a best-effort group ("it has to
        reduce the ways for BE container 2 and 3 to make room").
        """
        alloc = self.allocator
        tenants = self.control.tenants
        limit = alloc.num_ways
        if self.io_isolated:
            limit -= alloc.ddio_ways
        used = sum(alloc.group_ways.values())
        if used >= limit:
            if not self.io_isolated:
                return False  # no idle ways; Core-only never confiscates
            donors = [g for g in alloc.group_ways
                      if g != group
                      and tenants.group_priority(g) is Priority.BE
                      and alloc.group_ways[g] > 1]
            if not donors:
                return False
            victim = min(donors, key=lambda g: refs_now.get(g, 0))
            alloc.group_ways[victim] -= 1
        if alloc.grow_group(group):
            self._peak_refs[group] = refs_now.get(group, 0)
            return True
        return False

    def _maybe_reclaim(self, refs_now: "dict[str, int]") -> bool:
        tenants = self.control.tenants
        for group, ways in self.allocator.group_ways.items():
            floor = group_floor(tenants, group)
            if ways <= floor:
                continue
            peak = self._peak_refs.get(group, 0)
            if peak and rel_change(refs_now.get(group, 0), peak) \
                    < -self.RECLAIM_THRESHOLD:
                return self.allocator.shrink_group(group, floor=floor)
        return False

    def _fit_to_pool(self) -> None:
        """I/O-iso repartitioning: the core pool excludes the DDIO ways,
        and partitions stay *disjoint*, so when demand exceeds the pool
        other tenants must give ways up — best-effort groups first, then
        performance-critical ones ("it has to reduce the ways for BE
        container 2 and 3 to make room for the PC containers"; after
        DDIO widens, "the PC containers have to share" a smaller pool).
        """
        alloc = self.allocator
        limit = alloc.num_ways - alloc.ddio_ways
        tenants = self.control.tenants

        def shrink_candidates():
            # BE groups yield first; PC groups only as a last resort
            # (the paper's phase-3 I/O-iso: once DDIO takes more ways,
            # even the PC containers are squeezed down to 1-3 ways).
            be = [g for g in alloc.group_ways
                  if tenants.group_priority(g) is Priority.BE]
            pc = [g for g in alloc.group_ways
                  if tenants.group_priority(g) is not Priority.BE]
            be.sort(key=lambda g: -alloc.group_ways[g])
            pc.sort(key=lambda g: -alloc.group_ways[g])
            return be + pc

        guard = 0
        while sum(alloc.group_ways.values()) > limit and guard < 64:
            guard += 1
            took = False
            for group in shrink_candidates():
                if alloc.group_ways[group] > 1:
                    alloc.group_ways[group] -= 1
                    took = True
                    break
            if not took:
                break  # everyone is at one way already

    def _apply(self) -> None:
        if self.io_isolated:
            self._fit_to_pool()
        layout = self.allocator.layout(self._order,
                                       io_isolated=self.io_isolated)
        self.daemon.apply_layout(layout, set_ddio=False)


@register_policy("core-only", "Reactive miss-driven way allocation, "
                              "I/O-unaware (dCAT-like)")
class CoreOnlyPolicy(ReactivePolicy):
    """Dynamic allocation ignoring DDIO entirely (Sec. VI-B footnote 4)."""

    io_isolated = False


@register_policy("io-iso", "Reactive allocation with the DDIO ways "
                           "excluded from the core pool")
class IOIsoPolicy(ReactivePolicy):
    """Core-only with the DDIO ways excluded from the core pool."""

    io_isolated = True


# ======================================================================
# IOCA-style I/O-aware manager (arXiv:2007.04552)
# ======================================================================

@register_policy("ioca", "IOCA-style I/O-aware manager: sizes the DDIO "
                         "partition from DDIO/PCIe pressure")
class IOCAPolicy(PolicyBase):
    """An IOCA-flavoured controller: watch inline-DMA (DDIO/PCIe)
    pressure directly and size the I/O partition from it.

    Where IAT runs a five-state FSM over counter *deltas*, IOCA keys on
    the pressure level itself: per interval it reads the chip-wide DDIO
    hit+miss count (a proxy for PCIe write traffic into the LLC) and
    the DDIO miss *ratio*.  Sustained pressure with a high miss ratio
    grows the I/O partition; low pressure or a low miss ratio shrinks
    it back so cores reclaim the space.  Core-side demand is served by
    a simple miss-jump grant (one way to the group whose miss rate rose
    the most), and I/O groups are packed at the bottom ways away from
    DDIO — the paper's placement hygiene, applied statically.
    """

    params_cls = IATParams

    def __init__(self, params: "IATParams | None" = None, *,
                 pressure_per_s: float = 1e6,
                 miss_ratio_high: float = 0.20,
                 miss_ratio_low: float = 0.05,
                 grow_threshold_pp: float = 2.0) -> None:
        self.params = params or IATParams()
        self.pressure_per_s = pressure_per_s
        self.miss_ratio_high = miss_ratio_high
        self.miss_ratio_low = miss_ratio_low
        self.grow_threshold_pp = grow_threshold_pp
        self.interval_s = self.params.interval_s
        self.state = PolicyState("watch")
        self.allocator: "WayAllocator | None" = None
        self._order: "list[str]" = []
        self._prev_group_rate: "dict[str, float]" = {}

    def on_init(self, now: float) -> None:
        control = self.control
        tenants = control.tenants
        self.allocator = WayAllocator.for_tenants(
            control.pqos.num_ways, self.params, tenants)
        self.allocator.clamp_ddio_min()
        self.state = PolicyState("watch")
        io_groups = [g for g in tenants.group_names()
                     if any(t.is_io or t.is_stack
                            for t in tenants.group_members(g))]
        self._order = io_groups + [g for g in tenants.group_names()
                                   if g not in io_groups]
        self._prev_group_rate = {}
        self._apply()

    def _pressure_floor(self) -> float:
        """PCIe-writes-per-interval count that counts as real pressure
        (rate scaled the same way as ``IATParams.miss_low_per_interval``)."""
        return (self.pressure_per_s * self.control.time_scale
                * self.interval_s)

    def decide(self, now: float, sample: SystemSample) -> Decision:
        alloc = self.allocator
        total = sample.ddio_hits + sample.ddio_misses
        pressured = total >= self._pressure_floor()
        miss_ratio = (sample.ddio_misses / total) if total else 0.0
        changed = False
        actions: "list[str]" = []

        if pressured and miss_ratio > self.miss_ratio_high:
            self.state = PolicyState("pressure")
            if alloc.grow_ddio():
                changed = True
                actions.append("ddio +1")
            else:
                actions.append("ddio at max")
        elif (not pressured or miss_ratio < self.miss_ratio_low) \
                and not alloc.ddio_at_min:
            self.state = PolicyState("quiet")
            if alloc.shrink_ddio():
                changed = True
                actions.append("ddio -1")
        else:
            self.state = PolicyState("watch")

        rate_now: "dict[str, float]" = {}
        for tenant in self.control.tenants:
            t_sample = sample.tenants.get(tenant.name)
            if t_sample is None:
                continue
            group = tenant.group
            rate_now[group] = max(rate_now.get(group, 0.0),
                                  t_sample.miss_rate)
        best: "tuple[float, str] | None" = None
        for group in sorted(rate_now):
            delta_pp = (rate_now[group]
                        - self._prev_group_rate.get(group,
                                                    rate_now[group])) * 100.0
            if delta_pp > self.grow_threshold_pp and (
                    best is None or delta_pp > best[0]):
                best = (delta_pp, group)
        if best is not None and alloc.grow_group(best[1]):
            changed = True
            actions.append(f"group +1 {best[1]}")
        self._prev_group_rate = rate_now

        if changed:
            self._apply()
        return Decision(ChangeKind.POLICY, "; ".join(actions) or "hold",
                        stable=not changed)

    def _apply(self) -> None:
        layout = self.allocator.layout(self._order)
        self.daemon.apply_layout(layout, set_ddio=True)


# ======================================================================
# LFOC-style fairness clustering (arXiv:2402.07578)
# ======================================================================

@register_policy("lfoc", "LFOC-style fairness clustering: equalizes "
                         "per-tenant slowdowns by moving ways between "
                         "groups")
class LFOCPolicy(PolicyBase):
    """An LFOC-flavoured fairness controller.

    LFOC clusters workloads by how much cache actually helps them and
    partitions the LLC to minimize *unfairness* — the spread of
    per-workload slowdowns.  This policy reproduces that shape online:
    a :class:`~repro.core.monitor.SlowdownTracker` estimates each
    tenant's slowdown (best-observed IPC over current IPC), groups
    whose members stream through the cache (miss rate above
    ``streaming_miss_rate``) are classified as squanderers that extra
    ways cannot help, and whenever the max/min slowdown ratio exceeds
    ``unfairness_threshold`` one way moves from the least-slowed donor
    (squanderers first) to the most-slowed non-streaming group.  The
    DDIO partition is never touched — fairness clustering is a
    core-side discipline; the externally programmed width is re-read
    every interval like the reactive policies do.
    """

    params_cls = IATParams

    def __init__(self, params: "IATParams | None" = None, *,
                 unfairness_threshold: float = 1.15,
                 streaming_miss_rate: float = 0.50) -> None:
        self.params = params or IATParams()
        self.unfairness_threshold = unfairness_threshold
        self.streaming_miss_rate = streaming_miss_rate
        self.interval_s = self.params.interval_s
        self.state = PolicyState("balanced")
        self.allocator: "WayAllocator | None" = None
        self.tracker = SlowdownTracker()
        self._order: "list[str]" = []

    def on_init(self, now: float) -> None:
        control = self.control
        tenants = control.tenants
        self.allocator = WayAllocator.for_tenants(
            control.pqos.num_ways, self.params, tenants)
        self.allocator.ddio_ways = control.pqos.ddio_way_count()
        self.state = PolicyState("balanced")
        self.tracker = SlowdownTracker()
        self._order = tenants.group_names()
        self._apply()

    def pre_observe(self, now: float) -> None:
        width = self.control.pqos.ddio_way_count()
        if width != self.allocator.ddio_ways:
            self.allocator.ddio_ways = width
            self._apply()

    def decide(self, now: float, sample: SystemSample) -> Decision:
        slowdowns = self.tracker.update(
            {name: t.ipc for name, t in sample.tenants.items()})
        tenants = self.control.tenants
        alloc = self.allocator
        group_slow: "dict[str, float]" = {}
        group_streams: "dict[str, bool]" = {}
        for tenant in tenants:
            group = tenant.group
            group_slow[group] = max(group_slow.get(group, 1.0),
                                    slowdowns.get(tenant.name, 1.0))
            t_sample = sample.tenants.get(tenant.name)
            miss_rate = t_sample.miss_rate if t_sample else 0.0
            group_streams[group] = (group_streams.get(group, True)
                                    and miss_rate > self.streaming_miss_rate)

        unfairness = self.tracker.unfairness()
        if unfairness <= self.unfairness_threshold:
            self.state = PolicyState("balanced")
            return Decision(ChangeKind.POLICY,
                            f"balanced (unfairness {unfairness:.2f})",
                            stable=True)

        cap = min(self.params.tenant_ways_max, alloc.num_ways - 1)
        receiver = None
        for group in sorted(group_slow, key=lambda g: -group_slow[g]):
            if group_streams.get(group):
                continue  # squanderer: more cache will not help it
            if alloc.group_ways.get(group, 0) < cap:
                receiver = group
                break
        donors = [g for g in sorted(group_slow)
                  if g != receiver
                  and alloc.group_ways.get(g, 0) > group_floor(tenants, g)]
        # Squanderers donate first; among peers, the least-slowed does.
        donors.sort(key=lambda g: (not group_streams.get(g, False),
                                   group_slow[g]))
        if receiver is None or not donors:
            self.state = PolicyState("saturated")
            return Decision(ChangeKind.POLICY,
                            f"no move (unfairness {unfairness:.2f})",
                            stable=True)

        donor = donors[0]
        alloc.group_ways[donor] -= 1
        alloc.group_ways[receiver] += 1
        self.state = PolicyState("rebalance")
        self._apply()
        return Decision(
            ChangeKind.POLICY,
            f"way {donor} -> {receiver} (unfairness {unfairness:.2f})",
            stable=False)

    def _apply(self) -> None:
        layout = self.allocator.layout(self._order)
        self.daemon.apply_layout(layout, set_ddio=False)
