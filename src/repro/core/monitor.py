"""Poll Prof Data: counter polling, deltas, and change classification.

Implements paper Sec. IV-B.  Each interval the monitor polls

* per-tenant IPC and LLC reference/miss (aggregated over the tenant's
  cores via one pqos monitoring group per tenant), and
* chip-wide DDIO hit/miss.

It then compares against the previous interval.  If no event moved by
more than ``THRESHOLD_STABLE`` the system is *stable* and the daemon
sleeps.  Otherwise the change is classified (the three special cases of
Sec. IV-B) before the FSM runs:

1. IPC-only change — neither cache/memory nor I/O related: ignore.
2. A non-I/O tenant with **no** DDIO overlap changed (LLC ref/miss
   moved, DDIO counters did not): core-side demand, delegate to the
   core-only fallback.
3. A non-I/O tenant **with** DDIO overlap changed along with DDIO
   counters: try re-shuffling the way layout first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..perf.pqos import PqosLib
from ..tenants.tenant import TenantSet
from .fsm import Signals
from .params import IATParams

_EPS = 1e-9


def rel_change(current: float, previous: float) -> float:
    """Signed relative change, safe at zero."""
    if abs(previous) < _EPS:
        return 0.0 if abs(current) < _EPS else 1.0
    return (current - previous) / abs(previous)


@dataclass
class TenantSample:
    """One tenant's deltas for one interval."""

    name: str
    ipc: float
    llc_references: int
    llc_misses: int

    @property
    def miss_rate(self) -> float:
        if self.llc_references == 0:
            return 0.0
        return self.llc_misses / self.llc_references


@dataclass
class SystemSample:
    """Everything the daemon sees in one Poll Prof Data step."""

    tenants: "dict[str, TenantSample]"
    ddio_hits: int
    ddio_misses: int

    @property
    def total_llc_references(self) -> int:
        return sum(t.llc_references for t in self.tenants.values())


class ChangeKind(enum.Enum):
    """Outcome of the stability check and special-case filters."""

    STABLE = "stable"
    IPC_ONLY = "ipc-only"
    CORE_SIDE = "core-side"          # special case 2: delegate
    SHUFFLE_FIRST = "shuffle-first"  # special case 3: reshuffle layout
    FSM = "fsm"                      # run the state machine
    POLICY = "policy"                # non-IAT policy made the decision


@dataclass
class ChangeReport:
    """Classification plus the FSM signals derived from the deltas."""

    kind: ChangeKind
    signals: Signals
    #: Tenant named by special cases 2/3 (the one whose change triggered).
    tenant: "str | None" = None
    #: Per-tenant miss-rate delta (percentage points) for tenant selection
    #: in the Core Demand action (slicing model, Sec. IV-D).
    miss_rate_delta: "dict[str, float]" = field(default_factory=dict)
    #: Per-tenant absolute miss rate this interval (for the core-side
    #: grow-while-it-helps fallback).
    miss_rate: "dict[str, float]" = field(default_factory=dict)
    #: Relative change of the chip-wide DDIO miss count vs the previous
    #: interval (feeds the UCP-style increment sizing in I/O Demand).
    ddio_miss_delta: float = 0.0


class ProfMonitor:
    """Owns the pqos monitoring groups and the previous-interval state."""

    def __init__(self, pqos: PqosLib, tenants: TenantSet,
                 params: IATParams, *, time_scale: float = 1.0) -> None:
        self._pqos = pqos
        self._params = params
        self._miss_low = params.miss_low_per_interval(time_scale)
        self._tenants = tenants
        self._prev: "SystemSample | None" = None
        self._prev_miss_rate: "dict[str, float]" = {}
        self._groups: "list[str]" = []
        for tenant in tenants:
            group = f"iat.{tenant.name}"
            pqos.mon_start(group, tenant.cores)
            self._groups.append(group)

    def close(self) -> None:
        for group in self._groups:
            self._pqos.mon_stop(group)
        self._groups.clear()

    # ------------------------------------------------------------------
    def poll(self) -> SystemSample:
        """One Poll Prof Data step: fresh per-interval deltas."""
        tenants: "dict[str, TenantSample]" = {}
        for tenant in self._tenants:
            result = self._pqos.mon_poll(f"iat.{tenant.name}")
            tenants[tenant.name] = TenantSample(
                name=tenant.name, ipc=result.ipc,
                llc_references=result.llc_references,
                llc_misses=result.llc_misses)
        hits, misses = self._pqos.ddio_poll()
        return SystemSample(tenants=tenants, ddio_hits=hits,
                            ddio_misses=misses)

    # ------------------------------------------------------------------
    def classify(self, sample: SystemSample, *, ddio_at_max: bool,
                 ddio_at_min: bool,
                 ddio_overlap: "set[str]") -> ChangeReport:
        """Stability check, special cases, and FSM signal derivation.

        ``ddio_overlap`` names the tenants whose masks currently overlap
        the DDIO ways (needed for special cases 2 vs. 3).
        """
        prev = self._prev
        params = self._params
        signals = self._signals(sample, prev, ddio_at_max=ddio_at_max,
                                ddio_at_min=ddio_at_min)
        miss_rate_delta = {
            name: (t.miss_rate - self._prev_miss_rate.get(name, t.miss_rate))
            * 100.0
            for name, t in sample.tenants.items()}
        report = ChangeReport(kind=ChangeKind.FSM, signals=signals,
                              miss_rate_delta=miss_rate_delta,
                              miss_rate={name: t.miss_rate
                                         for name, t in sample.tenants.items()},
                              ddio_miss_delta=(rel_change(sample.ddio_misses,
                                                          prev.ddio_misses)
                                               if prev else 0.0))
        if prev is None:
            self._remember(sample)
            return report

        threshold = params.threshold_stable
        # The two DDIO counters mean different things: misses are the
        # I/O-pressure signal (write allocates evicting the LLC), while
        # the hit count simply tracks the consumption rate — it falls
        # *because* a consumer slowed down.  Core-side classification
        # therefore keys on the miss counter alone; a hit swing with
        # quiet misses is a symptom of core-side change, not I/O change
        # (this is what lets Fig. 9's flow-table growth be detected as
        # Core Demand even though 64 B traffic produces ~no misses).
        miss_changed = abs(rel_change(sample.ddio_misses,
                                      prev.ddio_misses)) > threshold
        hit_changed = abs(rel_change(sample.ddio_hits,
                                     prev.ddio_hits)) > threshold
        ddio_changed = miss_changed or hit_changed
        changed_tenants: "list[str]" = []
        llc_changed_tenants: "list[str]" = []
        for name, cur in sample.tenants.items():
            before = prev.tenants.get(name)
            if before is None:
                continue
            ipc_moved = abs(rel_change(cur.ipc, before.ipc)) > threshold
            llc_moved = (
                abs(rel_change(cur.llc_references, before.llc_references)) > threshold
                or abs(rel_change(cur.llc_misses, before.llc_misses)) > threshold)
            if ipc_moved or llc_moved:
                changed_tenants.append(name)
            if llc_moved:
                llc_changed_tenants.append(name)

        def most_changed(names: "list[str]") -> str:
            return max(names,
                       key=lambda n: abs(miss_rate_delta.get(n, 0.0)))

        if not changed_tenants and not ddio_changed:
            report.kind = ChangeKind.STABLE
        elif changed_tenants and not llc_changed_tenants and not ddio_changed:
            report.kind = ChangeKind.IPC_ONLY          # special case 1
        elif llc_changed_tenants and not miss_changed:
            core_side = self._core_side_candidates(llc_changed_tenants)
            if core_side:
                # Special case 2, with two documented generalizations
                # (DESIGN.md): it also covers the software stack (whose
                # flow-table demand is core-side, Fig. 9) and tenants
                # that happen to overlap DDIO while the miss counter
                # stayed quiet.
                report.kind = ChangeKind.CORE_SIDE
                report.tenant = most_changed(core_side)
        elif llc_changed_tenants and miss_changed:
            non_io = [n for n in self._non_io(llc_changed_tenants)
                      if n in ddio_overlap]
            io_changed = any(n not in non_io for n in llc_changed_tenants)
            if non_io and not io_changed:
                report.kind = ChangeKind.SHUFFLE_FIRST  # special case 3
                report.tenant = most_changed(non_io)
        self._remember(sample)
        return report

    # ------------------------------------------------------------------
    def _signals(self, sample: SystemSample, prev: "SystemSample | None", *,
                 ddio_at_max: bool, ddio_at_min: bool) -> Signals:
        # Direction predicates carry a 2x noise margin on top of
        # THRESHOLD_STABLE: at steady line rate the per-interval DDIO
        # counts jitter by a few percent (pool-cycling beat patterns,
        # Zipf randomness), and a hit_down/miss_up signal must mean a
        # real trend, not that jitter — otherwise the FSM walks into
        # Core Demand on noise.
        threshold = 2.0 * self._params.threshold_stable
        if prev is None:
            return Signals(miss_high=sample.ddio_misses > self._miss_low,
                           at_max_ways=ddio_at_max, at_min_ways=ddio_at_min)
        miss_delta = rel_change(sample.ddio_misses, prev.ddio_misses)
        hit_delta = rel_change(sample.ddio_hits, prev.ddio_hits)
        ref_delta = rel_change(sample.total_llc_references,
                               prev.total_llc_references)
        return Signals(
            miss_high=sample.ddio_misses > self._miss_low,
            miss_up=miss_delta > threshold,
            miss_down=miss_delta < -threshold,
            hit_up=hit_delta > threshold,
            hit_down=hit_delta < -threshold,
            llc_ref_up=ref_delta > threshold,
            at_max_ways=ddio_at_max,
            at_min_ways=ddio_at_min)

    def _non_io(self, names: "list[str]") -> "list[str]":
        out = []
        for name in names:
            tenant = self._tenants.by_name(name)
            if not tenant.is_io and not tenant.is_stack:
                out.append(name)
        return out

    def _core_side_candidates(self, names: "list[str]") -> "list[str]":
        """Tenants whose LLC change can mean core-side demand: non-I/O
        tenants plus the software stack (its lookup tables are core
        data even though it fronts the I/O)."""
        out = []
        for name in names:
            tenant = self._tenants.by_name(name)
            if tenant.is_stack or not tenant.is_io:
                out.append(name)
        return out

    def _remember(self, sample: SystemSample) -> None:
        self._prev = sample
        self._prev_miss_rate = {name: t.miss_rate
                                for name, t in sample.tenants.items()}


# ----------------------------------------------------------------------
# Fairness: per-tenant slowdown estimation (LFOC-style, arXiv:2402.07578)
# ----------------------------------------------------------------------

def jain_fairness(values) -> float:
    """Jain's fairness index over a set of positive values.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when all values are equal,
    approaching ``1/n`` when one value dominates.  Zero/negative values
    are excluded (an idle tenant carries no fairness information)."""
    vals = [float(v) for v in values if v > 0.0]
    if not vals:
        return 1.0
    total = sum(vals)
    squares = sum(v * v for v in vals)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(vals) * squares)


#: Cap on a single tenant's estimated slowdown: an idle tenant's IPC can
#: approach zero, and an unbounded ratio would swamp the fairness index.
SLOWDOWN_CAP = 100.0


class SlowdownTracker:
    """Per-tenant slowdown estimate for fairness-oriented policies.

    True slowdown compares against each tenant running *alone*; like
    LFOC's online approximation we use the best IPC observed so far as
    the alone-run proxy, so ``slowdown = peak_ipc / current_ipc >= 1``
    once a tenant has shown its best.  The estimate sharpens over time
    and is deliberately conservative early on (everyone starts at 1.0).
    """

    def __init__(self) -> None:
        self._peak: "dict[str, float]" = {}
        self.slowdowns: "dict[str, float]" = {}

    def update(self, ipc_by_name: "dict[str, float]") -> "dict[str, float]":
        """Fold one interval's IPC readings; return current slowdowns."""
        slowdowns: "dict[str, float]" = {}
        for name in sorted(ipc_by_name):
            ipc = float(ipc_by_name[name])
            peak = self._peak.get(name, 0.0)
            if ipc > peak:
                peak = ipc
                self._peak[name] = ipc
            if peak <= 0.0:
                slowdowns[name] = 1.0
            elif ipc <= peak / SLOWDOWN_CAP:
                slowdowns[name] = SLOWDOWN_CAP
            else:
                slowdowns[name] = peak / ipc
        self.slowdowns = slowdowns
        return slowdowns

    def fairness_index(self) -> float:
        """Jain index over the current slowdowns (1.0 = perfectly fair)."""
        return jain_fairness(self.slowdowns.values())

    def unfairness(self) -> float:
        """LFOC's M1-style metric: max slowdown over min slowdown."""
        if not self.slowdowns:
            return 1.0
        vals = list(self.slowdowns.values())
        return max(vals) / max(min(vals), 1e-9)
