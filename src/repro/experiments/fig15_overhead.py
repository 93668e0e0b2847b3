"""Fig. 15: IAT daemon per-iteration execution time vs tenant count.

Paper Sec. VI-D: the daemon runs on a dedicated core while 1-16 tenants
(one core each) or 1-8 tenants (two cores each) are registered; the
mean iteration time is reported for *Stable* iterations (Poll Prof Data
only) and *Unstable* ones (poll + State Transition + LLC Re-alloc).

We report the modelled cost (MSR reads at ~1 us each plus per-group
overhead — comparable to the paper's absolute numbers, which are
dominated by ring-0 context switches) and also record the Python
wall-clock time.  No workload simulation is needed: stable iterations
poll unchanging counters; unstable ones are forced by perturbing the
counters between polls.

Expected shape: poll dominates; cost grows with core count but
sub-linearly (fewer tenants for the same cores poll faster); unstable
adds only a handful of register writes; everything stays well under a
millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from ..exec import ParallelRunner, SweepSpec, run_sweep
from ..sim.config import PlatformSpec, XEON_6140
from ..sim.platform import Platform
from ..tenants.tenant import Priority, Tenant, TenantSet

DEFAULT_ONE_CORE_COUNTS = (1, 2, 4, 8, 16)
DEFAULT_TWO_CORE_COUNTS = (1, 2, 4, 8)


@dataclass
class Fig15Point:
    tenants: int
    cores_per_tenant: int
    stable_us: float
    unstable_us: float
    stable_wall_us: float
    unstable_wall_us: float


@dataclass
class Fig15Result:
    points: "list[Fig15Point]" = field(default_factory=list)

    def point(self, tenants: int, cores_per_tenant: int) -> Fig15Point:
        for p in self.points:
            if p.tenants == tenants and p.cores_per_tenant == cores_per_tenant:
                return p
        raise KeyError((tenants, cores_per_tenant))

    def max_cost_us(self) -> float:
        return max(max(p.stable_us, p.unstable_us) for p in self.points)


def _build(n_tenants: int, cores_per_tenant: int):
    cores_needed = n_tenants * cores_per_tenant
    spec = PlatformSpec(name="overhead", cores=max(cores_needed, 1),
                        llc=XEON_6140.llc)
    platform = Platform(spec)
    tenants = []
    for i in range(n_tenants):
        cores = tuple(range(i * cores_per_tenant,
                            (i + 1) * cores_per_tenant))
        tenant = Tenant(f"t{i}", cores=cores,
                        priority=Priority.BE if i % 2 else Priority.PC,
                        is_io=(i == 0), initial_ways=1)
        tenant.cos_id = i + 1
        for core in cores:
            platform.cat.associate(core, tenant.cos_id)
        tenants.append(tenant)
    control = ControlPlane(platform.pqos, TenantSet(tenants),
                           time_scale=1.0)
    return platform, control


def _perturb(platform: Platform, iteration: int) -> None:
    """Poke counters so the next poll looks unstable (drives the FSM)."""
    grow = 1_000_000 * (iteration + 2)
    for block in platform.counters.cores:
        block.credit(instructions=grow, cycles=grow,
                     llc_references=grow // 2, llc_misses=grow // 8)
    for slice_id in range(platform.spec.llc.slices):
        platform.uncore.hits[slice_id] += grow // 4
        platform.uncore.misses[slice_id] += grow // 2


def run_one(n_tenants: int, cores_per_tenant: int, *,
            iterations: int = 50) -> Fig15Point:
    platform, control = _build(n_tenants, cores_per_tenant)
    params = IATParams(ddio_ways_max=min(6, platform.spec.llc.ways - 1))
    daemon = ControllerDaemon(control, IATPolicy(params))
    daemon.on_start(0.0)
    # Stable phase: nothing changes between polls.
    for i in range(iterations):
        daemon.on_interval(float(i + 1))
    stable = daemon.mean_timing_us(stable=True)
    stable_wall = daemon.mean_timing_us(stable=True, modelled=False)
    daemon.timings.clear()
    # Unstable phase: force counter movement every interval.
    for i in range(iterations):
        _perturb(platform, i)
        daemon.on_interval(float(iterations + i + 1))
    unstable = daemon.mean_timing_us(stable=False)
    unstable_wall = daemon.mean_timing_us(stable=False, modelled=False)
    return Fig15Point(n_tenants, cores_per_tenant, stable, unstable,
                      stable_wall, unstable_wall)


def sweep(*, one_core_counts=DEFAULT_ONE_CORE_COUNTS,
          two_core_counts=DEFAULT_TWO_CORE_COUNTS,
          iterations: int = 50) -> SweepSpec:
    points = ([dict(n_tenants=count, cores_per_tenant=1,
                    iterations=iterations) for count in one_core_counts]
              + [dict(n_tenants=count, cores_per_tenant=2,
                      iterations=iterations) for count in two_core_counts])
    return SweepSpec.from_points("fig15", run_one, points)


def run(*, one_core_counts=DEFAULT_ONE_CORE_COUNTS,
        two_core_counts=DEFAULT_TWO_CORE_COUNTS,
        iterations: int = 50,
        runner: "ParallelRunner | None" = None) -> Fig15Result:
    points = run_sweep(sweep(one_core_counts=one_core_counts,
                             two_core_counts=two_core_counts,
                             iterations=iterations), runner)
    return Fig15Result(points)


def format_table(result: Fig15Result) -> str:
    lines = ["Fig. 15 — IAT iteration cost (modelled us; wall us in parens)",
             f"{'tenants':>8} {'cores/t':>8} {'stable':>14} {'unstable':>16}"]
    for p in result.points:
        lines.append(f"{p.tenants:>8} {p.cores_per_tenant:>8} "
                     f"{p.stable_us:>7.1f} ({p.stable_wall_us:5.0f}) "
                     f"{p.unstable_us:>8.1f} ({p.unstable_wall_us:5.0f})")
    lines.append("paper: poll dominates; sub-linear in cores; < 800 us")
    return "\n".join(lines)


def main() -> None:
    print(format_table(run()))


if __name__ == "__main__":
    main()
