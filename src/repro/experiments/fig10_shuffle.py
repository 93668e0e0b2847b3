"""Fig. 10: solving the Latent Contender problem — policy comparison.

Paper Sec. VI-B (slicing model): containers 0/1 (PC) run testpmd on
line-rate VFs sharing three ways; containers 2/3 (BE) and 4 (PC) run
X-Mem with two ways each.  Script: at t=5 s container 4's working set
jumps 2 MB -> 10 MB; at t=15 s DDIO is *manually* widened from two to
four ways.  Policies: baseline (static), Core-only (dynamic but
I/O-unaware), I/O-iso (DDIO ways excluded), IAT (DDIO way management
frozen per footnote 3 — this experiment isolates way-shuffling).

Reported: container 4's stabilized throughput and average latency in
phase 2 (5-15 s) and phase 3 (after 15 s).

Expected shape: IAT highest throughput / lowest latency in both phases
(it grants container 4 more ways AND shuffles a low-footprint BE next
to DDIO); Core-only helps with small packets but degrades at large ones
(its "idle" ways are really DDIO's); I/O-iso matches IAT in phase 2 but
collapses in phase 3 when DDIO takes 4 of its 9 usable ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.ddio import ddio_mask_for_ways
from ..exec import ParallelRunner, SweepSpec, run_sweep
from ..sim.config import PlatformSpec
from .common import shuffle_scenario
from .measure import StatsWindow, WindowResult

MODES = ("baseline", "core-only", "io-iso", "iat")


@dataclass
class Fig10Point:
    mode: str
    packet_size: int
    phase2_throughput: float
    phase2_latency_ns: float
    phase3_throughput: float
    phase3_latency_ns: float
    #: The controller's per-interval history, serialized as
    #: ``IterationLog`` dataclasses (the static baseline logs only its
    #: ``init``).  The daemon-equivalence tests pin IAT's field-for-field
    #: against pre-refactor goldens.
    daemon_history: list = field(default_factory=list)


@dataclass
class Fig10Result:
    points: "list[Fig10Point]"

    def point(self, mode: str, packet_size: int) -> Fig10Point:
        for p in self.points:
            if p.mode == mode and p.packet_size == packet_size:
                return p
        raise KeyError((mode, packet_size))

    def gain_vs(self, mode: str, reference: str, packet_size: int, *,
                phase: int = 2) -> float:
        """Throughput gain of ``mode`` over ``reference``."""
        attr = f"phase{phase}_throughput"
        mine = getattr(self.point(mode, packet_size), attr)
        theirs = getattr(self.point(reference, packet_size), attr)
        return mine / theirs - 1.0 if theirs else 0.0


def run_one(mode: str, packet_size: int, *,
            t_grow: float = 5.0, t_ddio: float = 15.0, t_end: float = 25.0,
            settle_s: float = 5.0, seed: int = 10,
            spec: "PlatformSpec | None" = None) -> Fig10Point:
    scenario = shuffle_scenario(packet_size=packet_size, spec=spec,
                                seed=seed)
    if mode == "iat":
        scenario.attach_controller("iat", manage_ddio=False)
    else:
        scenario.attach_controller(mode)
    sim = scenario.sim
    platform = scenario.platform
    c4 = scenario.workloads["c4"]
    window = StatsWindow(c4)
    results: "dict[int, WindowResult]" = {}

    sim.at(t_grow, lambda: c4.set_working_set(10 << 20))
    sim.at(t_grow + settle_s, lambda: window.open(sim.now))

    def widen_ddio() -> None:
        results[2] = window.close(sim.now)
        platform.ddio.set_mask(ddio_mask_for_ways(platform.spec.llc, 4))

    sim.at(t_ddio, widen_ddio)
    sim.at(t_ddio + settle_s, lambda: window.open(sim.now))
    sim.run(t_end)
    results[3] = window.close(sim.now)

    freq = platform.spec.freq_hz
    return Fig10Point(
        mode=mode, packet_size=packet_size,
        phase2_throughput=results[2].ops_per_sec(scenario.time_scale),
        phase2_latency_ns=results[2].avg_latency_cycles / freq * 1e9,
        phase3_throughput=results[3].ops_per_sec(scenario.time_scale),
        phase3_latency_ns=results[3].avg_latency_cycles / freq * 1e9,
        daemon_history=list(scenario.controller.history))


def sweep(*, packet_sizes=(64, 256, 1024, 1500), modes=MODES,
          spec: "PlatformSpec | None" = None) -> SweepSpec:
    return SweepSpec.from_product(
        "fig10", run_one,
        axes={"packet_size": packet_sizes, "mode": modes},
        common=dict(spec=spec))


def run(*, packet_sizes=(64, 256, 1024, 1500), modes=MODES,
        spec: "PlatformSpec | None" = None,
        runner: "ParallelRunner | None" = None) -> Fig10Result:
    points = run_sweep(sweep(packet_sizes=packet_sizes, modes=modes,
                             spec=spec), runner)
    return Fig10Result(points)


def format_table(result: Fig10Result) -> str:
    lines = ["Fig. 10 — X-Mem (container 4, PC) under four policies",
             f"{'pkt':>5} {'mode':>10} {'ph2 tput':>12} {'ph2 lat':>9} "
             f"{'ph3 tput':>12} {'ph3 lat':>9}"]
    for size in sorted({p.packet_size for p in result.points}):
        for mode in MODES:
            try:
                p = result.point(mode, size)
            except KeyError:
                continue
            lines.append(
                f"{size:>5} {mode:>10} {p.phase2_throughput / 1e6:>10.2f}M "
                f"{p.phase2_latency_ns:>7.1f}ns "
                f"{p.phase3_throughput / 1e6:>10.2f}M "
                f"{p.phase3_latency_ns:>7.1f}ns")
        try:
            gain_base = result.gain_vs("iat", "baseline", size, phase=2)
            gain_core = result.gain_vs("iat", "core-only", size, phase=2)
            lines.append(f"      -> IAT vs baseline {gain_base * 100:+.1f}%, "
                         f"vs core-only {gain_core * 100:+.1f}% (phase 2)")
        except KeyError:
            pass
    lines.append("paper: IAT +53.6~111.5% vs baseline, +1.4~56.0% vs "
                 "Core-only; latency 34.5~52.2% below baseline")
    return "\n".join(lines)


def main() -> None:
    print(format_table(run()))


if __name__ == "__main__":
    main()
