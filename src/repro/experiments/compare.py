"""``repro compare``: the policy × scenario tournament harness.

Races every requested controller policy (from the
:mod:`repro.core.policies` registry) across a set of scenarios through
the standard sweep engine — each (policy, scenario, seed) cell is one
pure point function evaluated in parallel and cached like any figure
point.  The report ranks policies on three axes:

* **throughput** — summed steady-window ops/s of the
  performance-critical workloads;
* **p99 latency** — 99th percentile of the PC workloads' sampled
  per-op latencies over the measure window;
* **fairness** — Jain's index over per-tenant slowdowns (best observed
  IPC over steady-window IPC), the LFOC-style metric from
  :mod:`repro.core.monitor`.

Scenario-local scores normalize each axis against the best policy in
that scenario (so a hard scenario cannot drown an easy one) and the
overall ranking averages the per-cell scores.  Beyond the paper's
figures, two device-diversity scenarios (multiple NIC classes, DMA
streams on one fast device) probe where I/O-awareness actually pays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.monitor import SLOWDOWN_CAP, jain_fairness
from ..core.policies import get_policy
from ..exec import ParallelRunner, SweepSpec, run_sweep
from ..sim.config import PlatformSpec
from ..tenants.tenant import Priority
from .common import (Scenario, dma_stream_scenario, leaky_dma_scenario,
                     mixed_nic_scenario, shuffle_scenario)
from .measure import StatsWindow, steady_window

#: Tournament scenario registry: name -> (builder, kwargs, description).
#: Builders take ``seed`` and ``spec``; fixed kwargs pin the shape.
SCENARIOS: "dict[str, tuple]" = {
    "mixed-nic": (mixed_nic_scenario, {},
                  "three NIC classes (100/40/10 GbE) + PC/BE X-Mem"),
    "dma-streams": (dma_stream_scenario, {},
                    "three DMA streams on one 100 GbE device + PC/BE "
                    "X-Mem"),
    "shuffle": (shuffle_scenario, {"packet_size": 1500},
                "Fig. 10/11 slicing setup: 2 testpmd PC + 3 X-Mem"),
    "leaky-dma": (leaky_dma_scenario, {"packet_size": 1024},
                  "Fig. 8 aggregation setup: OVS + 2 testpmd"),
}

#: Default tournament line-ups.
DEFAULT_POLICIES = ("iat", "ioca", "lfoc", "static")
DEFAULT_SCENARIOS = ("mixed-nic", "dma-streams", "shuffle")


def build_scenario(name: str, *, seed: int = 0,
                   spec: "PlatformSpec | None" = None) -> Scenario:
    """Instantiate one tournament scenario by registry name."""
    try:
        builder, kwargs, _ = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") \
            from None
    return builder(seed=seed, spec=spec, **kwargs)


@dataclass
class ComparePoint:
    """One (policy, scenario, seed) cell of the tournament."""

    policy: str
    scenario: str
    seed: int
    #: Summed PC-workload throughput over the measure window (ops/s,
    #: real-time equivalent).
    throughput: float
    #: 99th-percentile sampled PC op latency over the window (us); 0.0
    #: when no workload samples latencies in the scenario.
    p99_latency_us: float
    #: Jain fairness index over per-tenant slowdowns (1.0 = fair).
    fairness: float
    #: Per-tenant slowdown estimates behind the fairness index.
    slowdowns: "dict[str, float]" = field(default_factory=dict)
    #: Daemon decisions taken (unstable iterations), for the report.
    decisions: int = 0


def _pc_names(scenario: Scenario) -> "list[str]":
    return [t.name for t in scenario.sim.tenant_set()
            if t.priority is Priority.PC]


def _tenant_slowdowns(metrics, warmup: float) -> "dict[str, float]":
    """Slowdown per tenant: peak IPC anywhere vs mean steady IPC."""
    steady = steady_window(metrics, warmup)
    if not steady:
        steady = metrics.records
    out: "dict[str, float]" = {}
    names = sorted({name for r in metrics.records for name in r.tenants})
    for name in names:
        series = [r.tenants[name].ipc for r in metrics.records
                  if name in r.tenants]
        steady_series = [r.tenants[name].ipc for r in steady
                         if name in r.tenants]
        peak = max(series, default=0.0)
        mean = (sum(steady_series) / len(steady_series)
                if steady_series else 0.0)
        if peak <= 0.0:
            out[name] = 1.0
        elif mean <= peak / SLOWDOWN_CAP:
            out[name] = SLOWDOWN_CAP
        else:
            out[name] = peak / mean
    return out


def run_point(policy: str, scenario: str, *, seed: int = 0,
              duration: float = 12.0, warmup: float = 3.0,
              policy_params: "dict | None" = None,
              spec: "PlatformSpec | None" = None) -> ComparePoint:
    """Run one tournament cell: build, attach, measure, score.

    ``policy`` and ``policy_params`` are part of the sweep point's
    parameters on purpose: they flow into the result-cache key, so two
    policies (or two parameterizations of one) on the same scenario
    never collide in the cache.
    """
    sc = build_scenario(scenario, seed=seed, spec=spec)
    daemon = sc.attach_controller(policy, **(policy_params or {}))
    sim = sc.sim
    freq = sc.platform.spec.freq_hz

    pc = [name for name in _pc_names(sc) if name in sc.workloads]
    windows = {name: StatsWindow(sc.workloads[name]) for name in pc}
    sample_base: "dict[str, int]" = {}

    def open_windows() -> None:
        for name, window in windows.items():
            window.open(sim.now)
            sample_base[name] = len(
                sc.workloads[name].stats.latency_samples)

    sim.at(warmup, open_windows)
    metrics = sim.run(duration)

    throughput = 0.0
    samples: "list[np.ndarray]" = []
    for name, window in windows.items():
        result = window.close(sim.now)
        throughput += result.ops_per_sec(sc.time_scale)
        tail = sc.workloads[name].stats.latency_samples[
            sample_base.get(name, 0):]
        if tail:
            samples.append(np.asarray(tail, dtype=float))
    if samples:
        p99_cycles = float(np.percentile(np.concatenate(samples), 99.0))
        p99_us = p99_cycles / freq * 1e6
    else:
        p99_us = 0.0

    slowdowns = _tenant_slowdowns(metrics, warmup)
    decisions = sum(1 for t in daemon.timings if not t.stable)
    return ComparePoint(
        policy=policy, scenario=scenario, seed=seed,
        throughput=throughput, p99_latency_us=p99_us,
        fairness=jain_fairness(slowdowns.values()),
        slowdowns=slowdowns, decisions=decisions)


@dataclass
class CompareResult:
    """All tournament cells plus the derived ranking."""

    points: "list[ComparePoint]"

    def policies(self) -> "list[str]":
        seen: "list[str]" = []
        for p in self.points:
            if p.policy not in seen:
                seen.append(p.policy)
        return seen

    def scenarios(self) -> "list[str]":
        seen: "list[str]" = []
        for p in self.points:
            if p.scenario not in seen:
                seen.append(p.scenario)
        return seen

    def cell_scores(self) -> "dict[tuple[str, str, int], float]":
        """Per-cell score in [0, 1]: mean of the three axes, each
        normalized against the best policy in the same (scenario, seed)
        cell group."""
        groups: "dict[tuple[str, int], list[ComparePoint]]" = {}
        for p in self.points:
            groups.setdefault((p.scenario, p.seed), []).append(p)
        scores: "dict[tuple[str, str, int], float]" = {}
        for (scenario, seed), cells in groups.items():
            best_tput = max(c.throughput for c in cells)
            with_lat = [c.p99_latency_us for c in cells
                        if c.p99_latency_us > 0]
            best_p99 = min(with_lat) if with_lat else 0.0
            best_fair = max(c.fairness for c in cells)
            for c in cells:
                axes = []
                axes.append(c.throughput / best_tput if best_tput else 1.0)
                if best_p99 and c.p99_latency_us > 0:
                    axes.append(best_p99 / c.p99_latency_us)
                axes.append(c.fairness / best_fair if best_fair else 1.0)
                scores[(c.policy, scenario, seed)] = \
                    sum(axes) / len(axes)
        return scores

    def ranking(self) -> "list[tuple[str, float]]":
        """(policy, mean score) pairs, best first; ties break by name."""
        scores = self.cell_scores()
        totals: "dict[str, list[float]]" = {}
        for (policy, _, _), score in scores.items():
            totals.setdefault(policy, []).append(score)
        means = {policy: sum(vals) / len(vals)
                 for policy, vals in totals.items()}
        return sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))

    def to_json_dict(self) -> dict:
        """JSON-ready report: ranking plus every cell's raw metrics."""
        return {
            "ranking": [{"policy": policy, "score": score}
                        for policy, score in self.ranking()],
            "points": [asdict(p) for p in self.points],
        }


def sweep(*, policies=DEFAULT_POLICIES, scenarios=DEFAULT_SCENARIOS,
          seeds=(0,), duration: float = 12.0, warmup: float = 3.0,
          policy_params: "dict | None" = None,
          spec: "PlatformSpec | None" = None) -> SweepSpec:
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenarios {unknown!r} "
                       f"(known: {', '.join(sorted(SCENARIOS))})")
    for policy in policies:      # fail fast, not inside a worker
        get_policy(policy)
    return SweepSpec.from_product(
        "compare", run_point,
        axes={"scenario": tuple(scenarios), "policy": tuple(policies),
              "seed": tuple(seeds)},
        common=dict(duration=duration, warmup=warmup,
                    policy_params=policy_params, spec=spec))


def run(*, policies=DEFAULT_POLICIES, scenarios=DEFAULT_SCENARIOS,
        seeds=(0,), duration: float = 12.0, warmup: float = 3.0,
        policy_params: "dict | None" = None,
        spec: "PlatformSpec | None" = None,
        runner: "ParallelRunner | None" = None) -> CompareResult:
    points = run_sweep(sweep(policies=policies, scenarios=scenarios,
                             seeds=seeds, duration=duration, warmup=warmup,
                             policy_params=policy_params, spec=spec),
                       runner)
    return CompareResult(points)


def format_table(result: CompareResult) -> str:
    """Ranked report plus the per-scenario metric table."""
    lines = ["Compare — policy tournament "
             f"({len(result.policies())} policies x "
             f"{len(result.scenarios())} scenarios)"]
    lines.append(f"{'rank':>4} {'policy':>10} {'score':>7}")
    for rank, (policy, score) in enumerate(result.ranking(), start=1):
        lines.append(f"{rank:>4} {policy:>10} {score:>7.3f}")
    lines.append("")
    lines.append(f"{'scenario':>12} {'policy':>10} {'seed':>4} "
                 f"{'tput':>10} {'p99':>10} {'fairness':>8} {'dec':>4}")
    for p in result.points:
        p99 = f"{p.p99_latency_us:>8.2f}us" if p.p99_latency_us else \
            f"{'-':>10}"
        lines.append(
            f"{p.scenario:>12} {p.policy:>10} {p.seed:>4} "
            f"{p.throughput / 1e6:>9.2f}M {p99} {p.fairness:>8.3f} "
            f"{p.decisions:>4}")
    return "\n".join(lines)


def main() -> None:
    print(format_table(run()))


if __name__ == "__main__":
    main()
