"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Seven subcommands:

* ``repro figures`` — list the reproducible figures.
* ``repro policies`` — list the registered controller policies with
  their tunable parameters (see ``docs/policies.md``).
* ``repro compare [--policies A,B] [--scenarios X,Y] [--seeds 0,1]
  [--json FILE] [sweep flags]`` — race the selected policies across the
  tournament scenarios through the sweep engine and print a ranked
  report (throughput, p99 latency, Jain fairness); ``--json`` also
  writes the full report as JSON.
* ``repro figure <id> [--fast] [--jobs N] [--no-cache] [--duration S]
  [--warmup S] [--trace-out FILE]`` — regenerate one figure's table.
  ``--fast`` shrinks sweeps/durations for a quick look; sweep points
  fan out across ``--jobs`` worker processes (default: all cores) and
  completed points replay from the on-disk result cache (see
  ``docs/experiments.md``) unless ``--no-cache`` is given.
  ``--duration``/``--warmup`` override the harness's measurement window
  where it supports one.  ``--trace-out`` records every computed sweep
  point under its own tracer, in whichever process runs it, and merges
  the events the points return into one Perfetto file.
* ``repro suite [--fast] [--jobs N] [--trace-out FILE]`` — run every
  figure back to back through one shared worker pool.
* ``repro trace <id> [--fast] [--out FILE] [--format perfetto|jsonl]
  [--sample N] [--seed S] [--capacity N] [--metrics-out FILE]`` — run a
  figure with the in-process tracing subsystem enabled (see
  ``docs/observability.md``) and export the event stream; the default
  ``perfetto`` format loads directly into https://ui.perfetto.dev.
  ``--sample N`` traces 1-in-N quanta (deterministic in ``--seed``);
  ``--capacity`` keeps only the most recent N events;
  ``--metrics-out`` additionally exports the metrics registry in the
  Prometheus text format.  Prints per-category event counts, the
  dropped-event total and each span's share of the traced wall time,
  read off the retained spans (``engine.{traffic,workloads,record,
  controllers}``, ``sim.quantum``, ``dma.burst``, ``daemon.interval``).
  In-process tracing forces serial, uncached execution so every event
  is observed (use ``figure --trace-out`` for parallel tracing).
* ``repro daemon --tenants FILE [--backend sim|linux]`` — run the IAT
  daemon against a tenant affiliation file.  The ``linux`` backend
  drives real MSRs (root + the msr module required — untested here, see
  DESIGN.md); the default ``sim`` backend runs a self-contained demo
  scenario so the daemon's decisions can be observed anywhere.
  ``--trace-out FILE`` captures a Perfetto trace of the run;
  ``--log-level`` controls stdlib logging verbosity.
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys
import time
from dataclasses import dataclass, field

from .core import available_policies
from .exec import ParallelRunner, ResultCache
from .exec.runner import TraceFanout
from .experiments import (compare, ext_ddio, fig03_ring_size,
                          fig04_latent_contender, fig08_leaky_dma,
                          fig09_flow_scaling, fig10_shuffle, fig11_timeline,
                          fig12_exec_time, fig13_rocksdb_latency,
                          fig14_redis_ycsb, fig15_overhead, sensitivity)


@dataclass(frozen=True)
class FigureEntry:
    """One reproducible figure: how to run it and how to print it."""

    description: str
    run: object                    # run(**kwargs) -> result
    format: object                 # format(result) -> str
    fast_kwargs: dict = field(default_factory=dict)


FIGURES = {
    "fig3": FigureEntry(
        "RFC2544 zero-loss throughput vs Rx ring size",
        fig03_ring_size.run, fig03_ring_size.format_table,
        dict(ring_sizes=(64, 1024), packet_sizes=(64,), measure_s=2.2,
             warmup_s=0.4, max_trials=5)),
    "fig4": FigureEntry(
        "X-Mem vs DDIO way overlap (Latent Contender)",
        fig04_latent_contender.run, fig04_latent_contender.format_table,
        dict(working_sets_mb=(4, 16), warmup_s=1.0, measure_s=1.5)),
    "fig8": FigureEntry(
        "Leaky DMA: DDIO hit/miss, memory BW, OVS IPC/CPP",
        fig08_leaky_dma.run, fig08_leaky_dma.format_table,
        dict(packet_sizes=(64, 1500), duration_s=6.0, warmup_s=3.0)),
    "fig9": FigureEntry(
        "OVS under growing flow counts (Core Demand)",
        fig09_flow_scaling.run, fig09_flow_scaling.format_table,
        dict(flow_counts=(1, 1_000_000), duration_s=6.0, warmup_s=3.0)),
    "fig10": FigureEntry(
        "Four-policy Latent Contender comparison",
        fig10_shuffle.run, fig10_shuffle.format_table,
        dict(packet_sizes=(1500,))),
    "fig11": FigureEntry(
        "LLC allocation timeline with IAT",
        fig11_timeline.run, fig11_timeline.format_timeline,
        dict(t_grow=2.0, t_ddio=6.0, t_end=9.0)),
    "fig12": FigureEntry(
        "App slowdown co-run with Redis/FastClick",
        fig12_exec_time.run, fig12_exec_time.format_table,
        dict(scenarios=("kvs",), apps=("mcf", "gcc"), seeds=(0, 1),
             warmup_s=1.0, measure_s=1.5)),
    "fig13": FigureEntry(
        "RocksDB normalized weighted latency",
        fig13_rocksdb_latency.run, fig13_rocksdb_latency.format_table,
        dict(scenarios=("kvs",), letters=("C",), seeds=(0, 1),
             warmup_s=1.0, measure_s=1.5)),
    "fig14": FigureEntry(
        "Redis YCSB degradation",
        fig14_redis_ycsb.run, fig14_redis_ycsb.format_table,
        dict(letters=("C",), seeds=(0, 1), warmup_s=1.0, measure_s=1.5)),
    "fig15": FigureEntry(
        "IAT daemon per-iteration cost",
        fig15_overhead.run, fig15_overhead.format_table,
        dict(one_core_counts=(1, 4, 16), two_core_counts=(2,),
             iterations=20)),
    "ext-ddio": FigureEntry(
        "Sec. VII extension: device-/app-aware DDIO",
        ext_ddio.run, ext_ddio.format_table,
        dict(duration_s=4.0, warmup_s=2.0)),
    "sensitivity": FigureEntry(
        "IAT parameter-sensitivity sweep (Sec. VI-A remark)",
        sensitivity.run, sensitivity.format_table,
        dict(sweeps={"threshold_stable": (0.03, 0.10)}, duration_s=6.0,
             warmup_s=3.0)),
}


def _natural_key(name: str) -> list:
    """fig3 < fig4 < fig8 < fig10 — digits compare numerically."""
    return [int(part) if part.isdigit() else part
            for part in re.split(r"(\d+)", name)]


def sorted_figures() -> "list[str]":
    """Figure ids in stable (natural-sorted) order, independent of the
    registry's insertion order."""
    return sorted(FIGURES, key=_natural_key)


def _make_runner(args) -> ParallelRunner:
    """A runner configured from the shared sweep CLI flags, tracing
    every computed point under ``--trace-out``."""
    cache = None
    if not getattr(args, "no_cache", False):
        cache = ResultCache(getattr(args, "cache_dir", None))
    trace = None
    if getattr(args, "trace_out", None):
        trace = TraceFanout(sample=getattr(args, "trace_sample", None))
    return ParallelRunner(jobs=args.jobs, cache=cache,
                          echo=sys.stderr.isatty(), trace=trace)


def _finish_trace(runner: ParallelRunner, args) -> None:
    """Merge the run's traced points into ``--trace-out`` and report."""
    out = getattr(args, "trace_out", None)
    if not out:
        return
    summary = runner.write_merged_trace(out)
    if summary is None:
        print("trace: no sweep points were traced (figure without a "
              "runner-driven sweep?); nothing written", file=sys.stderr)
        return
    line = (f"trace: merged {summary['shards']} shards, "
            f"{summary['events']} events -> {out}")
    if summary["dropped"]:
        line += f" ({summary['dropped']} dropped)"
    print(line)


def _run_entry(entry: FigureEntry, *, fast: bool,
               runner: "ParallelRunner | None" = None,
               duration: "float | None" = None,
               warmup: "float | None" = None) -> str:
    """Run one figure, plumbing runner and window overrides through the
    harness's own ``run(**kwargs)`` signature."""
    kwargs = dict(entry.fast_kwargs) if fast else {}
    params = inspect.signature(entry.run).parameters
    if "runner" in params and runner is not None:
        kwargs["runner"] = runner
    if duration is not None:
        for name in ("duration_s", "measure_s"):
            if name in params:
                kwargs[name] = duration
                break
        else:
            print("note: this figure does not take --duration; ignored",
                  file=sys.stderr)
    if warmup is not None:
        if "warmup_s" in params:
            kwargs["warmup_s"] = warmup
        else:
            print("note: this figure does not take --warmup; ignored",
                  file=sys.stderr)
    return entry.format(entry.run(**kwargs))


def _cmd_figures(_args) -> int:
    width = max(len(name) for name in FIGURES)
    for name in sorted_figures():
        print(f"{name:<{width}}  {FIGURES[name].description}")
    return 0


def _cmd_policies(_args) -> int:
    infos = available_policies()
    width = max(len(info.name) for info in infos)
    for info in infos:
        print(f"{info.name:<{width}}  {info.summary}")
        for pname, default in info.tunables():
            print(f"{'':<{width}}    {pname} = {default}")
    return 0


def _split_csv(text: str) -> "tuple[str, ...]":
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _cmd_compare(args) -> int:
    policies = (_split_csv(args.policies) if args.policies
                else compare.DEFAULT_POLICIES)
    scenarios = (_split_csv(args.scenarios) if args.scenarios
                 else compare.DEFAULT_SCENARIOS)
    seeds = (tuple(int(s) for s in _split_csv(args.seeds))
             if args.seeds else (0,))
    kwargs = {}
    if args.fast:
        kwargs.update(duration=4.0, warmup=1.0)
    if args.duration is not None:
        kwargs["duration"] = args.duration
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    with _make_runner(args) as runner:
        try:
            result = compare.run(policies=policies, scenarios=scenarios,
                                 seeds=seeds, runner=runner, **kwargs)
        except KeyError as exc:
            print(f"compare: {exc.args[0]}", file=sys.stderr)
            return 2
        print(compare.format_table(result))
        _finish_trace(runner, args)
    if args.json:
        import json
        with open(args.json, "w") as handle:
            json.dump(result.to_json_dict(), handle, indent=1)
        print(f"report -> {args.json}")
    return 0


def _cmd_figure(args) -> int:
    entry = FIGURES.get(args.id)
    if entry is None:
        print(f"unknown figure {args.id!r}; try 'repro figures'",
              file=sys.stderr)
        return 2
    with _make_runner(args) as runner:
        print(_run_entry(entry, fast=args.fast, runner=runner,
                         duration=args.duration, warmup=args.warmup))
        _finish_trace(runner, args)
    return 0


def _cmd_suite(args) -> int:
    start = time.perf_counter()
    with _make_runner(args) as runner:
        for name in sorted_figures():
            entry = FIGURES[name]
            print(f"=== {name} — {entry.description} ===")
            print(_run_entry(entry, fast=args.fast, runner=runner,
                             duration=args.duration, warmup=args.warmup))
            print()
        _finish_trace(runner, args)
    elapsed = time.perf_counter() - start
    hits = runner.cache.hits if runner.cache is not None else 0
    print(f"suite: {len(FIGURES)} figures in {elapsed:.1f}s "
          f"(jobs={runner.effective_jobs()}, cache hits={hits})")
    return 0


def _cmd_trace(args) -> int:
    from .obs import JsonlSink, Tracer, tracing
    from .workloads.base import ENGINE_STATS

    entry = FIGURES.get(args.id)
    if entry is None:
        print(f"unknown figure {args.id!r}; try 'repro figures'",
              file=sys.stderr)
        return 2
    suffix = "jsonl" if args.format == "jsonl" else "json"
    out = args.out or f"trace_{args.id}.{suffix}"
    tracer = Tracer(sample=args.sample, seed=args.seed,
                    capacity=args.capacity)
    if args.format == "jsonl":
        tracer.add_sink(JsonlSink(out))
    if args.metrics_out:
        from .obs.metrics import REGISTRY
        REGISTRY.clear()
        REGISTRY.enabled = True
    ENGINE_STATS.reset()
    try:
        with tracing(tracer):
            # No runner: serial, uncached — a cache hit would skip the
            # simulation entirely and record no events.
            table = _run_entry(entry, fast=args.fast)
    finally:
        if args.metrics_out:
            REGISTRY.enabled = False
    tracer.close()
    events = tracer.events()
    if args.format != "jsonl":
        _write_perfetto(events, out)
    print(table)
    # A JSONL sink streams every pushed event; a Perfetto file holds
    # only the events the bounded tracer kept.
    written = len(events)
    if args.format == "jsonl":
        written += tracer.dropped
    print(f"trace: {written} events -> {out}")
    counts = tracer.category_counts()
    if counts:
        print("events: "
              + ", ".join(f"{category} {count}" for category, count
                          in sorted(counts.items()))
              + f"; dropped {tracer.dropped}")
    shares = tracer.profile_shares()
    if shares:
        top = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
        print("profile: " + ", ".join(f"{key} {share:.1%}"
                                      for key, share in top[:6]))
    es = ENGINE_STATS
    if es.chunks:
        print(f"chunks: {es.chunks} executed, "
              f"size mean {es.mean_chunk():.1f} "
              f"p50 {es.percentile_chunk(50):.0f} "
              f"p99 {es.percentile_chunk(99):.0f} packets; "
              f"speculative {es.spec_chunks}, rollbacks {es.rollbacks} "
              f"({es.rollback_rate():.1%}), "
              f"wasted {es.wasted_packets} packets, "
              f"{es.launches_per_chunk():.0f} kernel launches/chunk")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(REGISTRY.to_prometheus())
        print(f"metrics -> {args.metrics_out}")
    return 0


def _write_perfetto(events, path: str) -> None:
    """Write ``events`` as one Perfetto-loadable JSON document."""
    import json

    from .obs import perfetto_document
    with open(path, "w") as handle:
        json.dump(perfetto_document(events), handle)


def _daemon_summary(daemon) -> str:
    """One-line exit summary of a daemon run."""
    history = daemon.history
    changes = sum(1 for a, b in zip(history, history[1:])
                  if a.state is not b.state)
    masks = {}
    if daemon.layout is not None:
        masks = {group: f"0x{mask:x}" for group, mask
                 in sorted(daemon.layout.group_masks.items())}
    last = history[-1]
    return (f"daemon: {len(history)} iterations, {changes} state changes, "
            f"final state {last.state.value}, "
            f"ddio_ways={last.ddio_ways}, masks={masks}")


def _cmd_daemon(args) -> int:
    import logging

    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(asctime)s %(name)s %(levelname)s "
                               "%(message)s")
    tracer = None
    if args.trace_out:
        from .obs import Tracer, install_tracer
        tracer = Tracer()
        install_tracer(tracer)
    try:
        return _run_daemon(args)
    finally:
        if tracer is not None:
            from .obs import install_tracer
            install_tracer(None)
            _write_perfetto(tracer.events(), args.trace_out)
            print(f"trace -> {args.trace_out}")


def _run_daemon(args) -> int:
    from .core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
    from .tenants.registry import TenantRegistry

    registry = TenantRegistry(args.tenants)
    tenants = registry.load()
    params = IATParams(interval_s=args.interval)

    if args.backend == "linux":
        from .perf.hw import HwPqos
        from .perf.msr import LinuxMsr
        msrs = {core: LinuxMsr(core) for core in tenants.all_cores}
        pqos = HwPqos(msr_of=msrs)
        control = ControlPlane(pqos, tenants, time_scale=1.0,
                               registry=registry)
        daemon = ControllerDaemon(control, IATPolicy(params))
        daemon.on_start(0.0)
        import time as _time
        print(f"IAT daemon on real MSRs, interval {args.interval}s; ^C "
              "to stop")
        iteration = 0
        try:
            while args.iterations == 0 or iteration < args.iterations:
                _time.sleep(args.interval)
                iteration += 1
                daemon.on_interval(iteration * args.interval)
                entry = daemon.history[-1]
                print(f"[{iteration}] {entry.state.value} "
                      f"ddio={entry.ddio_ways} {entry.action}")
        except KeyboardInterrupt:
            pass
        print(_daemon_summary(daemon))
        return 0

    # Simulated backend: demo scenario driven by the tenants file's I/O
    # tenants (each gets a line-rate VF) with the daemon attached.
    from .net import TrafficSpec
    from .sim import Platform, Simulation, XEON_6140
    from .workloads import TestPmd, XMem

    platform = Platform(XEON_6140)
    sim = Simulation(platform)
    nic = platform.add_nic("nic0", 40.0)
    for tenant in tenants:
        if tenant.is_io or tenant.is_stack:
            vf = nic.add_vf(name=f"{tenant.name}.vf")
            sim.add_tenant(tenant, TestPmd(tenant.name, [vf.rx_ring]))
            sim.attach_traffic(nic, vf, TrafficSpec.line_rate(
                40.0, args.packet_size, scale=platform.spec.time_scale))
        else:
            sim.add_tenant(tenant, XMem(tenant.name, 8 << 20))
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    daemon = ControllerDaemon(control, IATPolicy(params))
    sim.add_controller(daemon)
    sim.run(args.duration)
    for entry in daemon.history:
        print(f"t={entry.time:6.1f}s {entry.state.value:12s} "
              f"ddio={entry.ddio_ways} ways={entry.group_ways} "
              f"{entry.action}")
    print(_daemon_summary(daemon))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IAT (ISCA 2021) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list reproducible figures") \
        .set_defaults(func=_cmd_figures)

    def add_sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fast", action="store_true",
                       help="reduced sweep for a quick look")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: all cores)")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute every point, bypass the result "
                            "cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache root (default ~/.cache/repro "
                            "or $REPRO_CACHE_DIR)")
        p.add_argument("--duration", type=float, default=None, metavar="S",
                       help="override the measurement window (seconds)")
        p.add_argument("--warmup", type=float, default=None, metavar="S",
                       help="override the warmup window (seconds)")
        p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="trace every computed sweep point "
                            "(works with --jobs N) and merge the events "
                            "they return into one Perfetto file here")
        p.add_argument("--trace-sample", type=int, default=None,
                       metavar="N",
                       help="with --trace-out: trace 1-in-N quanta per "
                            "point instead of full fidelity")

    sub.add_parser("policies",
                   help="list registered controller policies and their "
                        "tunable parameters") \
        .set_defaults(func=_cmd_policies)

    cmp_p = sub.add_parser("compare",
                           help="policy x scenario tournament with a "
                                "ranked report")
    cmp_p.add_argument("--policies", default=None, metavar="A,B",
                       help="comma-separated policy names (default: "
                            + ",".join(compare.DEFAULT_POLICIES) + ")")
    cmp_p.add_argument("--scenarios", default=None, metavar="X,Y",
                       help="comma-separated scenario names (default: "
                            + ",".join(compare.DEFAULT_SCENARIOS) + ")")
    cmp_p.add_argument("--seeds", default=None, metavar="0,1",
                       help="comma-separated seeds (default: 0)")
    cmp_p.add_argument("--json", default=None, metavar="FILE",
                       help="also write the full report as JSON here")
    add_sweep_flags(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    figure = sub.add_parser("figure", help="regenerate one figure")
    figure.add_argument("id", help="figure id (see 'repro figures')")
    add_sweep_flags(figure)
    figure.set_defaults(func=_cmd_figure)

    suite = sub.add_parser("suite",
                           help="run every figure through one shared "
                                "worker pool")
    add_sweep_flags(suite)
    suite.set_defaults(func=_cmd_suite)

    trace = sub.add_parser("trace",
                           help="run a figure with tracing enabled")
    trace.add_argument("id", help="figure id (see 'repro figures')")
    trace.add_argument("--fast", action="store_true",
                       help="reduced sweep for a quick look")
    trace.add_argument("--out", default=None,
                       help="output path (default trace_<id>.<ext>)")
    trace.add_argument("--format", choices=("perfetto", "jsonl"),
                       default="perfetto",
                       help="perfetto trace_event JSON or raw JSONL")
    trace.add_argument("--sample", type=int, default=None, metavar="N",
                       help="trace 1-in-N simulation quanta "
                            "(deterministic in --seed)")
    trace.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0)")
    trace.add_argument("--capacity", type=int, default=None, metavar="N",
                       help="keep only the most recent N events "
                            "(overflow is counted, not silent)")
    trace.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="also export the metrics registry here "
                            "(Prometheus text format)")
    trace.set_defaults(func=_cmd_trace)

    daemon = sub.add_parser("daemon", help="run the IAT daemon")
    daemon.add_argument("--tenants", required=True,
                        help="tenant affiliation file (see Sec. V format)")
    daemon.add_argument("--backend", choices=("sim", "linux"),
                        default="sim")
    daemon.add_argument("--interval", type=float, default=1.0,
                        help="sleep interval seconds (Table II: 1.0)")
    daemon.add_argument("--duration", type=float, default=10.0,
                        help="simulated seconds (sim backend)")
    daemon.add_argument("--packet-size", type=int, default=1500,
                        help="traffic packet size (sim backend)")
    daemon.add_argument("--iterations", type=int, default=0,
                        help="stop after N intervals (linux backend; "
                             "0 = run until ^C)")
    daemon.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="stdlib logging verbosity")
    daemon.add_argument("--trace-out", default=None,
                        help="write a Perfetto trace of the run here")
    daemon.set_defaults(func=_cmd_daemon)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
