"""Perf-benchmark entry point: times scalar vs. array LLC backends and
writes ``BENCH_llc.json`` so the perf trajectory is tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/perf/run.py [--scale default|tiny]
                                                 [--out PATH]

``--scale tiny`` runs every benchmark on shrunken geometry/duration so
CI can validate the harness and the JSON schema in seconds; committed
results use the default scale.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
for path in (_HERE, _SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_compare import run_compare      # noqa: E402
from bench_engine import run_engine        # noqa: E402
from bench_llc import run_micro            # noqa: E402
from bench_obs import run_obs              # noqa: E402
from bench_rollback import run_rollback    # noqa: E402
from bench_suite import run_suite          # noqa: E402

SCHEMA = "repro-bench-llc/1"
DEFAULT_OUT = os.path.join(_HERE, "BENCH_llc.json")


def run(scale: str = "default") -> dict:
    micro = run_micro(scale)
    engine = run_engine(scale)
    rollback = run_rollback(scale)
    obs = run_obs(scale)
    suite = run_suite(scale)
    compare = run_compare(scale)
    return {
        "schema": SCHEMA,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "scale": scale,
        "micro": micro,
        "engine": engine,
        # COW journal cost (repro.cache): plain vs. journaled vs. rollback.
        "rollback": rollback,
        # Tracing overhead (repro.obs): baseline vs. disabled vs. enabled.
        "obs": obs,
        # Sweep execution (repro.exec): serial vs. parallel vs. warm cache.
        "suite": suite,
        # Controller plane (repro compare): tournament wall time + ranking.
        "compare": compare,
        # Headline number: end-to-end scalar/array on fig. 8 leaky DMA.
        "speedup": engine["speedup"],
    }


def validate(doc: dict) -> None:
    """Schema check shared with the tier-1 smoke test."""
    assert doc.get("schema") == SCHEMA, "bad schema tag"
    assert doc.get("scale") in ("default", "tiny")
    assert isinstance(doc.get("created_utc"), str)
    assert isinstance(doc.get("micro"), list) and doc["micro"]
    for entry in doc["micro"]:
        for key in ("name", "accesses", "hits", "scalar_s", "array_s",
                    "speedup"):
            assert key in entry, f"micro entry missing {key}"
        assert entry["scalar_s"] >= 0 and entry["array_s"] > 0
    engine = doc.get("engine")
    assert isinstance(engine, dict)
    for key in ("scenario", "packet_size", "duration_s", "scalar_s",
                "array_s", "speedup", "metrics_match", "quanta"):
        assert key in engine, f"engine result missing {key}"
    assert engine["metrics_match"] is True, "backends diverged"
    if "spec" in engine:  # absent in pre-speculation documents (additive)
        assert "chunk_packets_mean" in engine, \
            "engine result missing chunk_packets_mean"
        for key in ("spec_chunks", "rollbacks", "rollback_rate",
                    "wasted_packets", "kernel_launches_per_chunk"):
            assert key in engine["spec"], f"engine spec missing {key}"
        assert 0.0 <= engine["spec"]["rollback_rate"] <= 1.0
    rollback = doc.get("rollback")
    if rollback is not None:  # absent in pre-journal documents (additive)
        for key in ("accesses", "chunk", "plain_s", "journaled_s",
                    "journal_overhead", "rollback_s", "restored_ok"):
            assert key in rollback, f"rollback result missing {key}"
        assert rollback["restored_ok"] is True, \
            "rollback failed to restore the pre-snapshot LLC state"
        assert rollback["plain_s"] > 0 and rollback["journaled_s"] > 0
        if "cut_ok" in rollback:  # absent in pre-cut documents (additive)
            assert rollback["cut_ok"] is True, \
                "a cut LLC differs from its prefix-only twin"
    stages = engine.get("stages")
    if stages is not None:  # absent in pre-breakdown documents (additive)
        assert isinstance(stages, dict)
        for name, share in stages.items():
            if name.endswith("_split"):
                # Per-layer attribution inside one stage, normalized
                # within it: ``workloads_split`` in documents written
                # before the profile became a view over trace spans.
                assert isinstance(share, dict)
                for sub in share.values():
                    assert 0.0 <= sub <= 1.0
            else:
                assert 0.0 <= share <= 1.0
    obs = doc.get("obs")
    if obs is not None:  # absent in pre-obs documents (schema additive)
        for key in ("scenario", "baseline_s", "disabled_s", "enabled_s",
                    "disabled_overhead", "enabled_overhead", "events",
                    "profile_shares"):
            assert key in obs, f"obs result missing {key}"
        assert obs["events"] > 0, "enabled tracer recorded no events"
        assert isinstance(obs["profile_shares"], dict)
        if "sampled_overhead" in obs:  # added with sampled mode (additive)
            for key in ("sampled_s", "events_sampled", "repeats",
                        "sample_every"):
                assert key in obs, f"obs result missing {key}"
            assert obs["events_sampled"] > 0, \
                "sampled tracer recorded no events"
            assert obs["events_sampled"] < obs["events"], \
                "sampled mode recorded as much as full fidelity"
            assert obs["repeats"] >= 3, "median-of-k needs >= 3 rounds"
    suite = doc.get("suite")
    if suite is not None:  # absent in pre-exec documents (schema additive)
        for key in ("sweep", "points", "jobs", "serial_s", "parallel_s",
                    "warm_s", "parallel_speedup", "warm_fraction",
                    "results_match", "warm_hits"):
            assert key in suite, f"suite result missing {key}"
        assert suite["results_match"] is True, "parallel diverged from serial"
        assert suite["warm_hits"] == suite["points"], "warm run missed cache"
    compare = doc.get("compare")
    if compare is not None:  # absent in pre-tournament documents (additive)
        for key in ("policies", "scenarios", "points", "duration_s",
                    "wall_s", "point_s", "winner", "ranking",
                    "fairness_min"):
            assert key in compare, f"compare result missing {key}"
        assert compare["points"] == \
            len(compare["policies"]) * len(compare["scenarios"]), \
            "compare did not run the full policy x scenario cross-product"
        assert compare["ranking"], "compare produced no ranking"
        for entry in compare["ranking"]:
            assert 0.0 < entry["score"] <= 1.0, \
                f"score {entry['score']} outside (0, 1]"
        assert compare["winner"] == compare["ranking"][0]["policy"]
        assert 0.0 <= compare["fairness_min"] <= 1.0
        assert compare["wall_s"] > 0 and compare["point_s"] > 0
    assert isinstance(doc.get("speedup"), float)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("default", "tiny"),
                        default="default")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path (default: BENCH_llc.json "
                             "next to this script)")
    args = parser.parse_args(argv)
    doc = run(args.scale)
    validate(doc)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    for entry in doc["micro"]:
        print(f"micro {entry['name']:>16}: scalar {entry['scalar_s']:.3f}s"
              f"  array {entry['array_s']:.3f}s"
              f"  speedup {entry['speedup']:.2f}x")
    engine = doc["engine"]
    print(f"engine {engine['scenario']}: scalar {engine['scalar_s']:.3f}s"
          f"  array {engine['array_s']:.3f}s"
          f"  speedup {engine['speedup']:.2f}x"
          f"  metrics_match={engine['metrics_match']}")
    if "spec" in engine:
        spec = engine["spec"]
        print(f"       spec: chunk mean {engine['chunk_packets_mean']:.1f}"
              f"  rollbacks {spec['rollbacks']}/{spec['spec_chunks']}"
              f" ({spec['rollback_rate']:.1%})")
    for name, share in sorted(engine.get("stages", {}).items(),
                              key=lambda kv: kv[1], reverse=True):
        print(f"       stage {name:>12}: {share:.1%}")
    rollback = doc.get("rollback")
    if rollback is not None:
        print(f"rollback x{rollback['accesses']}: "
              f"plain {rollback['plain_s']:.3f}s"
              f"  journaled {rollback['journaled_s']:.3f}s"
              f" ({rollback['journal_overhead']:+.1%})"
              f"  rollback {rollback['rollback_s']:.3f}s"
              f"  restored_ok={rollback['restored_ok']}"
              + (f"  cut {rollback['cut_s']:.3f}s"
                 f"  cut_ok={rollback['cut_ok']}"
                 if "cut_ok" in rollback else ""))
    obs = doc["obs"]
    line = (f"obs    {obs['scenario']}: baseline {obs['baseline_s']:.3f}s"
            f"  disabled {obs['disabled_overhead']:+.1%}"
            f"  enabled {obs['enabled_overhead']:+.1%}")
    if "sampled_overhead" in obs:
        line += (f"  sampled(1/{obs['sample_every']}) "
                 f"{obs['sampled_overhead']:+.1%}")
    line += f"  ({obs['events']} events"
    if "events_sampled" in obs:
        line += f", {obs['events_sampled']} sampled"
    line += f"; median of {obs.get('repeats', 1)} pairs)"
    print(line)
    for key, share in sorted(obs["profile_shares"].items(),
                             key=lambda kv: kv[1], reverse=True):
        print(f"       profile {key:>20}: {share:.1%}")
    suite = doc["suite"]
    print(f"suite  {suite['sweep']} x{suite['points']}: "
          f"serial {suite['serial_s']:.3f}s"
          f"  parallel {suite['parallel_s']:.3f}s (jobs={suite['jobs']},"
          f" {suite['parallel_speedup']:.2f}x)"
          f"  warm {suite['warm_s']:.3f}s"
          f" ({suite['warm_fraction']:.1%} of cold)")
    compare = doc["compare"]
    ranked = ", ".join(f"{entry['policy']} {entry['score']:.3f}"
                       for entry in compare["ranking"])
    print(f"compare x{compare['points']}: {compare['wall_s']:.3f}s"
          f" ({compare['point_s']:.3f}s/point)  ranking: {ranked}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
