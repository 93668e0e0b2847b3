"""The simulator benchmark: one command for every workload and metric.

    python3 simbench/run.py [--workload NAME] [--seed N] [--seconds S]
                            [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (``worker.py``), one at a time, and prints its
end-to-end metrics by name and unit; every simulated quantum is checked
against the committed goldens (``goldens.py``), and a quantum whose
digest differs counts as a failed operation.  ``--trace 1`` adds a
second, traced process that times each layer of the simulator from
outside and reports the per-layer metrics instead.

Without ``--workload`` every workload runs in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Metric names,
units and bounds are defined in ``BENCHMARK.json`` at the repository
root; why each workload and layer metric is there is recorded in
``BENCHMARK.json`` and ``rationale.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: A workload's run, all of its processes included, ends within this
#: many seconds.
RUN_LIMIT_S = 170.0

#: The worker's environment.  NumPy's BLAS/OpenMP pools are pinned to
#: one thread: the simulator is single-threaded and is measured that
#: way.  glibc keeps freed memory mapped instead of returning it to the
#: kernel, so each fresh construction reuses the pages the previous one
#: freed: set-up then measures the simulator's work rather than the VM's
#: first-touch page faults, whose cost swings with the host's memory
#: state (by a quarter of leaky-dma-1500's set-up time here).
WORKER_ENV = {
    **{name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: "int | None", seconds: float,
               traced: bool, deadline: float) -> dict:
    """Run one worker process to completion; return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    env = {**os.environ, **WORKER_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: worker timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(timed: dict) -> dict:
    return {"sim_pps": timed["sim_pps"], "setup_s": timed["setup_s"],
            "peak_rss_mb": timed["peak_rss_mb"]}


def per_layer(timed: dict, traced: dict) -> dict:
    out = dict(traced["layers"])
    traced_ms = out.pop("quantum_ms_mean")
    out.update({
        "sim.quantum_ms_p50": timed["quantum_ms_p50"],
        "sim.quantum_ms_p90": timed["quantum_ms_p90"],
        "sim.quanta": timed["quanta"],
        "host.ref_ms": timed["ref_ms"],
        "host.wall_s": timed["wall_s"],
        "trace.overhead": traced_ms / timed["quantum_ms_mean"] - 1.0,
    })
    return out


def describe(timed: dict) -> str:
    seed = timed["seed"] if timed["seed"] is not None else "default"
    check = ("every quantum checked against its golden" if timed["checked"]
             else "no golden for this seed: set-ups cross-checked, first "
             f"quanta replayed under the scalar oracle, digests in "
             f"{timed['digests']}")
    return "\n".join([
        f"{timed['workload']} (seed {seed}; {check}): "
        f"{timed['failed']} of {timed['attempted']} quanta failed",
        f"  sim_pps      {timed['sim_pps']:14.1f} pkt/s  "
        f"(raw {timed['sim_pps_raw']:.1f} pkt/s over {timed['quanta']} "
        f"quanta, {timed['offered']} packets offered)",
        f"  setup_s      {timed['setup_s']:14.4f} s      "
        f"(raw {timed['setup_raw_s']:.4f} s)",
        f"  peak_rss_mb  {timed['peak_rss_mb']:14.2f} MiB",
        f"  host.ref_ms  {timed['ref_ms']:14.3f} ms     "
        f"(host.wall_s {timed['wall_s']:.2f} s raw)",
    ])


def main(argv=None) -> int:
    spec = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec.is_file():
        print("simbench: run from a checkout of the repository "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    bench = json.loads(spec.read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    selected = [args.workload] if args.workload else workloads
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in defs}

    attempted = failed = 0
    metrics: "dict[str, dict]" = {}
    for workload in selected:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            timed = run_worker(workload, args.seed, args.seconds, False,
                               deadline)
            traced = (run_worker(workload, args.seed, args.seconds, True,
                                 deadline) if args.trace else None)
        except WorkerFailed as exc:
            # The quantum the run died on counts as failed.
            print(f"simbench: {exc}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        print(describe(timed))
        attempted += timed["attempted"]
        failed += timed["failed"]
        values = end_to_end(timed)
        if traced is not None:
            attempted += traced["attempted"]
            failed += traced["failed"]
            values = per_layer(timed, traced)
            for name in units:
                print(f"  {name:30s} {values[name]:14.6g} {units[name]}")
        prefix = f"{workload}." if not args.workload else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
