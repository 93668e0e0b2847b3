"""One benchmark run of one workload, in its own process.

Usage: ``python3 simbench/worker.py --workload NAME [--seed N]
--seconds S [--traced]``.  Prints one JSON object as the last line of
standard output; ``run.py`` starts this process and reads it.

A run sets the scenario up several times — fresh construction, one
scenario alive at a time, each through its first quantum — and then
steps the last one quantum at a time for ``--seconds`` of host time.
Every quantum's digest is checked against the committed golden for the
seed.  For a seed without one, the set-ups must agree with each other
and the first quanta are replayed under the scalar oracle.  Host time
is reference-scaled: the reference kernel runs beside every measured
quantum and around every set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import goldens  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402
from refkernel import NOMINAL_MS, RefKernel  # noqa: E402

#: Fresh constructions per run, at least; cheap set-ups repeat until
#: they have taken SETUP_MIN_S.  ``setup_s`` is their median.
SETUP_REPS = 9
SETUP_MIN_S = 3.0
#: Reference-kernel runs on each side of a set-up.
SETUP_REF_RUNS = 3
#: A measured quantum is scaled by the median of the reference-kernel
#: times within this many quanta of it: pairing each quantum with its
#: own kernel sample cancels the host's speed swings, and the median
#: keeps one slow sample from skewing the quantum it sits beside.
REF_WINDOW = 4
#: ``peak_rss_mb`` is read after this many measured quanta, so that it
#: covers the same simulated work however fast the host runs.
RSS_QUANTA = 100
#: Quanta replayed under the scalar oracle for a seed without a golden.
ORACLE_QUANTA = 3
#: Where runs leave spans and unchecked digests.
OUT_DIR = ROOT / ".simbench"


class Checker:
    """Counts quanta whose digest differs from the expected one.

    With a golden, the golden is expected.  Without one, the first
    digest seen at an index is: fresh set-ups must agree with each
    other, and :meth:`verify_prefix` compares the first quanta with a
    replay under the scalar oracle.
    """

    def __init__(self, golden: "list[str] | None") -> None:
        self.checked = golden is not None
        self.expected = list(golden or ())
        self.attempted = 0
        self.failed = 0

    def check(self, index: int, digest: str) -> None:
        self.attempted += 1
        if index < len(self.expected):
            self.failed += digest != self.expected[index]
        elif not self.checked:
            self.expected.append(digest)

    def exhausted(self, index: int) -> bool:
        return self.checked and index >= len(self.expected)

    def verify_prefix(self, reference: "list[str]") -> None:
        self.failed += sum(a != b for a, b in zip(self.expected, reference))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _local_medians(values: "list[float]", half: int) -> "list[float]":
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def run(workload: str, seed: "int | None", seconds: float,
        traced: bool) -> dict:
    """One run; returns its metrics, bases and failure count."""
    kernel = RefKernel()
    kernel.run()
    checker = Checker(goldens.load(workload, seed))
    log = layers.SpanLog() if traced else None
    result = {"workload": workload, "seed": seed}
    if log is not None:
        log.install()
    try:
        scen, m = _measure(workload, seed, seconds, kernel, checker, log)
    finally:
        if log is not None:
            log.uninstall()
    raw = m["raw"]
    base = _local_medians(m["ref"], REF_WINDOW)
    if log is not None:
        result["layers"] = layers.report(log, m["counters0"],
                                         layers.counters(scen), base,
                                         m["setup_ref"], NOMINAL_MS)
        log.save(OUT_DIR / f"spans-{workload}-{seed}.npz")
    if not checker.checked:
        scen = None
        gc.collect()
        oracle = scenarios.build(workload, seed, oracle=True)
        checker.verify_prefix([scenarios.step(oracle)
                               for _ in range(ORACLE_QUANTA)])
        path = OUT_DIR / f"digests-{workload}-{seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(checker.expected) + "\n")
        result["digests"] = str(path.relative_to(ROOT))

    scaled = [r * NOMINAL_MS / k for r, k in zip(raw, base)]
    setup_scaled = [r * NOMINAL_MS / k
                    for r, k in zip(m["setup_raw"], m["setup_ref"])]
    result.update({
        "checked": checker.checked,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "quanta": len(raw),
        "offered": m["offered"],
        "sim_pps": m["offered"] / sum(scaled),
        "sim_pps_raw": m["offered"] / sum(raw),
        "setup_s": statistics.median(setup_scaled),
        "setup_raw_s": statistics.median(m["setup_raw"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "quantum_ms_mean": 1e3 * sum(scaled) / len(scaled),
        "quantum_ms_p50": 1e3 * statistics.median(scaled),
        "quantum_ms_p90": 1e3 * statistics.quantiles(scaled, n=10)[-1],
        "ref_ms": statistics.median(m["ref"]),
        "wall_s": sum(raw),
    })
    return result


def _measure(workload: str, seed: "int | None", seconds: float,
             kernel: RefKernel, checker: Checker,
             log: "layers.SpanLog | None") -> tuple:
    """Set the scenario up repeatedly, then step the last one for
    ``seconds``; returns it and the raw timings."""
    def build():
        if log is None:
            return scenarios.build(workload, seed)
        return log.span(layers.SETUP_BUILD, scenarios.build, workload, seed)

    gc.collect()
    rss0 = _rss_mb()
    setup_raw, setup_ref = [], []
    scen = None
    rep = 0
    setup_end = time.perf_counter() + SETUP_MIN_S
    while rep < SETUP_REPS or time.perf_counter() < setup_end:
        scen = None
        gc.collect()
        before = [kernel.time_ms() for _ in range(SETUP_REF_RUNS)]
        if log is not None:
            log.quantum = -1 - rep
        t0 = time.perf_counter()
        scen = build()
        scen.sim.run(scen.sim.platform.spec.quantum_s)
        t1 = time.perf_counter()
        after = [kernel.time_ms() for _ in range(SETUP_REF_RUNS)]
        checker.check(0, scenarios.digest(scenarios.quantum_state(scen)))
        setup_raw.append(t1 - t0)
        setup_ref.append(statistics.median(before + after))
        rep += 1

    quantum_s = scen.sim.platform.spec.quantum_s
    offered0 = scenarios.offered_packets(scen)
    counters0 = layers.counters(scen) if log is not None else None
    raw, ref = [], []
    peak_rss_mb = None
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not checker.exhausted(index):
        if log is not None:
            log.quantum = index
        t0 = time.perf_counter()
        scen.sim.run(quantum_s)
        t1 = time.perf_counter()
        ref.append(kernel.time_ms())
        raw.append(t1 - t0)
        checker.check(index, scenarios.digest(scenarios.quantum_state(scen)))
        if index == RSS_QUANTA:
            peak_rss_mb = _rss_mb() - rss0
        index += 1
    if peak_rss_mb is None:
        peak_rss_mb = _rss_mb() - rss0
    return scen, {
        "setup_raw": setup_raw, "setup_ref": setup_ref,
        "raw": raw, "ref": ref, "counters0": counters0,
        "offered": scenarios.offered_packets(scen) - offered0,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
