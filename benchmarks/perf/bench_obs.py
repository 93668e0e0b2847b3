"""Tracing-overhead benchmark: the Fig. 8 leaky-DMA scenario with the
tracer absent, disabled, fully enabled, and in sampled mode.

Three numbers matter:

* ``disabled_overhead`` — the cost of merely having the instrumentation
  hooks compiled in (one ``current_tracer()`` load plus an ``enabled``
  check per hook site).  The contract is "near zero";
  ``tests/test_obs.py`` enforces < 5% on a small run.
* ``enabled_overhead`` — the cost of full event emission into the
  structured ring, reported together with ``profile_shares``: each
  span's share of the traced run's span time (where a traced run
  actually spends its wall time), read off the ring.  The shares
  overlap where spans nest: ``engine.*`` and ``dma.burst`` run inside
  ``sim.quantum``, and ``dma.burst`` inside ``engine.traffic``.
* ``sampled_overhead`` — 1-in-``SAMPLE_EVERY`` quantum sampling, the
  always-on production setting: un-sampled quanta emit nothing and
  read no clock.

Methodology — the signal here is tiny (a few hundred ring pushes per
multi-second run, i.e. well under 1%) while per-run noise on a shared
host is 5-15% *multiplicative*, so the estimator does all the work.  An
earlier revision timed each mode once and committed an impossible
negative disabled overhead; plain min-of-k across rounds later swung to
-15% because the baseline never drew a clean round.  The current design
attacks each noise source directly:

1. ``time.process_time`` — CPU time excludes scheduler steal from
   co-tenants, the single largest wall-clock contaminant.
2. GC is collected, then disabled, around every timed region so
   collection cycles are not charged to whichever mode they land on.
3. **Tight pairing**: the baseline is re-run immediately before every
   mode sample, and each round contributes the ratio of the two
   adjacent runs.  Host regime drifts on the scale of seconds; adjacent
   runs see the same regime, so the ratio cancels it.
4. The reported overhead is the **median** of the paired ratios across
   ``REPEATS`` rounds, discarding the heavy tails that any single
   contaminated run produces.

One untimed warm-up per mode precedes measurement (first runs pay
import/allocator/branch-predictor warm-up).
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

from repro.experiments.common import leaky_dma_scenario
from repro.obs import RingBufferSink, Tracer, tracing
from repro.sim.config import TINY_PLATFORM, XEON_6140

#: Paired measurement rounds (median-of-k defeats tail contamination).
REPEATS = 7
#: Sampled mode traces 1 quantum in this many.
SAMPLE_EVERY = 10


def _scenario(scale: str):
    if scale == "tiny":
        spec = dataclasses.replace(TINY_PLATFORM, llc_backend="array")
        return spec, 512, 0.3
    spec = dataclasses.replace(XEON_6140, llc_backend="array")
    return spec, 1500, 2.0


def _timed_run(scale: str, tracer: "Tracer | None") -> float:
    spec, packet_size, duration = _scenario(scale)
    scen = leaky_dma_scenario(packet_size=packet_size, spec=spec)
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    try:
        if tracer is None:
            scen.sim.run(duration)
        else:
            with tracing(tracer):
                scen.sim.run(duration)
    finally:
        gc.enable()
    return time.process_time() - t0


def _full_tracer() -> Tracer:
    tracer = Tracer()
    tracer.add_sink(RingBufferSink(capacity=None))
    return tracer


def _sampled_tracer() -> Tracer:
    return Tracer(sample=SAMPLE_EVERY, seed=0)


def run_obs(scale: str = "default", repeats: int = REPEATS) -> dict:
    """Baseline vs. disabled vs. enabled vs. sampled tracer timings."""
    modes = [
        ("disabled", lambda: Tracer(enabled=False)),
        ("enabled", _full_tracer),
        ("sampled", _sampled_tracer),
    ]
    # Warm-up pass per mode, never timed.
    _timed_run(scale, None)
    for _, make in modes:
        _timed_run(scale, make())

    baseline: "list[float]" = []
    samples = {name: [] for name, _ in modes}
    ratios = {name: [] for name, _ in modes}
    events = events_sampled = 0
    shares: dict = {}
    for _ in range(repeats):
        for name, make in modes:
            base_s = _timed_run(scale, None)
            tracer = make()
            mode_s = _timed_run(scale, tracer)
            baseline.append(base_s)
            samples[name].append(mode_s)
            ratios[name].append(mode_s / base_s)
            if name == "enabled":
                events = len(tracer.ring)
                shares = tracer.profile_shares()
            elif name == "sampled":
                events_sampled = len(tracer.ring)

    def overhead(name: str) -> float:
        return statistics.median(ratios[name]) - 1.0

    return {
        "scenario": "fig08_leaky_dma",
        "repeats": repeats,
        "sample_every": SAMPLE_EVERY,
        "baseline_s": statistics.median(baseline),
        "disabled_s": statistics.median(samples["disabled"]),
        "enabled_s": statistics.median(samples["enabled"]),
        "sampled_s": statistics.median(samples["sampled"]),
        "disabled_overhead": overhead("disabled"),
        "enabled_overhead": overhead("enabled"),
        "sampled_overhead": overhead("sampled"),
        "events": events,
        "events_sampled": events_sampled,
        "profile_shares": shares,
    }
