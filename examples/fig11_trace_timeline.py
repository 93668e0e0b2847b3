#!/usr/bin/env python3
"""Trace the Fig. 11 scenario, then rebuild its timeline from events.

Demonstrates that the legacy recorders are *views* over the trace: run
the paper's LLC-allocation timeline (Fig. 11) with the tracing subsystem
enabled, keep every event in an in-memory ring, and reconstruct — from
the event stream alone — the daemon's FSM/state log, the per-tenant CAT
way masks and the DDIO way mask, then check them against what the
harness returned directly.  Also writes a Perfetto-loadable JSON so the
same run can be inspected at https://ui.perfetto.dev.

Run:  python examples/fig11_trace_timeline.py  (a few minutes; pass
--fast for a shrunken platform that finishes in seconds)
"""

import json
import sys

from repro.experiments import fig11_timeline
from repro.obs import RingBufferSink, Tracer, perfetto_document, tracing, views
from repro.sim.config import TINY_PLATFORM

TRACE_OUT = "trace_fig11.json"


def main() -> None:
    fast = "--fast" in sys.argv[1:]
    tracer = Tracer()
    ring = tracer.add_sink(RingBufferSink(capacity=None))

    with tracing(tracer):
        if fast:
            result = fig11_timeline.run(t_grow=0.5, t_ddio=1.0,
                                        t_end=1.5, spec=TINY_PLATFORM)
        else:
            result = fig11_timeline.run()

    # Reconstruct the timeline purely from the event stream.
    print("FSM timeline (from daemon/iteration events):")
    for t, state in views.fsm_timeline(ring):
        print(f"  t={t:5.1f}s  {state.value}")

    print("\nway-mask timeline (from metrics/quantum events, last 5):")
    masks = views.mask_timeline(ring)
    times = views.times(ring)
    ddio = views.ddio_mask_timeline(ring)
    for i in range(max(0, len(times) - 5), len(times)):
        row = "  ".join(f"{name}={masks[name][i]:#05x}"
                        for name in sorted(masks))
        print(f"  t={times[i]:5.2f}s  ddio={ddio[i]:#05x}  {row}")

    # The acceptance check: views must equal the harness's own records.
    assert views.history_from_events(ring) == result.daemon_history
    assert views.times(ring) == list(result.times)
    assert views.ddio_mask_timeline(ring) == list(result.ddio_masks)
    for name, series in result.masks.items():
        assert masks[name] == list(series)
    print("\nreconstruction matches Fig11Result exactly "
          f"({len(ring)} events)")

    with open(TRACE_OUT, "w") as handle:
        json.dump(perfetto_document(ring.events()), handle)
    print(f"Perfetto trace -> {TRACE_OUT} (open at ui.perfetto.dev)")

    shares = tracer.profile_shares()
    if shares:
        print("self-profile (wall-time shares of the spans):")
        for key, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {key:>20}  {share:6.1%}")


if __name__ == "__main__":
    main()
