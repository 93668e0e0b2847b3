"""Progress and ETA reporting for sweep runs, wired through repro.obs.

Every completed point emits an ``exec`` counter sample on the process-
wide tracer (``done`` / ``total`` / ``cache_hits`` / ``eta_s``), so a
traced run shows the sweep's progress as a counter track next to the
simulation's own telemetry; a finished sweep additionally emits one
``exec/sweep_done`` instant with the wall-clock totals.  When ``echo``
is on, a single carriage-return status line with point counts and a
wall-clock ETA is kept up to date on ``stream`` (stderr by default) —
the CLI enables this only when stderr is a TTY.

ETA is the classic remaining-work estimate: mean wall seconds per
*computed* point (cache hits are excluded — they are ~free and would
drag the estimate toward zero) times the number of points still to run.
"""

from __future__ import annotations

import sys
import time

from ..obs.tracer import current_tracer

__all__ = ["SweepProgress"]


class SweepProgress:
    """Tracks one sweep run; not thread-safe (the runner completes
    points from a single thread)."""

    def __init__(self, name: str, total: int, *, echo: bool = False,
                 stream=None, clock=time.perf_counter) -> None:
        self.name = name
        self.total = total
        self.echo = echo
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.done = 0
        self.cache_hits = 0
        self._computed_s = 0.0
        self._start = clock()

    # ------------------------------------------------------------------
    def eta_s(self) -> float:
        computed = self.done - self.cache_hits
        if computed <= 0:
            return 0.0
        remaining = self.total - self.done
        return self._computed_s / computed * remaining

    def point_done(self, *, cached: bool, seconds: float = 0.0) -> None:
        self.done += 1
        if cached:
            self.cache_hits += 1
        else:
            self._computed_s += seconds
        eta = self.eta_s()
        current_tracer().counter("exec", self.name, done=self.done,
                                 total=self.total,
                                 cache_hits=self.cache_hits, eta_s=eta)
        if self.echo:
            self.stream.write(
                f"\r[{self.name}] {self.done}/{self.total} points "
                f"({self.cache_hits} cached)  eta {eta:5.1f}s ")
            self.stream.flush()

    def finish(self) -> float:
        """Emit the sweep-done instant; returns elapsed wall seconds."""
        elapsed = self.clock() - self._start
        current_tracer().instant("exec", "sweep_done", sweep=self.name,
                                 points=self.total,
                                 cache_hits=self.cache_hits,
                                 wall_s=elapsed)
        if self.echo:
            self.stream.write(
                f"\r[{self.name}] {self.done}/{self.total} points "
                f"({self.cache_hits} cached) in {elapsed:.1f}s\n")
            self.stream.flush()
        return elapsed
