"""The sweep runner: fan independent points across processes, replay
completed ones from the cache.

:class:`ParallelRunner` executes a :class:`~repro.exec.sweep.SweepSpec`
and returns the point results *in declared point order*, regardless of
completion order, cache state, or worker count — so

* ``ParallelRunner(jobs=1)`` (a plain in-process loop) and
* ``ParallelRunner(jobs=N)`` (a forkserver ``ProcessPoolExecutor``
  fed contiguous point chunks rather than single points)

produce bit-identical result lists: every point function builds its own
explicitly-seeded simulation from its arguments alone, and pickling the
result back from a worker preserves float bits exactly.

Tracing composes with parallelism: give the runner a
:class:`TraceFanout` and every computed point — in-process or in a
worker — records into its own tracer and returns that tracer's events
with its result, over the same path every result takes.  The parent
keeps each point's events as a :class:`~repro.obs.merge.TraceShard`,
indexed and labelled in declared point order, and merges them into one
Perfetto document afterwards (:meth:`ParallelRunner.write_merged_trace`).
An *in-process* enabled tracer (``repro trace``) still forces serial
execution — workers can't feed the parent's tracer.  Traced runs skip
cache **reads** (a cached point would record no events) while still
populating the cache for later runs.

The executor is created lazily and kept for the runner's lifetime, so
one runner can drive many sweeps — ``repro suite`` pushes every figure
through a single shared pool.  Use the runner as a context manager (or
call :meth:`close`) to shut the pool down.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass

from ..obs import current_tracer
from ..obs.merge import TraceShard, write_merged
from ..obs.tracer import Tracer, tracing
from .cache import ResultCache, code_fingerprint, point_key
from .progress import SweepProgress
from .sweep import SweepSpec

__all__ = ["ParallelRunner", "TraceFanout", "run_sweep"]

#: Upper bound on points per worker task, so a long sweep still reports
#: progress at a useful cadence.
_MAX_CHUNK = 32


@dataclass
class TraceFanout:
    """Per-point tracing for sweep runs.

    ``sample``    1-in-N quantum sampling for each point's tracer
                  (``None`` = full fidelity).
    """

    sample: "int | None" = None


def _call_chunk(func, params_list: "list[dict]",
                trace: "TraceFanout | None" = None) -> list:
    """Run points in order, in-process or as one pool task.

    Returns ``(value, seconds, shard)`` per point.  ``seconds`` is
    measured where the point runs, so the parent's ETA reflects compute
    time, not queueing.  With ``trace`` each point runs under a fresh
    tracer and ``shard`` is ``(epoch, events, dropped)``: the Unix time
    the tracer was created, its retained events and its dropped count.
    Without it the point runs under whatever tracer is installed and
    ``shard`` is ``None``.  Submitting chunks instead of single points
    amortizes the per-task pickling and queue round-trips that made
    fine-grained fan-out lose to the serial loop on short points.
    """
    out = []
    for params in params_list:
        tracer = None if trace is None else Tracer(sample=trace.sample)
        epoch = time.time()
        start = time.perf_counter()
        with tracing(tracer) if tracer is not None else nullcontext():
            value = func(**params)
        seconds = time.perf_counter() - start
        shard = None if tracer is None else \
            (epoch, tracer.events(), tracer.dropped)
        out.append((value, seconds, shard))
    return out


class ParallelRunner:
    """Executes sweeps; owns an optional process pool and result cache.

    ``jobs``      worker processes; ``None`` means ``os.cpu_count()``.
                  ``1`` runs points serially in-process (no pool, no
                  pickling of results — the historical behavior).
    ``cache``     a :class:`~repro.exec.cache.ResultCache`, or ``None``
                  to recompute everything.
    ``echo``      keep a progress/ETA line updated on stderr.
    ``trace``     a :class:`TraceFanout` to record every computed point
                  under its own tracer (merged afterwards with
                  :meth:`write_merged_trace`), or ``None``.
    """

    def __init__(self, *, jobs: "int | None" = None,
                 cache: "ResultCache | None" = None,
                 echo: bool = False,
                 trace: "TraceFanout | None" = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.echo = echo
        self.trace = trace
        self._executor: "ProcessPoolExecutor | None" = None
        self._shards: "list[TraceShard]" = []

    # ------------------------------------------------------------------
    def effective_jobs(self) -> int:
        """Worker count for the next sweep; 1 under an active tracer."""
        if current_tracer().enabled:
            return 1
        return self.jobs if self.jobs else max(1, os.cpu_count() or 1)

    def _pool(self, jobs: int) -> ProcessPoolExecutor:
        if self._executor is None:
            # forkserver: workers fork from a small, numpy-free server
            # process instead of the fully-loaded parent, so spawning is
            # cheap and repeatable; fork-from-parent copies the page
            # tables of every simulation the parent has already run.
            self._executor = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("forkserver"))
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> list:
        """Evaluate every point; results in declared point order."""
        points = spec.points
        total = len(points)
        progress = SweepProgress(spec.name, total, echo=self.echo)
        results: "list[object]" = [None] * total
        shards: "list[tuple | None]" = [None] * total
        todo: "list[int]" = []
        keys: "list[str] | None" = None

        # Traced runs skip cache reads (a cache hit records no events)
        # but still populate the cache in _finish.
        if self.cache is not None:
            keys = [point_key(spec, p) for p in points]
        if self.cache is not None and self.trace is None:
            for i, key in enumerate(keys):
                hit, value = self.cache.get(spec.name, key)
                if hit:
                    results[i] = value
                    progress.point_done(cached=True)
                else:
                    todo.append(i)
        else:
            todo = list(range(total))

        jobs = self.effective_jobs()
        if len(todo) <= 1 or jobs == 1:
            done = (([i], _call_chunk(spec.func, [points[i].params],
                                      self.trace)) for i in todo)
        else:
            pool = self._pool(jobs)
            # Contiguous chunks, ~4 waves per worker: large enough to
            # amortize task overhead, small enough to load-balance.
            size = max(1, min(_MAX_CHUNK, -(-len(todo) // (jobs * 4))))
            chunks = [todo[at:at + size]
                      for at in range(0, len(todo), size)]
            futures = {pool.submit(
                _call_chunk, spec.func, [points[i].params for i in chunk],
                self.trace): chunk for chunk in chunks}
            done = ((futures[future], future.result())
                    for future in as_completed(futures))
        for chunk, outcomes in done:
            for i, (value, seconds, shard) in zip(chunk, outcomes):
                shards[i] = shard
                self._finish(spec, i, keys, results, progress,
                             value, seconds)
        progress.finish()
        if self.trace is not None:
            for i in todo:
                self._keep_shard(spec, i, *shards[i])
        return results

    def _keep_shard(self, spec: SweepSpec, i: int, epoch: float,
                    events: list, dropped: int) -> None:
        """Keep point ``i``'s events for the merge, under the next
        index across every sweep this runner traced."""
        params = spec.points[i].params
        label = ",".join(f"{k}={v}" for k, v in sorted(params.items())
                         if v is not None)
        self._shards.append(TraceShard(
            index=len(self._shards), label=f"{spec.name}[{label}]",
            epoch=epoch, events=events, dropped=dropped))

    def write_merged_trace(self, out) -> "dict | None":
        """Merge every point traced so far (across all sweeps this
        runner ran) into one Perfetto document at ``out``; returns the
        merge summary, or ``None`` if nothing was traced."""
        if not self._shards:
            return None
        return write_merged(self._shards, out)

    def _finish(self, spec, index, keys, results, progress,
                value, seconds) -> None:
        results[index] = value
        if self.cache is not None and keys is not None:
            self.cache.put(spec.name, keys[index], value,
                           meta={"sweep": spec.name,
                                 "params": spec.points[index].key(),
                                 "fingerprint": code_fingerprint()})
        progress.point_done(cached=False, seconds=seconds)


def run_sweep(spec: SweepSpec,
              runner: "ParallelRunner | None" = None) -> list:
    """Run ``spec`` through ``runner``, or serially in-process (no pool,
    no cache) when none is given — the default for library callers, so
    ``fig08_leaky_dma.run()`` behaves exactly as it always has unless a
    runner is handed in (the CLI builds one from ``--jobs``/``--cache``
    flags)."""
    if runner is None:
        return ParallelRunner(jobs=1).run(spec)
    return runner.run(spec)
