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

Tracing composes with parallelism through *trace shards*: give the
runner a :class:`TraceFanout` and every computed point — in-process or
in a worker — records into its own tracer and writes one shard file
(meta + heartbeats + events, see :mod:`repro.obs.merge`); the parent
merges all shards into a single Perfetto document afterwards
(:meth:`ParallelRunner.write_merged_trace`).  An *in-process* enabled
tracer (``repro trace``) still forces serial execution — workers can't
feed the parent's tracer — but that is now the fallback, not the only
path.  Shard runs skip cache **reads** (a cached point would record no
events) while still populating the cache for later runs.

The executor is created lazily and kept for the runner's lifetime, so
one runner can drive many sweeps — ``repro suite`` pushes every figure
through a single shared pool.  Use the runner as a context manager (or
call :meth:`close`) to shut the pool down.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from time import perf_counter

from ..obs import current_tracer
from ..obs.merge import ShardWriter, write_merged
from ..obs.tracer import Tracer, tracing
from .cache import ResultCache, code_fingerprint, point_key
from .progress import SweepProgress
from .sweep import SweepSpec

__all__ = ["ParallelRunner", "TraceFanout", "run_sweep"]

#: Upper bound on points per worker task, so a long sweep still reports
#: progress at a useful cadence.
_MAX_CHUNK = 32


def _call_point(func, params: dict):
    """Module-level worker entry point (picklable by reference).

    Returns ``(result, compute_seconds)`` — the duration is measured in
    the worker so the parent's ETA reflects compute time, not queueing.
    """
    start = perf_counter()
    value = func(**params)
    return value, perf_counter() - start


def _call_chunk(func, params_list: "list[dict]") -> list:
    """Run several points in one worker task.

    Submitting chunks instead of single points amortizes the per-task
    pickling and queue round-trips that made fine-grained fan-out lose
    to the serial loop on short points.
    """
    return [_call_point(func, params) for params in params_list]


@dataclass
class TraceFanout:
    """Per-point trace-shard recording for sweep runs.

    ``dir``       directory the shard files are written into;
    ``sample``    1-in-N quantum sampling for each point's tracer
                  (``None`` = full fidelity);
    ``seed``      sampling seed (shared by every point, so identical
                  configs sample identical quanta);
    ``capacity``  per-point event bound (``None`` = unbounded; overflow
                  is counted in the shard's ``done`` heartbeat).
    """

    dir: str
    sample: "int | None" = None
    seed: int = 0
    capacity: "int | None" = None


def _call_point_shard(func, params: dict, shard: dict):
    """Worker entry for one traced point: run ``func`` under a fresh
    tracer and write the events as a shard file (see
    :mod:`repro.obs.merge`).  Works identically in-process and in a
    pool worker — each point gets its own tracer either way."""
    writer = ShardWriter(shard["path"], index=shard["index"],
                         label=shard["label"], sweep=shard["sweep"],
                         params=shard["params"], sample=shard["sample"],
                         seed=shard["seed"])
    writer.heartbeat("start")
    tracer = Tracer(capacity=shard["capacity"], sample=shard["sample"],
                    seed=shard["seed"])
    start = perf_counter()
    try:
        with tracing(tracer):
            value = func(**params)
    except BaseException:
        writer.heartbeat("error")
        writer.close()
        raise
    seconds = perf_counter() - start
    events = tracer.events()
    writer.write_events(events)
    writer.heartbeat("done", events=len(events), dropped=tracer.dropped,
                     wall_s=seconds)
    writer.close()
    return value, seconds


def _call_chunk_shard(func, items: "list[tuple[dict, dict]]") -> list:
    """Chunked variant of :func:`_call_point_shard`."""
    return [_call_point_shard(func, params, shard)
            for params, shard in items]


class ParallelRunner:
    """Executes sweeps; owns an optional process pool and result cache.

    ``jobs``      worker processes; ``None`` means ``os.cpu_count()``.
                  ``1`` runs points serially in-process (no pool, no
                  pickling of results — the historical behavior).
    ``cache``     a :class:`~repro.exec.cache.ResultCache`, or ``None``
                  to recompute everything.
    ``echo``      keep a progress/ETA line updated on stderr.
    ``trace``     a :class:`TraceFanout` to record every computed point
                  as a trace shard (merged afterwards with
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
        self._shards: "list[str]" = []
        self._shard_seq = 0

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
        todo: "list[int]" = []
        keys: "list[str] | None" = None

        # Shard-tracing runs skip cache reads (a cache hit records no
        # events) but still populate the cache in _finish.
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

        shards = self._plan_shards(spec, todo)
        jobs = self.effective_jobs()
        if len(todo) <= 1 or jobs == 1:
            for i in todo:
                if shards is not None:
                    value, seconds = _call_point_shard(
                        spec.func, points[i].params, shards[i])
                else:
                    value, seconds = _call_point(spec.func,
                                                 points[i].params)
                self._finish(spec, i, keys, results, progress,
                             value, seconds)
        else:
            pool = self._pool(jobs)
            # Contiguous chunks, ~4 waves per worker: large enough to
            # amortize task overhead, small enough to load-balance.
            size = max(1, min(_MAX_CHUNK, -(-len(todo) // (jobs * 4))))
            chunks = [todo[at:at + size]
                      for at in range(0, len(todo), size)]
            if shards is not None:
                futures = {pool.submit(
                    _call_chunk_shard, spec.func,
                    [(points[i].params, shards[i]) for i in chunk]):
                    chunk for chunk in chunks}
            else:
                futures = {pool.submit(
                    _call_chunk, spec.func,
                    [points[i].params for i in chunk]):
                    chunk for chunk in chunks}
            for future in as_completed(futures):
                chunk = futures[future]
                for i, (value, seconds) in zip(chunk, future.result()):
                    self._finish(spec, i, keys, results, progress,
                                 value, seconds)
        progress.finish()
        return results

    def _plan_shards(self, spec: SweepSpec,
                     todo: "list[int]") -> "dict[int, dict] | None":
        """Assign one shard file (with a globally unique index) per
        computed point; records the paths for the final merge."""
        fanout = self.trace
        if fanout is None or not todo:
            return None
        os.makedirs(fanout.dir, exist_ok=True)
        shards: "dict[int, dict]" = {}
        for i in todo:
            index = self._shard_seq
            self._shard_seq = index + 1
            params = spec.points[i].params
            label = ",".join(f"{k}={v}" for k, v in sorted(params.items())
                             if v is not None)
            path = os.path.join(fanout.dir,
                                f"{spec.name}-{index:04d}.jsonl")
            shards[i] = {"path": path, "index": index,
                         "label": f"{spec.name}[{label}]",
                         "sweep": spec.name, "params": spec.points[i].key(),
                         "sample": fanout.sample, "seed": fanout.seed,
                         "capacity": fanout.capacity}
            self._shards.append(path)
        return shards

    def write_merged_trace(self, out) -> "dict | None":
        """Merge every shard recorded so far (across all sweeps this
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
