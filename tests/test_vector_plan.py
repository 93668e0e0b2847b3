"""VectorPlan materialization: a brute-force oracle, cache bounds, and
launch accounting.

``VectorPlan.materialize`` builds a chunk's line stream on one of two
paths — a cached per-structure template for uniform identity-packet
stage lists, and an uncached segment sort for everything else.  A
brute-force reference materializer written straight from the ordering
contract (packets ascending, then stages by (rank, insertion), then
each stage's segments for that packet in order, then a segment's 64 B
lines in address order) is the oracle for both: a seeded fuzz checks
every output array, dtypes included.  The remaining tests pin the
template cache's bound, the eviction-correctness contract (an evicted
template rebuilds bit-identically), and the hand-maintained
``EngineStats.kernel_launches`` accounting that the CI
``--launches-ceiling`` gate reads.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.workloads.base as base
from repro.workloads.base import ENGINE_STATS, PKT_IOTA, VectorPlan


def _stage_chunk(plan: VectorPlan, k: int, *, rank: int = 6) -> None:
    """Stage a representative steady-state chunk: three uniform iota
    stages (buffer write, app read, forward write at ``rank``) over
    ``k`` packets."""
    pkts = PKT_IOTA[:k]
    base_addrs = np.arange(k, dtype=np.int64) * 4096
    plan.add_batch(base_addrs, 2, pkts=pkts, rank=0, write=True)
    plan.add_batch(base_addrs + 64, 1, pkts=pkts, rank=1)
    plan.add_batch(base_addrs + (1 << 20), 3, pkts=pkts, rank=rank,
                   write=True)


def _stage_keyed(plan: VectorPlan, k: int) -> None:
    """Stage a ragged chunk: mixed buffer line counts plus a subset
    stage, the shape of a mixed-size OVS or Redis chunk."""
    pkts = PKT_IOTA[:k]
    base_addrs = np.arange(k, dtype=np.int64) * 4096
    counts = np.where(np.arange(k) % 3 == 0, 18, 2)
    plan.add_batch(base_addrs, counts, pkts=pkts, rank=0)
    plan.add_batch(base_addrs + 64, 1, pkts=pkts, rank=1)
    odd = pkts[1::2].copy()
    plan.add_batch(base_addrs[odd] + (1 << 20), 16, pkts=odd, rank=3,
                   write=True)
    plan.add_batch(base_addrs, 1, pkts=pkts, rank=VectorPlan.MAX_RANK - 1,
                   device=True)


def _materialized(plan: VectorPlan):
    """Materialize and copy the scratch-backed views for comparison."""
    out = plan.materialize()
    assert out is not None
    addrs, write, mlp_inv, dev, pkt = out
    return (addrs.copy(), write.copy(), mlp_inv.copy(),
            None if dev is None else dev.copy(), pkt.copy())


def _assert_identical(got, want) -> None:
    """Field for field, dtypes included."""
    assert (got is None) == (want is None)
    if got is None:
        return
    for name, a, b in zip(("addrs", "write", "mlp_inv", "device", "pkt"),
                          got, want):
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


def _template_bytes(plan: VectorPlan) -> int:
    return sum(getattr(template, name).nbytes
               for template in plan._templates.values()
               for name in ("s_pat", "off_pat", "write", "mlp_inv", "pkt"))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
class _Recorder:
    """Stages on a plan and keeps the arguments for the reference."""

    def __init__(self, plan: VectorPlan) -> None:
        self.plan = plan
        self.stages: "list[dict]" = []

    def add(self, bases, counts, *, pkts, rank, write=False, mlp=1.0,
            device=False) -> None:
        self.plan.add_batch(bases, counts, pkts=pkts, rank=rank,
                            write=write, mlp=mlp, device=device)
        self.stages.append(dict(bases=bases, counts=counts, pkts=pkts,
                                rank=rank, write=write, mlp=mlp,
                                device=device))


def _reference(stages: "list[dict]"):
    """The ordering contract, one line at a time: packets ascending,
    then stages by (rank, insertion), then each stage's segments for
    that packet in order, then a segment's 64 B lines in order."""
    order = sorted(range(len(stages)), key=lambda j: (stages[j]["rank"], j))
    packets = sorted({int(p) for st in stages for p in st["pkts"]})
    lines = []
    for p in packets:
        for j in order:
            st = stages[j]
            counts = np.broadcast_to(st["counts"], (len(st["pkts"]),))
            for i, q in enumerate(st["pkts"]):
                if int(q) != p:
                    continue
                for line in range(int(counts[i])):
                    lines.append((int(st["bases"][i]) + line * 64,
                                  st["write"],
                                  0.0 if st["device"] else 1.0 / st["mlp"],
                                  st["device"], p))
    if not lines:
        return None
    addrs, write, mlp_inv, dev, pkt = zip(*lines)
    return (np.asarray(addrs, dtype=np.int64),
            np.asarray(write, dtype=bool),
            np.asarray(mlp_inv, dtype=np.float64),
            np.asarray(dev, dtype=bool) if any(dev) else None,
            np.asarray(pkt, dtype=np.int64))


def _random_stage(rec: _Recorder, rng, k: int, *, uniform: bool) -> None:
    """One random stage over ``k`` packet slots.  Uniform stages cover
    ``PKT_IOTA[:k]`` with a scalar count (template-eligible); the rest
    draw ragged counts with zeros, subsets, unsorted ids and repeats."""
    rank = int(rng.integers(0, VectorPlan.MAX_RANK))
    write = bool(rng.integers(0, 2))
    device = bool(rng.integers(0, 4) == 0)
    mlp = float(rng.choice([1.0, 2.0, 8.0]))
    if uniform:
        pkts = PKT_IOTA[:k]
        counts = int(rng.integers(0, 4))
    else:
        shape = int(rng.integers(0, 4))
        if shape == 0:                     # identity ids, ragged counts
            pkts = PKT_IOTA[:k]
        elif shape == 1:                   # ascending subset
            pkts = np.flatnonzero(rng.integers(0, 2, size=k))
        elif shape == 2:                   # unsorted, with repeats
            pkts = rng.integers(0, k, size=int(rng.integers(0, 2 * k)))
        else:                              # ascending, with repeats
            pkts = np.sort(rng.integers(0, k, size=int(rng.integers(0, k))))
        m = len(pkts)
        counts = (rng.integers(0, 4, size=m) if rng.integers(0, 2)
                  else int(rng.integers(0, 4)))
    bases = rng.integers(0, 1 << 30, size=len(pkts)) * 64
    rec.add(bases, counts, pkts=pkts, rank=rank, write=write, mlp=mlp,
            device=device)


class TestMaterializeOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_matches_reference(self, seed):
        """Random stage lists, template-eligible and keyed, against the
        brute-force reference; one long-lived plan so templates and
        scratch are reused across chunks of varying size."""
        rng = np.random.default_rng(seed)
        plan = VectorPlan()
        for _ in range(120):
            k = int(rng.integers(1, 70))
            uniform = bool(rng.integers(0, 2))
            plan.reset()
            rec = _Recorder(plan)
            for _ in range(int(rng.integers(1, 6))):
                _random_stage(rec, rng, k, uniform=uniform)
            _assert_identical(plan.materialize(), _reference(rec.stages))

    def test_template_grows_past_capacity(self):
        """One uniform structure over chunk sizes that keep exceeding
        the template's capacity, then shrink back below it."""
        plan = VectorPlan()
        rng = np.random.default_rng(5)
        for k in (3, 4, 9, 40, 41, 300, 7, 301, 1000, 1):
            plan.reset()
            rec = _Recorder(plan)
            pkts = PKT_IOTA[:k]
            rec.add(rng.integers(0, 1 << 20, size=k) * 64, 24, pkts=pkts,
                    rank=0, mlp=8.0)
            rec.add(rng.integers(0, 1 << 20, size=k) * 64, 1, pkts=pkts,
                    rank=1)
            rec.add(rng.integers(0, 1 << 20, size=k) * 64, 24, pkts=pkts,
                    rank=6, write=True, mlp=8.0)
            rec.add(rng.integers(0, 1 << 20, size=k) * 64, 2, pkts=pkts,
                    rank=VectorPlan.MAX_RANK - 1, device=True)
            _assert_identical(plan.materialize(), _reference(rec.stages))
        assert len(plan._templates) == 1

    def test_unsorted_single_stage_is_packet_ordered(self):
        """A single keyed stage with unsorted, repeated ids still comes
        back ascending by packet, segments of a packet in stage order."""
        plan = VectorPlan()
        rec = _Recorder(plan)
        rec.add(np.asarray([300, 100, 200, 400]) * 64, 2,
                pkts=np.asarray([2, 0, 2, 1]), rank=0)
        got = _materialized(plan)
        np.testing.assert_array_equal(got[4], [0, 0, 1, 1, 2, 2, 2, 2])
        np.testing.assert_array_equal(
            got[0], np.asarray([100, 101, 400, 401, 300, 301, 200, 201])
            * 64)
        _assert_identical(got, _reference(rec.stages))

    def test_empty_stages_materialize_to_none(self):
        plan = VectorPlan()
        assert plan.materialize() is None
        plan.add_batch(np.arange(4) * 64, 0, pkts=PKT_IOTA[:4], rank=0)
        assert plan.materialize() is None
        plan.reset()
        plan.add_batch(np.arange(4) * 64, np.zeros(4, dtype=np.int64),
                       pkts=PKT_IOTA[:4], rank=0)
        plan.add_batch(np.arange(0), 3, pkts=np.arange(0), rank=1)
        assert plan.materialize() is None


class TestCacheBounds:
    def test_template_bytes_flat_under_variable_chunk_sizes(self):
        """Every chunk size shares one template, sized by the largest
        chunk it served: once that one has run, the cached bytes stay
        flat however many distinct sizes follow."""
        plan = VectorPlan()
        plan.reset()
        _stage_chunk(plan, 256)
        assert plan.materialize() is not None
        cached = _template_bytes(plan)
        for k in range(1, 257):
            plan.reset()
            _stage_chunk(plan, k)
            assert plan.materialize() is not None
            assert _template_bytes(plan) == cached
        assert len(plan._templates) == 1

    def test_keyed_chunks_cache_nothing(self):
        plan = VectorPlan()
        for k in range(1, 100):
            plan.reset()
            _stage_keyed(plan, k)
            assert plan.materialize() is not None
        assert not plan._templates

    def test_template_cache_bounded_under_variable_ranks(self):
        plan = VectorPlan()
        for i in range(VectorPlan.TEMPLATE_CACHE_CAP + 20):
            plan.reset()
            _stage_chunk(plan, 16, rank=2 + i)
            assert plan.materialize() is not None
        assert len(plan._templates) == VectorPlan.TEMPLATE_CACHE_CAP

    def test_evicted_template_rebuilds_identically(self):
        plan = VectorPlan()
        plan.reset()
        _stage_chunk(plan, 7)
        before = _materialized(plan)
        # Thrash the template cache well past its bound...
        for i in range(VectorPlan.TEMPLATE_CACHE_CAP + 50):
            plan.reset()
            _stage_chunk(plan, 1 + i % 90, rank=7 + i)
            assert plan.materialize() is not None
        assert len(plan._templates) == VectorPlan.TEMPLATE_CACHE_CAP
        # ...then the original chunk must rebuild bit-identically.
        plan.reset()
        _stage_chunk(plan, 7)
        _assert_identical(_materialized(plan), before)


class _CountingNumpy:
    """Module proxy that counts calls to a representative kernel set.

    Everything else delegates to the real module, so base.py keeps
    working; ``asarray`` and allocation helpers are deliberately not
    counted (no data pass over chunk-sized arrays).
    """

    COUNTED = frozenset({
        "arange", "multiply", "add", "take", "concatenate", "tile",
        "repeat", "cumsum", "argsort", "full", "zeros", "bincount",
        "stack", "subtract",
    })

    def __init__(self, real):
        self._real = real
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name in self.COUNTED:
            def wrapper(*args, _attr=attr, **kwargs):
                self.calls += 1
                return _attr(*args, **kwargs)
            return wrapper
        return attr


def _assert_accounting_tracks_calls(monkeypatch, stage) -> None:
    """Materialize two ``stage``-shaped chunks on one plan; the recorded
    launches and the counted NumPy-module calls must agree within a
    tolerance wide enough for ndarray-method kernels (operators, fancy
    indexing) that a module proxy cannot see, but tight enough that
    dropped or doubled accounting fails."""
    plan = VectorPlan()
    proxy = _CountingNumpy(np)
    monkeypatch.setattr(base, "np", proxy)
    start = ENGINE_STATS.kernel_launches
    for _ in range(2):
        plan.reset()
        stage(plan, 13)
        assert plan.materialize() is not None
    recorded = ENGINE_STATS.kernel_launches - start
    counted = proxy.calls
    assert counted > 0
    assert abs(recorded - counted) <= max(5, 0.5 * counted), \
        f"recorded {recorded} launches vs {counted} counted calls"


class TestLaunchAccounting:
    def test_materialize_accounting_tracks_real_kernel_calls(
            self, monkeypatch):
        """The hand-maintained increments must track reality: one chunk
        through the template build plus one template hit."""
        _assert_accounting_tracks_calls(monkeypatch, _stage_chunk)

    def test_keyed_accounting_tracks_real_kernel_calls(self, monkeypatch):
        """The same for two uncached keyed builds."""
        _assert_accounting_tracks_calls(monkeypatch, _stage_keyed)

    def test_layout_hit_is_single_digit_launches(self):
        """A chunk whose template is cached costs three launches."""
        plan = VectorPlan()
        plan.reset()
        _stage_chunk(plan, 29)
        assert plan.materialize() is not None
        start = ENGINE_STATS.kernel_launches
        plan.reset()
        _stage_chunk(plan, 29)
        assert plan.materialize() is not None
        assert ENGINE_STATS.kernel_launches - start <= 4


class TestLayoutCorrectness:
    def test_template_stamp_matches_generic_build(self):
        """The template path must order lines exactly like the keyed
        segment-sort build for the same stages."""
        fast = VectorPlan()
        _stage_chunk(fast, 11)
        assert fast._template_key()[0] is not None
        got = _materialized(fast)

        slow = VectorPlan()
        pkts = PKT_IOTA[:11].copy()  # real copy: not iota-eligible
        base_addrs = np.arange(11, dtype=np.int64) * 4096
        slow.add_batch(base_addrs, 2, pkts=pkts, rank=0, write=True)
        slow.add_batch(base_addrs + 64, 1, pkts=pkts, rank=1)
        slow.add_batch(base_addrs + (1 << 20), 3, pkts=pkts, rank=6,
                       write=True)
        assert slow._template_key()[0] is None
        _assert_identical(got, _materialized(slow))

    def test_subset_stages_fall_back_and_interleave(self):
        plan = VectorPlan()
        pkts = PKT_IOTA[:4]
        bases = np.asarray([0, 1000, 2000, 3000], dtype=np.int64)
        plan.add_batch(bases, 1, pkts=pkts, rank=0)
        miss = np.asarray([1, 3], dtype=np.int64)
        plan.add_batch(bases[miss] + 64, 1, pkts=miss, rank=2, write=True)
        addrs, write, _, _, pkt = _materialized(plan)
        np.testing.assert_array_equal(pkt, [0, 1, 1, 2, 3, 3])
        np.testing.assert_array_equal(addrs,
                                      [0, 1000, 1064, 2000, 3000, 3064])
        np.testing.assert_array_equal(write,
                                      [False, False, True, False, False,
                                       True])
