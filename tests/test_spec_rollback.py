"""Copy-on-write rollback correctness for speculative chunk admission.

The run-ahead engine (:meth:`repro.workloads.base.Workload._run_ahead`,
shared by the ring, RocksDB and X-Mem drains) admits chunks on
*predicted* cost and undoes any overshoot with the LLC's copy-on-write
journal plus counter snapshots.
These tests attack that machinery from three sides:

* **journal fuzz** — randomized mixed mutation streams against
  :class:`~repro.cache.llc.SlicedLLC` between ``snapshot()`` and
  ``rollback()``, asserting the full structure-of-arrays state (tags,
  LRU stamps, dirty bits, owners), the occupancy accounting, every
  cumulative stat counter and the replacement RNG come back bit-exact;
* **commit twin** — the journal must be *pure overhead*: a committed
  speculative run ends in the same state as an unjournaled twin;
* **forced mispredictions** — end-to-end runs with
  ``SPEC_HEADROOM`` cranked up so the run-ahead engine overshoots its
  quantum budget constantly (the pathological spiky-cost case: an
  X-Mem thrasher beside the I/O app, plus the fig. 8 OVS chain), then
  field-for-field record equality against the scalar reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache.llc import DDIO_OWNER, CacheGeometry, SlicedLLC
from repro.core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from repro.experiments.common import leaky_dma_scenario
from repro.net.traffic import TrafficSpec
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.vswitch.flowtable import FlowTables
from repro.workloads import base
from repro.workloads.base import ENGINE_STATS, VectorPlan
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem

ARRAY_TINY = dataclasses.replace(TINY_PLATFORM, llc_backend="array")

GEOMETRY = CacheGeometry(ways=4, sets_per_slice=32, slices=2)


# ---------------------------------------------------------------------------
# LLC journal: fuzzed snapshot/rollback roundtrips
# ---------------------------------------------------------------------------
def _llc_state(llc: SlicedLLC) -> tuple:
    """A deep copy of everything rollback promises to restore.

    Stamps and dirty bits are read from the meta words,
    ``stamp << 1 | dirty``.
    """
    return (llc._tags.copy(), llc._meta >> 1, llc._meta & 1,
            llc._owner.copy(), llc._clock, llc._valid, dict(llc._occ),
            llc.stat_fills, llc.stat_evictions, llc.stat_writebacks,
            llc.stat_ddio_hits, llc.stat_ddio_misses, llc._rand_state)


def _assert_state_equal(a: tuple, b: tuple) -> None:
    names = ("tags", "stamp", "dirty", "owner", "clock", "valid", "occ",
             "fills", "evictions", "writebacks", "ddio_hits",
             "ddio_misses", "rand_state")
    for name, xa, xb in zip(names, a, b):
        if isinstance(xa, np.ndarray):
            assert np.array_equal(xa, xb), f"LLC {name} diverged"
        else:
            assert xa == xb, f"LLC {name} diverged: {xa} != {xb}"


def _mutate(llc: SlicedLLC, rng: np.random.Generator) -> None:
    """One random mutation step mixing every journaled entry point."""
    nlines = GEOMETRY.lines
    kind = rng.integers(0, 6)
    n = int(rng.integers(1, 160))
    # Tight address pool so hits, refills and evictions all happen.
    addrs = rng.integers(0, nlines * 3, size=n) * 64
    full = (1 << GEOMETRY.ways) - 1
    if kind == 0:
        mask = int(rng.integers(1, full + 1))
        llc.access_batch(addrs, mask, write=bool(rng.integers(0, 2)),
                         owner=int(rng.integers(0, 4)))
    elif kind == 1:
        # Per-element masks/owners/write flags force the sequential path.
        llc.access_batch(addrs, rng.integers(1, full + 1, size=n),
                         write=rng.integers(0, 2, size=n).astype(bool),
                         owner=rng.integers(0, 4, size=n))
    elif kind == 2:
        llc.ddio_write_batch(addrs, int(rng.integers(1, full + 1)))
    elif kind == 3:
        llc.device_read_batch(addrs)
    elif kind == 4:
        for addr in addrs[:16]:
            llc.access(int(addr), full, write=bool(rng.integers(0, 2)),
                       owner=int(rng.integers(0, 4)))
    else:
        # One batch that re-reads its own lines as device reads (the Tx
        # shape): the repeats collapse onto their first access's slot
        # and write no journal entry of their own.
        core = np.arange(2 * n) < n
        llc.access_batch(np.concatenate([addrs, addrs]),
                         int(rng.integers(1, full + 1)),
                         write=core & rng.integers(0, 2, size=2 * n)
                         .astype(bool),
                         owner=int(rng.integers(0, 4)), allocate=core)


class TestLLCJournal:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_rollback_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        llc = SlicedLLC(GEOMETRY, backend="array", seed=seed + 1)
        for _ in range(4):  # warm to a non-trivial mixed-owner state
            _mutate(llc, rng)
        before = _llc_state(llc)
        llc.snapshot()
        for _ in range(int(rng.integers(1, 6))):
            _mutate(llc, rng)
        llc.rollback()
        _assert_state_equal(_llc_state(llc), before)
        # The journal is gone: state keeps evolving normally afterwards.
        _mutate(llc, rng)

    @pytest.mark.parametrize("seed", [3, 19])
    def test_fuzz_rollback_random_policy(self, seed):
        """The random-replacement loop path journals (and restores the
        LCG state) just like the vectorized LRU path."""
        rng = np.random.default_rng(seed)
        llc = SlicedLLC(GEOMETRY, backend="array", policy="random",
                        seed=seed + 1)
        _mutate(llc, rng)
        before = _llc_state(llc)
        llc.snapshot()
        for _ in range(3):
            _mutate(llc, rng)
        llc.rollback()
        _assert_state_equal(_llc_state(llc), before)

    def test_commit_matches_unjournaled_twin(self):
        """Journaling must not perturb outcomes: snapshot+commit lands in
        exactly the state an unjournaled twin reaches."""
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        a = SlicedLLC(GEOMETRY, backend="array", seed=5)
        b = SlicedLLC(GEOMETRY, backend="array", seed=5)
        _mutate(a, rng_a)
        _mutate(b, rng_b)
        a.snapshot()
        for _ in range(4):
            _mutate(a, rng_a)
        a.commit()
        for _ in range(4):
            _mutate(b, rng_b)
        _assert_state_equal(_llc_state(a), _llc_state(b))

    def test_rollback_then_replay_equals_plain_run(self):
        """The engine's actual pattern: execute, roll back, replay a
        prefix — the end state must match never having speculated."""
        rng = np.random.default_rng(9)
        addrs = rng.integers(0, GEOMETRY.lines * 2, size=200) * 64
        full = (1 << GEOMETRY.ways) - 1
        spec = SlicedLLC(GEOMETRY, backend="array", seed=2)
        plain = SlicedLLC(GEOMETRY, backend="array", seed=2)
        spec.access_batch(addrs[:50], full)
        plain.access_batch(addrs[:50], full)
        spec.snapshot()
        spec.access_batch(addrs[50:], full, write=True, owner=1)
        spec.rollback()
        spec.access_batch(addrs[50:120], full, write=True, owner=1)
        plain.access_batch(addrs[50:120], full, write=True, owner=1)
        _assert_state_equal(_llc_state(spec), _llc_state(plain))

    def test_snapshot_guards(self):
        llc = SlicedLLC(GEOMETRY, backend="array")
        assert llc.can_snapshot
        llc.snapshot()
        with pytest.raises(RuntimeError):
            llc.snapshot()
        with pytest.raises(RuntimeError):
            llc.flush()
        llc.commit()
        with pytest.raises(RuntimeError):
            llc.rollback()
        scalar = SlicedLLC(GEOMETRY, backend="scalar")
        assert not scalar.can_snapshot
        with pytest.raises(RuntimeError):
            scalar.snapshot()

    def test_ddio_counters_restored(self):
        llc = SlicedLLC(GEOMETRY, backend="array")
        llc.ddio_write_batch(np.arange(8, dtype=np.int64) * 64, 0b11)
        hits, misses = llc.stat_ddio_hits, llc.stat_ddio_misses
        llc.snapshot()
        llc.ddio_write_batch(np.arange(64, dtype=np.int64) * 64, 0b11)
        assert llc.stat_ddio_hits + llc.stat_ddio_misses > hits + misses
        llc.rollback()
        assert (llc.stat_ddio_hits, llc.stat_ddio_misses) == (hits, misses)
        assert llc.occupancy_by_owner().get(DDIO_OWNER, 0) == llc._valid


# ---------------------------------------------------------------------------
# FlowTables (EMC) journal
# ---------------------------------------------------------------------------
class _NullPort:
    """Satisfies the lookup path's port surface with unit-cost accesses."""

    def access(self, addr, **kwargs):
        return 1.0


class TestFlowTablesJournal:
    def _tables(self) -> FlowTables:
        return FlowTables(1 << 30, emc_entries=64)

    def test_scalar_lookup_rollback(self):
        tables = self._tables()
        port = _NullPort()
        for flow in range(40):
            tables.lookup(port, flow * 3)
        tags = tables._emc_tags.copy()
        counts = (tables.emc_hits, tables.emc_misses)
        tables.snapshot()
        for flow in range(200, 260):  # collide + install new tags
            tables.lookup(port, flow)
        assert not np.array_equal(tables._emc_tags, tags)
        tables.rollback()
        assert np.array_equal(tables._emc_tags, tags)
        assert (tables.emc_hits, tables.emc_misses) == counts

    def test_chunk_lookup_rollback_and_commit_twin(self):
        rng = np.random.default_rng(23)
        spec, plain = self._tables(), self._tables()
        warm = rng.integers(0, 500, size=120)
        spec.lookup_chunk(VectorPlan(), warm, np.arange(120))
        plain.lookup_chunk(VectorPlan(), warm, np.arange(120))
        tags = spec._emc_tags.copy()
        counts = (spec.emc_hits, spec.emc_misses)
        flows = rng.integers(0, 500, size=80)
        spec.snapshot()
        spec.lookup_chunk(VectorPlan(), flows, np.arange(80))
        spec.rollback()
        assert np.array_equal(spec._emc_tags, tags)
        assert (spec.emc_hits, spec.emc_misses) == counts
        # Replay under a journal, commit: identical to the plain twin.
        spec.snapshot()
        spec.lookup_chunk(VectorPlan(), flows, np.arange(80))
        spec.commit()
        plain.lookup_chunk(VectorPlan(), flows, np.arange(80))
        assert np.array_equal(spec._emc_tags, plain._emc_tags)
        assert (spec.emc_hits, spec.emc_misses) == (plain.emc_hits,
                                                   plain.emc_misses)


# ---------------------------------------------------------------------------
# End-to-end: forced mispredictions roll back to the scalar truth
# ---------------------------------------------------------------------------
def _records(metrics) -> list:
    return [dataclasses.asdict(record) for record in metrics.records]


def _run_leaky(exec_mode: str, seed: int) -> list:
    scen = leaky_dma_scenario(packet_size=512, n_flows=16,
                              ring_entries=128, spec=ARRAY_TINY, seed=seed)
    scen.sim.exec_mode = exec_mode
    return _records(scen.sim.run(0.4))


def _run_pmd_xmem(exec_mode: str, seed: int) -> "tuple[list, list]":
    """TestPmd beside an X-Mem thrasher under the IAT daemon: the
    thrash-driven miss spikes make per-packet cost wildly non-uniform,
    the worst case for run-ahead admission."""
    platform = Platform(ARRAY_TINY)
    sim = Simulation(platform, seed=seed, exec_mode=exec_mode)
    nic = platform.add_nic("n0", 40.0)
    # Deep ring + overload: backlogs larger than a quantum budget, so an
    # over-admitted chunk genuinely overshoots instead of draining dry.
    vf = nic.add_vf(entries=256, name="vf0")
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(Tenant("pmd", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=2), pmd)
    xmem = XMem("xmem", 64 << 10)
    xmem.l2_bytes = 8 << 10
    sim.add_tenant(Tenant("xmem", cores=(1,), priority=Priority.BE,
                          initial_ways=2), xmem)
    sim.attach_traffic(nic, vf, TrafficSpec(pps=30000.0, packet_size=512,
                                            n_flows=64, zipf_theta=0.9,
                                            burstiness=0.6))
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    daemon = ControllerDaemon(control,
                              IATPolicy(IATParams(interval_s=0.2)))
    sim.add_controller(daemon)
    metrics = sim.run(0.8)
    return _records(metrics), [dataclasses.asdict(h)
                               for h in daemon.history]


class TestForcedMisprediction:
    @pytest.mark.parametrize("seed", [8, 21])
    def test_overshoot_rollback_matches_scalar(self, monkeypatch, seed):
        """Crank the run-ahead headroom so nearly every speculative chunk
        overshoots its quantum budget: the engine must roll back and
        replay constantly, and every record must still equal scalar."""
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.5)
        ENGINE_STATS.reset()
        vec = _run_leaky("vector", seed)
        assert ENGINE_STATS.rollbacks > 0, \
            "headroom 2.5 was expected to force mispredicted admissions"
        assert ENGINE_STATS.wasted_packets > 0
        assert (ENGINE_STATS.exec_packets
                == ENGINE_STATS.packets + ENGINE_STATS.wasted_packets)
        assert vec == _run_leaky("scalar", seed)

    def test_xmem_mix_cost_spikes_match_scalar(self, monkeypatch):
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.0)
        ENGINE_STATS.reset()
        vec_metrics, vec_history = _run_pmd_xmem("vector", 42)
        assert ENGINE_STATS.rollbacks > 0
        sca_metrics, sca_history = _run_pmd_xmem("scalar", 42)
        assert vec_metrics == sca_metrics
        assert vec_history == sca_history

    def test_speculation_exercised_at_default_headroom(self):
        ENGINE_STATS.reset()
        _run_leaky("vector", 8)
        assert ENGINE_STATS.spec_chunks > 0
        assert ENGINE_STATS.mean_chunk() >= 8.0
        assert ENGINE_STATS.kernel_launches > 0
