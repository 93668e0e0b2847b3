"""Engine-level vector == scalar equivalence for the KVS co-run.

Figs. 13/14's scenario runs every drain that is not a plain packet
forwarder: OVS fanning two NICs into virtio rings, two Redis servers
draining mixed GET/SET rings, and the closed-loop RocksDB and X-Mem
tenants, whose vector drains admit work through the same journaled
run-ahead helper as the ring drains.  Every recorded metric, every
controller decision and every workload statistic — down to the last
bit of each float sum — must match the scalar reference loop, and so
must every core's counter block: OVS and each Redis server drain their
two cores as one stream, and a packet charged to the wrong core of the
right tenant would leave the tenant records unchanged.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.core import IATParams
from repro.experiments.common import kvs_scenario
from repro.sim.config import TINY_PLATFORM
from repro.workloads import base
from repro.workloads.base import ENGINE_STATS, Workload
from repro.workloads.rocksdb import RocksDb
from repro.workloads.xmem import XMem

#: Ten cores fit OVS (2), two Redis servers (2 each), RocksDB and two
#: X-Mem tenants; the array backend is the one that can journal.
KVS_TINY = dataclasses.replace(TINY_PLATFORM, cores=10, llc_backend="array")


def _run(exec_mode: str, letter: str, seed: int) -> dict:
    scen = kvs_scenario(app="rocksdb", ycsb_letter=letter, spec=KVS_TINY,
                        seed=seed)
    # A short control interval so daemon decisions feed back into the
    # run several times.
    daemon = scen.attach_controller("iat", manage_tenant_ways=False,
                                    params=IATParams(interval_s=0.2))
    scen.sim.exec_mode = exec_mode
    metrics = scen.sim.run(1.0)
    return {
        "records": [dataclasses.asdict(r) for r in metrics.records],
        "history": [dataclasses.asdict(h) for h in daemon.history],
        "cores": [(b.instructions, b.cycles, b.llc_references,
                   b.llc_misses) for b in scen.platform.counters.cores],
        "workloads": {name: (w.stats.ops, w.stats.busy_cycles,
                             w.stats.latency_sum_cycles)
                      for name, w in scen.workloads.items()},
        "per_op": {op: (acc.count, acc.total_cycles)
                   for op, acc in scen.workloads["app"].per_op.items()},
    }


def _assert_same(vec: dict, sca: dict) -> None:
    # Field by field, so a failure names what diverged.
    assert vec["workloads"] == sca["workloads"]
    assert vec["per_op"] == sca["per_op"]
    assert vec["cores"] == sca["cores"]
    assert vec["history"] == sca["history"]
    assert vec["records"] == sca["records"]


class TestKvsVectorEqualsScalar:
    @pytest.mark.parametrize("letter", ["A", "E"])
    @pytest.mark.parametrize("seed", [12, 3])
    def test_co_run_matches_scalar(self, letter, seed):
        vec = _run("vector", letter, seed)
        assert vec["history"], "the daemon never ran"
        assert all(ops > 0 for ops, _, _ in vec["workloads"].values())
        _assert_same(vec, _run("scalar", letter, seed))

    def test_forced_rollbacks_match_scalar(self, monkeypatch):
        """Crank the run-ahead headroom so chunks overshoot their budget:
        RocksDB and X-Mem must both cut chunks back to their admitted
        prefix, and still match the scalar loop."""
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.5)
        rollbacks: "collections.Counter[type]" = collections.Counter()
        run_ahead = Workload._run_ahead

        def counting(self, port, k, *args, **kwargs):
            n, result = run_ahead(self, port, k, *args, **kwargs)
            if n < k:
                rollbacks[type(self)] += 1
            return n, result

        monkeypatch.setattr(Workload, "_run_ahead", counting)
        ENGINE_STATS.reset()
        vec = _run("vector", "A", 3)
        assert rollbacks[RocksDb] > 0
        assert rollbacks[XMem] > 0
        assert (ENGINE_STATS.exec_packets
                == ENGINE_STATS.packets + ENGINE_STATS.wasted_packets)
        _assert_same(vec, _run("scalar", "A", 3))


class TestVfRecords:
    def test_records_sum_to_vf_counters(self):
        """Each KVS VF carries a GET and a SET stream; its per-quantum
        record deltas must still add up to its counters."""
        scen = kvs_scenario(app="rocksdb", ycsb_letter="A", spec=KVS_TINY)
        metrics = scen.sim.run(0.6)
        for name, vf in scen.vfs.items():
            assert vf.delivered > 0
            assert sum(r.vf_delivered[name]
                       for r in metrics.records) == vf.delivered
            assert sum(r.vf_dropped[name]
                       for r in metrics.records) == vf.drops
