"""Engine-level execution-mode equivalence.

The quantum pipeline runs each workload in one of two modes
(:data:`repro.sim.engine.EXEC_MODES`): the fully vectorized drain and
the scalar per-packet reference loop.  These tests pin the contract the
vectorization relies on: both modes are *the same simulation* — every
recorded metric field and every controller decision must be identical,
across seeds and scenario shapes (fig. 8's OVS forwarding chain, fig.
9's many-flow variant, a fig. 11-style managed run with the IAT daemon
in the loop, fig. 3's jittered l3fwd, and fig. 12's NFV chains beside
RocksDB and X-Mem).

A vector ring drain runs a tenant's interchangeable cores as one
stream whose chunks carry on from one core onto the next, so the runs
also compare every core's counter block: tenant records sum a tenant's
cores and would not notice a packet charged to the wrong one.  The
stream-boundary inputs roll chunks back across a core boundary, run a
three-core OVS, split OVS over two CAT masks, and jitter a two-core
l3fwd.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from repro.experiments.common import (VIRTIO_ENTRIES, Scenario,
                                      l3fwd_scenario, leaky_dma_scenario,
                                      line_rate, nfv_scenario)
from repro.net.traffic import TrafficSpec
from repro.pci.ring import DescRing
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import EXEC_MODES, Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.vswitch.ovs import OvsDataplane
from repro.workloads import base
from repro.workloads.base import ENGINE_STATS, Workload
from repro.workloads.l3fwd import L3Fwd
from repro.workloads.netbase import RingConsumer
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem

ARRAY_TINY = dataclasses.replace(TINY_PLATFORM, llc_backend="array")

#: Seven cores fit the four NFV chains, RocksDB and two X-Mem tenants.
NFV_TINY = dataclasses.replace(ARRAY_TINY, cores=7)


def _records(metrics) -> list:
    """Field-for-field view of every quantum record (dataclass dump)."""
    return [dataclasses.asdict(record) for record in metrics.records]


def _cores(platform) -> list:
    """Every core's counter block, field by field."""
    return [(b.instructions, b.cycles, b.llc_references, b.llc_misses)
            for b in platform.counters.cores]


def _run(build, exec_mode: str, seed: int, duration: float = 0.5) -> dict:
    """Run ``build(seed)``'s scenario in one mode; returns its records,
    every core's counter block, and each workload's op count, busy
    cycles and latency sum."""
    scen = build(seed)
    scen.sim.exec_mode = exec_mode
    metrics = scen.sim.run(duration)
    return {
        "records": _records(metrics),
        "cores": _cores(scen.platform),
        "workloads": {name: (w.stats.ops, w.stats.busy_cycles,
                             w.stats.latency_sum_cycles)
                      for name, w in scen.workloads.items()},
    }


def _assert_same(vec: dict, sca: dict) -> None:
    # Workload sums and core blocks first, so a failure names what
    # diverged.
    assert vec["workloads"] == sca["workloads"]
    assert vec["cores"] == sca["cores"]
    assert vec["records"] == sca["records"]


def _leaky(seed: int, n_flows: int = 1):
    """Fig. 8's OVS forwarding chain (fig. 9's with many flows)."""
    return leaky_dma_scenario(packet_size=512, n_flows=n_flows,
                              ring_entries=128, spec=ARRAY_TINY, seed=seed)


def _run_iat(exec_mode: str, seed: int) -> "tuple[list, list]":
    """A fig. 11-flavoured managed run: PC testpmd + BE X-Mem under the
    IAT daemon, so controller decisions feed back into the pipeline."""
    platform = Platform(ARRAY_TINY)
    sim = Simulation(platform, seed=seed, exec_mode=exec_mode)
    nic = platform.add_nic("n0", 40.0)
    vf = nic.add_vf(entries=64, name="vf0")
    pmd = TestPmd("pmd", [vf.rx_ring])
    sim.add_tenant(Tenant("pmd", cores=(0,), priority=Priority.PC,
                          is_io=True, initial_ways=2), pmd)
    xmem = XMem("xmem", 64 << 10)
    xmem.l2_bytes = 8 << 10
    sim.add_tenant(Tenant("xmem", cores=(1,), priority=Priority.BE,
                          initial_ways=2), xmem)
    sim.attach_traffic(nic, vf, TrafficSpec(pps=1500.0, packet_size=512,
                                            n_flows=64, zipf_theta=0.9,
                                            burstiness=0.3))
    control = ControlPlane(platform.pqos, sim.tenant_set(),
                           time_scale=platform.spec.time_scale)
    daemon = ControllerDaemon(control,
                              IATPolicy(IATParams(interval_s=0.2)))
    sim.add_controller(daemon)
    metrics = sim.run(1.2)
    return _records(metrics), [dataclasses.asdict(h)
                               for h in daemon.history]


def _l3fwd(seed: int):
    """Fig. 3's l3fwd with scheduling jitter, offered a little more than
    it serves: stalls overflow the ring, and the backlog they leave
    makes the budget, not the ring, end most drains."""
    scen = l3fwd_scenario(ring_entries=512, n_flows=4096, stall_period=0.2,
                          spec=ARRAY_TINY, seed=seed)
    scen.sim.attach_traffic(scen.nics[0], scen.vfs["vf0"],
                            TrafficSpec(pps=12000.0, packet_size=64,
                                        n_flows=4096, zipf_theta=0.5,
                                        burstiness=0.3))
    return scen


def _nfv(seed: int):
    """Fig. 12's NFV co-run: four FastClick chains, RocksDB, two X-Mem."""
    return nfv_scenario(app="rocksdb", spec=NFV_TINY, seed=seed)


def _ovs3(seed: int):
    """Two NICs at line rate into a three-core OVS, forwarding to one
    two-core testpmd: enough load that chunks run through all three
    OVS cores."""
    platform = Platform(dataclasses.replace(ARRAY_TINY, cores=5))
    sim = Simulation(platform, seed=seed)
    virtio = DescRing(VIRTIO_ENTRIES, base_addr=platform.alloc_region(
        VIRTIO_ENTRIES * 2048))
    nics = [platform.add_nic(f"nic{i}", 40.0) for i in range(2)]
    vfs = {f"nic{i}.rx": nic.add_vf(entries=256, name=f"nic{i}.rx")
           for i, nic in enumerate(nics)}
    ovs = OvsDataplane("ovs", [vf.rx_ring for vf in vfs.values()],
                       routes={0: virtio, 1: virtio},
                       core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("ovs", cores=(0, 1, 2), priority=Priority.STACK,
                          is_io=True, initial_ways=2), ovs)
    pmd = TestPmd("pmd", [virtio], core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("pmd", cores=(3, 4), priority=Priority.PC,
                          is_io=True, initial_ways=1), pmd)
    for nic, vf in zip(nics, vfs.values()):
        sim.attach_traffic(nic, vf, line_rate(platform, 40.0, 512,
                                              n_flows=16))
    return Scenario(platform, sim, workloads={"ovs": ovs, "pmd": pmd},
                    vfs=vfs, nics=nics)


def _ovs_split_clos(seed: int):
    """Fig. 8's chain with OVS's second core moved to a CLOS of its own
    with a narrower mask: the tenant's cores are no longer
    interchangeable, so OVS drains as two one-core streams."""
    scen = _leaky(seed, n_flows=16)
    cat = scen.platform.cat
    ovs_core = scen.sim.bindings[0].tenant.cores[1]
    spare = cat.num_cos - 1
    cat.set_mask(spare, 0b11)
    assert cat.mask_of_core(ovs_core) != 0b11
    cat.associate(ovs_core, spare)
    return scen


def _l3fwd2(seed: int):
    """Fig. 3's jittered l3fwd on two cores, offered more than the two
    serve, so stalls and budget-ended drains both occur."""
    platform = Platform(ARRAY_TINY)
    sim = Simulation(platform, seed=seed)
    nic = platform.add_nic("nic0", 40.0)
    vf = nic.add_vf(entries=512, name="vf0")
    fwd = L3Fwd("l3fwd", [vf.rx_ring], n_flows=4096,
                core_freq_hz=platform.spec.freq_hz, stall_period=0.2)
    sim.add_tenant(Tenant("l3fwd", cores=(0, 1), priority=Priority.PC,
                          is_io=True, initial_ways=2), fwd)
    sim.attach_traffic(nic, vf, TrafficSpec(pps=24000.0, packet_size=64,
                                            n_flows=4096, zipf_theta=0.5,
                                            burstiness=0.3))
    return Scenario(platform, sim, workloads={"l3fwd": fwd},
                    vfs={"vf0": vf}, nics=[nic])


def _record_spans(monkeypatch) -> "tuple[list, list]":
    """Record each ring drain's streams (type, cores) and each admitted
    chunk's split (type, cores reached, cut)."""
    streams: "list[tuple[type, int]]" = []
    splits: "list[tuple[type, int, bool]]" = []
    run_stream = RingConsumer._run_stream
    admit = Workload._admit_cores

    def recording_stream(self, ports, budget_cycles, now):
        streams.append((type(self), len(ports)))
        return run_stream(self, ports, budget_cycles, now)

    def recording_admit(self, service, used, budget_cycles, cores):
        ends = admit(self, service, used, budget_cycles, cores)
        splits.append((type(self), len(ends),
                       ends[-1] < service.shape[0]))
        return ends

    monkeypatch.setattr(RingConsumer, "_run_stream", recording_stream)
    monkeypatch.setattr(Workload, "_admit_cores", recording_admit)
    return streams, splits


class TestExecModeEquivalence:
    @pytest.mark.parametrize("seed", [8, 21, 77, 1234])
    def test_vector_equals_scalar_fig8(self, seed):
        _assert_same(_run(_leaky, "vector", seed),
                     _run(_leaky, "scalar", seed))

    def test_all_modes_match_fig9_many_flows(self):
        runs = [_run(lambda seed: _leaky(seed, n_flows=128), mode, 11)
                for mode in EXEC_MODES]
        assert all(run == runs[0] for run in runs[1:])

    def test_vector_equals_scalar_with_iat_daemon(self):
        for seed in (7, 42):
            vec_metrics, vec_history = _run_iat("vector", seed)
            sca_metrics, sca_history = _run_iat("scalar", seed)
            assert vec_metrics == sca_metrics, f"seed {seed}"
            assert vec_history == sca_history, f"seed {seed}"

    @pytest.mark.parametrize("build", [_l3fwd, _nfv],
                             ids=["l3fwd", "nfv"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_vector_equals_scalar_ring_drains(self, build, seed):
        chunks = ENGINE_STATS.spec_chunks
        vec = _run(build, "vector", seed, 0.6)
        assert ENGINE_STATS.spec_chunks > chunks, \
            "the vector run executed no run-ahead chunk"
        assert all(ops > 0 for ops, _, _ in vec["workloads"].values())
        _assert_same(vec, _run(build, "scalar", seed, 0.6))


class TestStreamBoundaries:
    """Vector == scalar, core blocks included, where a ring drain's
    stream meets a core boundary."""

    @pytest.mark.parametrize("seed", [8, 21])
    def test_rollback_across_core_boundary(self, monkeypatch, seed):
        """Headroom 2.5 makes OVS's chunks overrun its second core, so
        they are cut to a prefix that spans both cores."""
        monkeypatch.setattr(base, "SPEC_HEADROOM", 2.5)
        _, splits = _record_spans(monkeypatch)
        build = functools.partial(_leaky, n_flows=16)
        vec = _run(build, "vector", seed)
        assert (OvsDataplane, 2, True) in splits
        _assert_same(vec, _run(build, "scalar", seed))

    def test_three_core_ovs(self, monkeypatch):
        streams, splits = _record_spans(monkeypatch)
        vec = _run(_ovs3, "vector", 8)
        assert (OvsDataplane, 3) in streams
        assert (OvsDataplane, 3, False) in splits
        _assert_same(vec, _run(_ovs3, "scalar", 8))

    def test_ovs_cores_on_two_masks(self, monkeypatch):
        streams, _ = _record_spans(monkeypatch)
        vec = _run(_ovs_split_clos, "vector", 21)
        ovs = [n for cls, n in streams if cls is OvsDataplane]
        assert ovs and set(ovs) == {1}
        _assert_same(vec, _run(_ovs_split_clos, "scalar", 21))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_jittered_two_core_l3fwd(self, monkeypatch, seed):
        _, splits = _record_spans(monkeypatch)
        vec = _run(_l3fwd2, "vector", seed, 0.6)
        assert (L3Fwd, 2, False) in splits
        _assert_same(vec, _run(_l3fwd2, "scalar", seed, 0.6))


class TestExecModeValidation:
    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="exec_mode"):
            Simulation(Platform(ARRAY_TINY), exec_mode="batch")

    def test_unknown_mode_rejected_on_assignment(self):
        scen = leaky_dma_scenario(packet_size=512, spec=ARRAY_TINY)
        with pytest.raises(ValueError, match="exec_mode"):
            scen.sim.exec_mode = "bogus"
        assert scen.sim.exec_mode == "vector"

    def test_scalar_backend_runs_scalar_drains(self):
        """The vector drains need a journaling LLC, so the engine hands
        its workloads the scalar loop on the scalar backend."""
        spec = dataclasses.replace(TINY_PLATFORM, llc_backend="scalar")
        scen = leaky_dma_scenario(packet_size=512, spec=spec)
        chunks = ENGINE_STATS.chunks
        scen.sim.run(0.1)
        assert scen.sim.exec_mode == "vector"
        assert all(w.exec_mode == "scalar"
                   for w in scen.workloads.values())
        assert ENGINE_STATS.chunks == chunks
