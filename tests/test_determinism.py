"""Determinism: identical seeds must reproduce identical simulations.

EXPERIMENTS.md promises exact reproducibility of every table; these
tests pin that property at the engine level.
"""

from repro.core import ControlPlane, ControllerDaemon, IATParams, IATPolicy
from repro.net.traffic import TrafficSpec
from repro.sim.config import TINY_PLATFORM
from repro.sim.engine import Simulation
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant
from repro.workloads.testpmd import TestPmd
from repro.workloads.xmem import XMem


def run_once(seed: int):
    platform = Platform(TINY_PLATFORM)
    sim = Simulation(platform, seed=seed)
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
    metrics = sim.run(2.0)
    return platform, metrics, daemon, pmd, xmem


def fingerprint(run):
    platform, metrics, daemon, pmd, xmem = run
    return (
        tuple(metrics.ddio_hits().tolist()),
        tuple(metrics.ddio_misses().tolist()),
        tuple(metrics.tenant_series("xmem", "llc_misses").tolist()),
        tuple((h.state, h.ddio_ways, h.action) for h in daemon.history),
        pmd.packets_processed,
        xmem.stats.ops,
        platform.mem.read_bytes,
        platform.mem.write_bytes,
    )


class TestDeterminism:
    def test_same_seed_identical_everything(self):
        assert fingerprint(run_once(7)) == fingerprint(run_once(7))

    def test_different_seed_differs(self):
        a = fingerprint(run_once(7))
        b = fingerprint(run_once(8))
        assert a != b
