"""Scenario builders shared by the per-figure experiment harnesses.

Each builder assembles the exact tenant/core/way topology of one of the
paper's evaluation setups (Sec. VI) on a fresh platform and returns a
:class:`Scenario` handle.  Controllers are attached by registered policy
name (``repro policies`` lists them), so each experiment can run the
same scenario under baseline / Core-only / I/O-iso / IAT, or any other
registered policy.  Two figure spellings map onto ``static``:

* ``"baseline"``      — static allocation, default 2-way DDIO.
* ``"baseline-rand"`` — static allocation at a random placement
  (Figs. 12-14's "randomly shuffled" initial state); needs ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import ControllerDaemon, ControlPlane, get_policy
from ..net.traffic import TrafficSpec
from ..pci.nic import Nic, VirtualFunction
from ..pci.ring import DescRing
from ..sim.config import XEON_6140, PlatformSpec
from ..sim.engine import Simulation
from ..sim.platform import Platform
from ..tenants.tenant import Priority, Tenant
from ..vswitch.ovs import OvsDataplane
from ..workloads import (L3Fwd, NfvChain, RedisServer, RocksDb, SpecWorkload,
                         TestPmd, Workload, XMem)
from ..workloads.spec import SPEC_PROFILES
from ..workloads.ycsb import ALL_WORKLOADS, YcsbMix

#: Virtio rings between OVS and tenants (aggregation model).
VIRTIO_ENTRIES = 1024


@dataclass
class Scenario:
    """A built scenario, ready to run."""

    platform: Platform
    sim: Simulation
    workloads: "dict[str, Workload]" = field(default_factory=dict)
    vfs: "dict[str, VirtualFunction]" = field(default_factory=dict)
    nics: "list[Nic]" = field(default_factory=list)
    controller: "ControllerDaemon | None" = None

    @property
    def time_scale(self) -> float:
        return self.platform.spec.time_scale

    def control_plane(self) -> ControlPlane:
        return ControlPlane(self.platform.pqos, self.sim.tenant_set(),
                            time_scale=self.time_scale)

    def attach_controller(self, name: str, *, seed: "int | None" = None,
                          **params) -> ControllerDaemon:
        """Attach the registered policy ``name`` behind a ControllerDaemon.

        ``params`` go through :func:`repro.core.create_policy`, so they
        may set constructor keywords and :class:`~repro.core.IATParams`
        fields alike.  ``"baseline"`` and ``"baseline-rand"`` are the
        figure spellings of ``static``; the latter places groups at
        random, seeded by ``seed``.
        """
        if name == "baseline-rand":
            if seed is None:
                raise ValueError("baseline-rand needs a seed")
            params["shuffle_seed"] = seed
        if name in ("baseline", "baseline-rand"):
            name = "static"
        try:
            info = get_policy(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        daemon = ControllerDaemon(self.control_plane(),
                                  info.cls.from_params(params))
        self.sim.add_controller(daemon)
        self.controller = daemon
        return daemon


def make_platform(spec: "PlatformSpec | None" = None) -> Platform:
    return Platform(spec or XEON_6140)


def line_rate(platform: Platform, gbps: float, packet_size: int, *,
              n_flows: int = 1, zipf_theta: float = 0.0,
              fraction: float = 1.0) -> TrafficSpec:
    """Line-rate traffic spec pre-scaled to the platform's time scale."""
    return TrafficSpec.line_rate(gbps * fraction, packet_size,
                                 scale=platform.spec.time_scale,
                                 n_flows=n_flows, zipf_theta=zipf_theta)


# ---------------------------------------------------------------------------
# Fig. 3: single-core l3fwd behind one NIC (RFC 2544 device under test)
# ---------------------------------------------------------------------------
def l3fwd_scenario(*, ring_entries: int = 1024, n_flows: int = 1_000_000,
                   stall_period: float = 0.0,
                   spec: "PlatformSpec | None" = None,
                   seed: int = 3) -> Scenario:
    """Paper Sec. III-A: DPDK l3fwd on a single core, one 40GbE NIC.

    ``stall_period`` > 0 enables the consumer scheduling-jitter model
    (see :class:`repro.workloads.RingConsumer`), which Fig. 3 needs.
    """
    platform = make_platform(spec)
    nic = platform.add_nic("nic0", 40.0)
    vf = nic.add_vf(entries=ring_entries, name="vf0")
    sim = Simulation(platform, seed=seed)
    tenant = Tenant("l3fwd", cores=(0,), priority=Priority.PC, is_io=True,
                    initial_ways=2)
    workload = L3Fwd("l3fwd", [vf.rx_ring], n_flows=n_flows,
                     core_freq_hz=platform.spec.freq_hz,
                     stall_period=stall_period)
    sim.add_tenant(tenant, workload)
    return Scenario(platform, sim, workloads={"l3fwd": workload},
                    vfs={"vf0": vf}, nics=[nic])


# ---------------------------------------------------------------------------
# Fig. 4: slicing-model l3fwd + X-Mem, dedicated vs DDIO-overlapped ways
# ---------------------------------------------------------------------------
def latent_contender_scenario(*, xmem_ws_bytes: int, overlap_ddio: bool,
                              packet_size: int = 1024,
                              spec: "PlatformSpec | None" = None,
                              seed: int = 4) -> Scenario:
    """Paper Sec. III-B: X-Mem either on dedicated ways or on DDIO's."""
    platform = make_platform(spec)
    nic = platform.add_nic("nic0", 40.0)
    vf = nic.add_vf(name="l3fwd-vf")
    sim = Simulation(platform, seed=seed)

    fwd_tenant = Tenant("l3fwd", cores=(0,), priority=Priority.PC,
                        is_io=True, initial_ways=2)
    fwd = L3Fwd("l3fwd", [vf.rx_ring], n_flows=1_000_000,
                core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(fwd_tenant, fwd)

    xmem_tenant = Tenant("xmem", cores=(1,), priority=Priority.PC,
                         initial_ways=2)
    xmem = XMem("xmem", xmem_ws_bytes, core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(xmem_tenant, xmem)

    ways = platform.spec.llc.ways
    masks = {"l3fwd": 0b11}  # ways 0-1, never overlapping DDIO
    if overlap_ddio:
        # X-Mem bound to the two DDIO ways (top of the cache).
        masks["xmem"] = 0b11 << (ways - 2)
    else:
        masks["xmem"] = 0b11 << 2  # dedicated ways 2-3
    sim.attach_traffic(nic, vf, line_rate(platform, 40.0, packet_size,
                                          n_flows=1_000_000, zipf_theta=0.5))
    scenario = Scenario(platform, sim,
                        workloads={"l3fwd": fwd, "xmem": xmem},
                        vfs={"l3fwd-vf": vf}, nics=[nic])
    scenario.attach_controller("static", explicit_masks=masks)
    return scenario


# ---------------------------------------------------------------------------
# Figs. 8/9: aggregation microbenchmark — OVS + two testpmd containers
# ---------------------------------------------------------------------------
def leaky_dma_scenario(*, packet_size: int, n_flows: int = 1,
                       ring_entries: int = 1024,
                       rate_fraction: float = 1.0,
                       n_containers: int = 2,
                       spec: "PlatformSpec | None" = None,
                       seed: int = 8) -> Scenario:
    """Paper Sec. VI-B: two NICs -> OVS (2 cores, 2 ways) -> testpmd
    containers (2 cores, 1 way each), single-flow line rate.

    ``n_containers`` defaults to the paper's two; Sec. VI-B also repeats
    the experiment with three to five, splitting each port's traffic
    over the containers bound to it.
    """
    if n_containers < 1:
        raise ValueError("need at least one container")
    platform = make_platform(spec)
    sim = Simulation(platform, seed=seed)
    nic0 = platform.add_nic("nic0", 40.0)
    nic1 = platform.add_nic("nic1", 40.0)
    vf0 = nic0.add_vf(entries=ring_entries, name="nic0.rx")
    vf1 = nic1.add_vf(entries=ring_entries, name="nic1.rx")

    # One virtio ring per container; containers alternate between ports.
    virtio = [DescRing(VIRTIO_ENTRIES,
                       base_addr=platform.alloc_region(VIRTIO_ENTRIES * 2048))
              for _ in range(n_containers)]
    routes = {0: [r for i, r in enumerate(virtio) if i % 2 == 0],
              1: [r for i, r in enumerate(virtio) if i % 2 == 1]}
    if not routes[1]:          # single container: both ports feed it
        routes[1] = routes[0]

    ovs_tenant = Tenant("ovs", cores=(0, 1), priority=Priority.STACK,
                        is_io=True, initial_ways=2)
    ovs = OvsDataplane("ovs", [vf0.rx_ring, vf1.rx_ring], routes=routes,
                       core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(ovs_tenant, ovs)

    pmd_workloads = {}
    for i, ring in enumerate(virtio):
        tenant = Tenant(f"pmd{i}", cores=(2 + 2 * i, 3 + 2 * i),
                        priority=Priority.PC, is_io=True, initial_ways=1)
        pmd = TestPmd(f"pmd{i}", [ring],
                      core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(tenant, pmd)
        pmd_workloads[f"pmd{i}"] = pmd

    traffic = line_rate(platform, 40.0, packet_size, n_flows=n_flows,
                        fraction=rate_fraction)
    sim.attach_traffic(nic0, vf0, traffic)
    sim.attach_traffic(nic1, vf1, traffic)
    return Scenario(platform, sim,
                    workloads={"ovs": ovs, **pmd_workloads},
                    vfs={"nic0.rx": vf0, "nic1.rx": vf1},
                    nics=[nic0, nic1])


# ---------------------------------------------------------------------------
# Figs. 10/11: slicing model — two testpmd PC + three X-Mem containers
# ---------------------------------------------------------------------------
def shuffle_scenario(*, packet_size: int,
                     spec: "PlatformSpec | None" = None,
                     seed: int = 10) -> Scenario:
    """Paper Sec. VI-B "Latent Contender" macro setup.

    Containers 0/1 (PC) run testpmd on one core each and share three
    ways; containers 2/3 (BE) and 4 (PC) run X-Mem with two dedicated
    ways each.  Phase script (applied by the experiment):
    t=5 s container 4's working set grows 2 MB -> 10 MB; t=15 s DDIO is
    manually widened from two to four ways.
    """
    platform = make_platform(spec)
    sim = Simulation(platform, seed=seed)
    nic0 = platform.add_nic("nic0", 40.0)
    nic1 = platform.add_nic("nic1", 40.0)
    vf0 = nic0.add_vf(name="c0.vf")
    vf1 = nic1.add_vf(name="c1.vf")

    workloads: "dict[str, Workload]" = {}
    for i, vf in enumerate((vf0, vf1)):
        tenant = Tenant(f"c{i}", cores=(i,), priority=Priority.PC,
                        is_io=True, initial_ways=3, share_group="pmd")
        pmd = TestPmd(f"c{i}", [vf.rx_ring],
                      core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(tenant, pmd)
        workloads[f"c{i}"] = pmd

    for i, priority in ((2, Priority.BE), (3, Priority.BE), (4, Priority.PC)):
        tenant = Tenant(f"c{i}", cores=(i,), priority=priority,
                        initial_ways=2)
        xmem = XMem(f"c{i}", 2 << 20, core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(tenant, xmem)
        workloads[f"c{i}"] = xmem

    traffic = line_rate(platform, 40.0, packet_size)
    sim.attach_traffic(nic0, vf0, traffic)
    sim.attach_traffic(nic1, vf1, traffic)
    return Scenario(platform, sim, workloads=workloads,
                    vfs={"c0.vf": vf0, "c1.vf": vf1}, nics=[nic0, nic1])


# ---------------------------------------------------------------------------
# Device-diversity scenarios (A4-style; used by the compare tournament)
# ---------------------------------------------------------------------------
def mixed_nic_scenario(*, packet_size: int = 1024,
                       spec: "PlatformSpec | None" = None,
                       seed: int = 21) -> Scenario:
    """Three NIC classes — 100/40/10 GbE — each feeding its own
    forwarding container, next to a cache-hungry PC X-Mem and a
    streaming BE X-Mem.

    The A4-style device-diversity case: the fast NIC's inline DMA
    dominates the DDIO ways while the slow NICs barely register, so an
    I/O-aware policy must size the I/O partition for the *aggregate*
    pressure and keep the cache-sensitive app clear of it.
    """
    platform = make_platform(spec)
    sim = Simulation(platform, seed=seed)
    freq = platform.spec.freq_hz
    workloads: "dict[str, Workload]" = {}
    vfs: "dict[str, VirtualFunction]" = {}
    nics: "list[Nic]" = []
    for i, gbps in enumerate((100.0, 40.0, 10.0)):
        nic = platform.add_nic(f"nic{i}", gbps)
        vf = nic.add_vf(name=f"fwd{i}.vf")
        pmd = TestPmd(f"fwd{i}", [vf.rx_ring], core_freq_hz=freq)
        sim.add_tenant(Tenant(f"fwd{i}", cores=(i,), priority=Priority.PC,
                              is_io=True, initial_ways=2), pmd)
        workloads[f"fwd{i}"] = pmd
        vfs[f"fwd{i}.vf"] = vf
        nics.append(nic)
        sim.attach_traffic(nic, vf, line_rate(platform, gbps, packet_size))
    app = XMem("app", 8 << 20, core_freq_hz=freq)
    sim.add_tenant(Tenant("app", cores=(3,), priority=Priority.PC,
                          initial_ways=2), app)
    workloads["app"] = app
    be = XMem("be0", 32 << 20, core_freq_hz=freq)
    sim.add_tenant(Tenant("be0", cores=(4,), priority=Priority.BE,
                          initial_ways=1), be)
    workloads["be0"] = be
    return Scenario(platform, sim, workloads=workloads, vfs=vfs, nics=nics)


def dma_stream_scenario(*, n_streams: int = 3, packet_size: int = 1500,
                        spec: "PlatformSpec | None" = None,
                        seed: int = 22) -> Scenario:
    """One 100 GbE device hosting ``n_streams`` virtual functions, each
    streaming large frames into its own lightweight consumer — the
    stand-in for accelerator/xmem-style DMA streams — plus a
    cache-sensitive PC X-Mem and a BE streamer.

    Maximum inline-DMA byte pressure per delivered packet: the scenario
    that separates policies which *size* the DDIO partition (IAT, IOCA)
    from ones that ignore it (core-only, LFOC).
    """
    if n_streams < 1:
        raise ValueError("need at least one DMA stream")
    platform = make_platform(spec)
    sim = Simulation(platform, seed=seed)
    freq = platform.spec.freq_hz
    nic = platform.add_nic("nic0", 100.0)
    workloads: "dict[str, Workload]" = {}
    vfs: "dict[str, VirtualFunction]" = {}
    for i in range(n_streams):
        vf = nic.add_vf(name=f"dma{i}.vf")
        pmd = TestPmd(f"dma{i}", [vf.rx_ring], core_freq_hz=freq)
        sim.add_tenant(Tenant(f"dma{i}", cores=(i,), priority=Priority.PC,
                              is_io=True, initial_ways=1), pmd)
        workloads[f"dma{i}"] = pmd
        vfs[f"dma{i}.vf"] = vf
        sim.attach_traffic(nic, vf,
                           line_rate(platform, 100.0 / n_streams,
                                     packet_size))
    app = XMem("app", 6 << 20, core_freq_hz=freq)
    sim.add_tenant(Tenant("app", cores=(n_streams,), priority=Priority.PC,
                          initial_ways=2), app)
    workloads["app"] = app
    be = XMem("be0", 24 << 20, core_freq_hz=freq)
    sim.add_tenant(Tenant("be0", cores=(n_streams + 1,),
                          priority=Priority.BE, initial_ways=1), be)
    workloads["be0"] = be
    return Scenario(platform, sim, workloads=workloads, vfs=vfs,
                    nics=[nic])


# ---------------------------------------------------------------------------
# Figs. 12-14: application scenarios (aggregation KVS and slicing NFV)
# ---------------------------------------------------------------------------
def _add_non_networking(sim: Simulation, platform: Platform, app: str,
                        ycsb: "YcsbMix | None",
                        workloads: "dict[str, Workload]",
                        first_core: int) -> None:
    """The PC app container + two BE X-Mem containers (Sec. VI-C)."""
    freq = platform.spec.freq_hz
    if app == "rocksdb":
        if ycsb is None:
            raise ValueError("rocksdb app needs a YCSB mix")
        work: Workload = RocksDb("app", ycsb, core_freq_hz=freq)
    elif app in SPEC_PROFILES:
        work = SpecWorkload(SPEC_PROFILES[app], core_freq_hz=freq)
        work.name = "app"
    else:
        raise ValueError(f"unknown app {app!r}")
    sim.add_tenant(Tenant("app", cores=(first_core,), priority=Priority.PC,
                          initial_ways=2), work)
    workloads["app"] = work
    for i, ws in enumerate((1 << 20, 10 << 20)):
        name = f"be{i}"
        xmem = XMem(name, ws, core_freq_hz=freq)
        sim.add_tenant(Tenant(name, cores=(first_core + 1 + i,),
                              priority=Priority.BE, initial_ways=2), xmem)
        workloads[name] = xmem


#: Read-request and write-request wire sizes: GETs are small; SETs carry
#: the 1 KB value inbound (the real DDIO pressure in the KVS scenario).
READ_REQUEST_BYTES = 128
WRITE_REQUEST_BYTES = 1124


def ycsb_write_share(mix: YcsbMix) -> float:
    """Fraction of requests whose packet carries a value payload."""
    from ..workloads.ycsb import OpType
    share = mix.proportions.get(OpType.UPDATE, 0.0)
    share += mix.proportions.get(OpType.INSERT, 0.0)
    share += 0.5 * mix.proportions.get(OpType.RMW, 0.0)
    return share


def kvs_scenario(*, app: str, ycsb_letter: str = "C",
                 offered_pps: float = 5.5e6,
                 spec: "PlatformSpec | None" = None,
                 seed: int = 12) -> Scenario:
    """Paper Sec. VI-C in-memory KVS setup: OVS + two Redis containers
    (sharing three ways) plus the non-networking trio.

    ``offered_pps`` is the real-equivalent request rate per NIC, split
    into a small-GET stream and a value-carrying SET stream according
    to the YCSB mix; the default sits near (not past) the service
    capacity so contention shows up as latency/throughput loss rather
    than saturation noise.
    """
    platform = make_platform(spec)
    sim = Simulation(platform, seed=seed)
    mix = ALL_WORKLOADS[ycsb_letter]
    nic0 = platform.add_nic("nic0", 40.0)
    nic1 = platform.add_nic("nic1", 40.0)
    vf0 = nic0.add_vf(name="nic0.rx")
    vf1 = nic1.add_vf(name="nic1.rx")
    virtio0 = DescRing(VIRTIO_ENTRIES,
                       base_addr=platform.alloc_region(VIRTIO_ENTRIES * 2048))
    virtio1 = DescRing(VIRTIO_ENTRIES,
                       base_addr=platform.alloc_region(VIRTIO_ENTRIES * 2048))

    workloads: "dict[str, Workload]" = {}
    ovs = OvsDataplane("ovs", [vf0.rx_ring, vf1.rx_ring],
                       routes={0: virtio0, 1: virtio1},
                       core_freq_hz=platform.spec.freq_hz)
    sim.add_tenant(Tenant("ovs", cores=(0, 1), priority=Priority.STACK,
                          is_io=True, initial_ways=3, share_group="net"), ovs)
    workloads["ovs"] = ovs
    for i, ring in enumerate((virtio0, virtio1)):
        redis = RedisServer(f"redis{i}", [ring], mix,
                            core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(Tenant(f"redis{i}", cores=(2 + 2 * i, 3 + 2 * i),
                              priority=Priority.PC, is_io=True,
                              initial_ways=3, share_group="net"), redis)
        workloads[f"redis{i}"] = redis

    _add_non_networking(sim, platform, app,
                        ALL_WORKLOADS.get(ycsb_letter), workloads,
                        first_core=6)

    # YCSB requests: keys = flow ids, Zipf(0.99).  Writes carry the
    # value inbound, so the write share of the mix determines the DDIO
    # byte pressure (read-heavy C is light, update-heavy A is heavy).
    write_share = ycsb_write_share(mix)
    scale = platform.spec.time_scale
    for nic, vf in ((nic0, vf0), (nic1, vf1)):
        read_pps = offered_pps * (1.0 - write_share) * scale
        if read_pps > 0:
            sim.attach_traffic(nic, vf, TrafficSpec(
                pps=read_pps, packet_size=READ_REQUEST_BYTES,
                n_flows=100_000, zipf_theta=0.99))
        write_pps = offered_pps * write_share * scale
        if write_pps > 0:
            sim.attach_traffic(nic, vf, TrafficSpec(
                pps=write_pps, packet_size=WRITE_REQUEST_BYTES,
                n_flows=100_000, zipf_theta=0.99))
    return Scenario(platform, sim, workloads=workloads,
                    vfs={"nic0.rx": vf0, "nic1.rx": vf1},
                    nics=[nic0, nic1])


def nfv_scenario(*, app: str, ycsb_letter: str = "C",
                 gbps_per_vlan: float = 20.0,
                 spec: "PlatformSpec | None" = None,
                 seed: int = 13) -> Scenario:
    """Paper Sec. VI-C NFV setup: four FastClick chains on SR-IOV VFs
    (sharing three ways) plus the non-networking trio; 1.5 KB packets."""
    platform = make_platform(spec)
    sim = Simulation(platform, seed=seed)
    nic0 = platform.add_nic("nic0", 40.0)
    nic1 = platform.add_nic("nic1", 40.0)

    workloads: "dict[str, Workload]" = {}
    vfs: "dict[str, VirtualFunction]" = {}
    for i in range(4):
        nic = nic0 if i < 2 else nic1
        vf = nic.add_vf(name=f"vlan{i}.vf")
        vfs[f"vlan{i}.vf"] = vf
        chain = NfvChain(f"nf{i}", [vf.rx_ring], n_flows=4096,
                         core_freq_hz=platform.spec.freq_hz)
        sim.add_tenant(Tenant(f"nf{i}", cores=(i,), priority=Priority.PC,
                              is_io=True, initial_ways=3,
                              share_group="net"), chain)
        workloads[f"nf{i}"] = chain
        sim.attach_traffic(nic, vf,
                           line_rate(platform, gbps_per_vlan, 1500,
                                     n_flows=4096, zipf_theta=0.3))

    _add_non_networking(sim, platform, app,
                        ALL_WORKLOADS.get(ycsb_letter), workloads,
                        first_core=4)
    return Scenario(platform, sim, workloads=workloads, vfs=vfs,
                    nics=[nic0, nic1])
