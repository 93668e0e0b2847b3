"""The benchmark's workloads and the per-quantum digest of simulated state.

Each workload is one of the paper's scenarios on the full ``XEON_6140``
platform with the IAT controller attached.  The seed is passed to the
scenario builder; ``None`` keeps the builder's own default seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect

from repro.experiments.common import (Scenario, kvs_scenario,
                                      leaky_dma_scenario)
from repro.sim.config import XEON_6140


#: Workload name -> (scenario builder, its arguments, options of the
#: attached IAT controller).  Why each workload is here, and the layers
#: it loads, is recorded in BENCHMARK.json.
WORKLOADS = {
    "leaky-dma-1500": (leaky_dma_scenario, {"packet_size": 1500}, {}),
    "flows-64": (leaky_dma_scenario,
                 {"packet_size": 64, "n_flows": 100_000,
                  "rate_fraction": 0.6}, {}),
    "kvs-ycsb-a": (kvs_scenario, {"app": "rocksdb", "ycsb_letter": "A"},
                   {"manage_tenant_ways": False}),
}


def default_seed(workload: str) -> int:
    """The scenario builder's own default seed."""
    builder = WORKLOADS[workload][0]
    return inspect.signature(builder).parameters["seed"].default


def build(workload: str, seed: "int | None" = None, *,
          oracle: bool = False) -> Scenario:
    """Build ``workload`` with IAT attached; ``oracle`` selects the
    scalar reference engine (scalar LLC backend and scalar drains)
    instead of the fast path."""
    builder, kwargs, iat = WORKLOADS[workload]
    spec = XEON_6140
    if oracle:
        spec = dataclasses.replace(spec, llc_backend="scalar")
    scen = builder(spec=spec, seed=default_seed(workload)
                   if seed is None else seed, **kwargs)
    scen.attach_controller("iat", **iat)
    if oracle:
        scen.sim.exec_mode = "scalar"
    return scen


def offered_packets(scen: Scenario) -> int:
    """Packets offered to the NICs so far: delivered plus dropped, read
    from the VF counters."""
    return sum(vf.delivered + vf.drops for vf in scen.vfs.values())


def quantum_state(scen: Scenario) -> tuple:
    """The simulated statistics one quantum's digest covers.

    Every field of the last :class:`QuantumRecord` except its per-VF
    deltas, plus each VF's cumulative counters and each workload's op
    count.  VF numbers come from the VF counters: the record's per-VF
    deltas re-read their baseline once per traffic stream, so a VF fed
    by two streams (``kvs-ycsb-a``) shows zero there.
    """
    rec = scen.sim.metrics.records[-1]
    tenants = tuple((name, snap.ipc, snap.llc_references, snap.llc_misses,
                     snap.mask) for name, snap in rec.tenants.items())
    vfs = tuple((name, vf.delivered, vf.drops, vf.ddio_hits,
                 vf.ddio_misses) for name, vf in scen.vfs.items())
    ops = tuple((name, w.stats.ops) for name, w in scen.workloads.items())
    return (rec.time, tenants, rec.ddio_hits, rec.ddio_misses,
            rec.ddio_mask, rec.mem_read_bytes, rec.mem_write_bytes, vfs, ops)


def digest(state: tuple) -> str:
    """A short stable hash of :func:`quantum_state` (floats by ``repr``,
    so any change in any digit shows)."""
    return hashlib.blake2b(repr(state).encode(), digest_size=8).hexdigest()


def step(scen: Scenario) -> str:
    """Simulate one quantum and return its digest."""
    scen.sim.run(scen.sim.platform.spec.quantum_s)
    return digest(quantum_state(scen))
