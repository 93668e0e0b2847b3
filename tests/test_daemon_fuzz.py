"""Property-based fuzz of the daemon loop: random counter trajectories
must never drive it into an illegal state.

Invariants checked after every interval:

* every programmed CBM is contiguous, non-empty, within the cache;
* the DDIO mask stays within [DDIO_WAYS_MIN, DDIO_WAYS_MAX] while the
  daemon manages it;
* every group keeps at least one way and at most its cap;
* the recorded history stays consistent with the allocator state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.cat import is_contiguous
from repro.core.control import ControlPlane
from repro.core.daemon import ControllerDaemon
from repro.core.params import IATParams
from repro.core.policies import IATPolicy
from repro.sim.config import TINY_PLATFORM
from repro.sim.platform import Platform
from repro.tenants.tenant import Priority, Tenant, TenantSet


def build_daemon(manage_ddio=True, manage_tenant_ways=True, shuffle=True):
    platform = Platform(TINY_PLATFORM)
    tenants = TenantSet([
        Tenant("io0", cores=(0,), priority=Priority.PC, is_io=True,
               initial_ways=2),
        Tenant("pc0", cores=(1,), priority=Priority.PC, initial_ways=2),
        Tenant("be0", cores=(2,), priority=Priority.BE, initial_ways=2),
        Tenant("be1", cores=(3,), priority=Priority.BE, initial_ways=1),
    ])
    for i, tenant in enumerate(tenants):
        tenant.cos_id = i + 1
        for core in tenant.cores:
            platform.cat.associate(core, tenant.cos_id)
    control = ControlPlane(platform.pqos, tenants, time_scale=1.0)
    daemon = ControllerDaemon(control, IATPolicy(
        IATParams(), manage_ddio=manage_ddio,
        manage_tenant_ways=manage_tenant_ways, shuffle=shuffle))
    return platform, daemon, tenants


def perturb(platform, rng):
    for core in range(4):
        instr = int(rng.integers(0, 5_000_000))
        platform.counters.core(core).credit(
            instructions=instr, cycles=max(1, instr // 2),
            llc_references=int(rng.integers(0, 500_000)),
            llc_misses=int(rng.integers(0, 200_000)))
    for s in range(platform.spec.llc.slices):
        platform.uncore.hits[s] += int(rng.integers(0, 500_000))
        platform.uncore.misses[s] += int(rng.integers(0, 500_000))


def check_invariants(platform, daemon, tenants):
    params = daemon.policy.params
    ways = platform.spec.llc.ways
    for tenant in tenants:
        mask = platform.cat.get_mask(tenant.cos_id)
        assert mask != 0
        assert mask >> ways == 0
        assert is_contiguous(mask)
    if daemon.policy.manage_ddio:
        count = bin(platform.ddio.mask).count("1")
        assert params.ddio_ways_min <= count <= params.ddio_ways_max
    for group, count in daemon.policy.allocator.group_ways.items():
        assert 1 <= count <= min(params.tenant_ways_max, ways - 1)
    last = daemon.history[-1]
    assert last.ddio_ways == daemon.policy.allocator.ddio_ways
    assert last.group_ways == daemon.policy.allocator.group_ways


@given(st.integers(0, 10_000),
       st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_trajectories_preserve_invariants(seed, manage_ddio,
                                                 manage_tenant_ways,
                                                 shuffle):
    rng = np.random.default_rng(seed)
    platform, daemon, tenants = build_daemon(
        manage_ddio=manage_ddio, manage_tenant_ways=manage_tenant_ways,
        shuffle=shuffle)
    daemon.on_start(0.0)
    for t in range(1, 14):
        perturb(platform, rng)
        daemon.on_interval(float(t))
        check_invariants(platform, daemon, tenants)
