"""repro: a simulator-backed reproduction of "Don't Forget the I/O When
Allocating Your LLC" (Yuan et al., ISCA 2021).

The package re-implements IAT — the first I/O-aware LLC management
mechanism — together with every substrate it needs: a way-partitioned
sliced LLC with CAT and DDIO semantics, a memory model, NIC/SR-IOV
descriptor rings, an OVS-style virtual switch, the paper's workload
suite, a pqos/MSR-shaped control plane, and a discrete-time simulation
engine.  ``repro.experiments`` regenerates every figure of the paper's
evaluation section.

Quick start::

    from repro.experiments import leaky_dma_scenario
    scenario = leaky_dma_scenario(packet_size=1500)
    scenario.attach_controller("iat")
    metrics = scenario.sim.run(10.0)

See README.md for the full tour and EXPERIMENTS.md for paper-vs-measured
results.
"""

from .cache import (CacheGeometry, CatController, DdioConfig, SlicedLLC,
                    XEON_6140_LLC)
from .core import (ControlPlane, ControllerDaemon, CoreOnlyPolicy,
                   IATParams, IATPolicy, IOIsoPolicy, State, StaticPolicy)
from .sim import Platform, PlatformSpec, Simulation, XEON_6140
from .tenants import Priority, Tenant, TenantSet

__version__ = "1.0.0"

__all__ = [
    "CacheGeometry", "CatController", "ControlPlane", "ControllerDaemon",
    "CoreOnlyPolicy", "DdioConfig", "IATParams", "IATPolicy",
    "IOIsoPolicy", "Platform", "PlatformSpec", "Priority", "Simulation",
    "SlicedLLC", "State", "StaticPolicy", "Tenant", "TenantSet",
    "XEON_6140", "XEON_6140_LLC", "__version__",
]
