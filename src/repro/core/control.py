"""The control-plane boundary between IAT and the machine.

Everything the daemon can observe or actuate goes through this object:
the pqos facade (monitoring + CAT + DDIO MSR) and the tenant set.  The
simulator builds it from simulated devices; a real deployment would
build it from :class:`repro.perf.msr.LinuxMsr` and a real pqos binding —
the daemon code is identical either way, which is the point: IAT is a
wrapper-style control loop over RDT primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.tracer import current_tracer
from ..perf.pqos import PqosLib
from ..tenants.registry import TenantRegistry
from ..tenants.tenant import TenantSet

if TYPE_CHECKING:
    from .allocator import Layout


@dataclass
class ControlPlane:
    """Handles the daemon needs to run against any backend."""

    pqos: PqosLib
    tenants: TenantSet
    #: Rate scale of the platform behind ``pqos`` (1.0 on real hardware).
    time_scale: float = 1.0
    #: Optional file-backed registry; when present, the daemon re-reads
    #: tenant info after each sleep if the file changed (Sec. IV-E).
    registry: "TenantRegistry | None" = None

    def refresh_tenants(self) -> bool:
        """Reload tenants from the registry if it changed."""
        if self.registry is None or not self.registry.changed():
            return False
        self.tenants = self.registry.load()
        return True

    def apply_layout(self, layout: "Layout",
                     previous: "Layout | None" = None, *,
                     set_ddio: bool = True) -> None:
        """Program a planned :class:`Layout`'s deltas against ``previous``.

        The one actuation path every policy shares: per-tenant CAT masks
        that differ from the previous layout are written through
        ``pqos.alloc_set`` and, when ``set_ddio`` is true (the policy
        owns the DDIO partition), a changed DDIO mask is written through
        ``pqos.ddio_set_mask``.  Each programmed mask emits a trace
        instant so the event stream records every actuation regardless
        of which policy decided it.
        """
        pqos = self.pqos
        tracer = current_tracer()
        for tenant in self.tenants:
            mask = layout.mask_of(tenant)
            old = (previous.group_masks.get(tenant.group)
                   if previous else None)
            if old != mask:
                pqos.alloc_set(tenant.cos_id, mask)
                if tracer.enabled:
                    tracer.instant("mask", "tenant", tenant=tenant.name,
                                   group=tenant.group, cos=tenant.cos_id,
                                   mask=mask)
        if set_ddio and (previous is None
                         or previous.ddio_mask != layout.ddio_mask):
            pqos.ddio_set_mask(layout.ddio_mask)
            if tracer.enabled:
                tracer.instant("mask", "ddio", mask=layout.ddio_mask,
                               ways=bin(layout.ddio_mask).count("1"))
