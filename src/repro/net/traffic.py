"""Traffic generation: rates, flow populations, and time-varying phases.

A :class:`TrafficSpec` describes one stream (rate, packet size, flow
population).  :class:`PhasedTraffic` sequences specs over simulated time,
which is how the Fig. 7/10/11 scenarios ("at t1 more traffic comes...")
are scripted.

Rates are expressed in *scaled* packets/second — the simulation engine
multiplies real rates by its ``time_scale`` before they reach here, so
this module is scale-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pci.nic import line_rate_pps


def zipf_weights(n: int, theta: float) -> "np.ndarray":
    """Normalized Zipf(theta) popularity weights over ``n`` items.

    ``theta = 0`` degenerates to uniform; YCSB's default is 0.99.
    """
    if n < 1:
        raise ValueError("need at least one item")
    if theta > 0:
        weights = np.arange(1, n + 1, dtype=np.float64)
        np.power(weights, -theta, out=weights)
    else:
        weights = np.ones(n)
    weights /= weights.sum()
    return weights


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic stream.

    ``pps``        packets per (scaled) second.
    ``packet_size`` wire bytes per packet.
    ``n_flows``    size of the flow population.
    ``zipf_theta`` flow-popularity skew (0 = uniform, single flow if n=1).
    ``burstiness`` >= 0; 0 gives a deterministic rate, larger values add
                   multiplicative noise around the mean (bursty traffic
                   being "ubiquitous in modern cloud services",
                   Sec. III-A).
    """

    pps: float
    packet_size: int = 64
    n_flows: int = 1
    zipf_theta: float = 0.0
    burstiness: float = 0.0

    def __post_init__(self) -> None:
        if self.pps < 0:
            raise ValueError("pps must be non-negative")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if self.n_flows < 1:
            raise ValueError("n_flows must be >= 1")

    @classmethod
    def line_rate(cls, gbps: float, packet_size: int, *, scale: float = 1.0,
                  n_flows: int = 1, zipf_theta: float = 0.0,
                  burstiness: float = 0.0) -> "TrafficSpec":
        """Spec for full line rate at ``gbps``, scaled by ``scale``."""
        return cls(pps=line_rate_pps(gbps, packet_size) * scale,
                   packet_size=packet_size, n_flows=n_flows,
                   zipf_theta=zipf_theta, burstiness=burstiness)

    def scaled(self, factor: float) -> "TrafficSpec":
        """The same stream at ``factor`` times the rate."""
        return TrafficSpec(pps=self.pps * factor, packet_size=self.packet_size,
                           n_flows=self.n_flows, zipf_theta=self.zipf_theta,
                           burstiness=self.burstiness)


@dataclass(frozen=True)
class TrafficQuantum:
    """One quantum's arrivals for a single stream, pre-sampled.

    ``offsets[sub] : offsets[sub + 1]`` slices ``flows``/``sizes`` down to
    the packets arriving in sub-step ``sub``; the engine hands the slices
    of every stream to one :meth:`repro.pci.nic.Nic.dma_burst` call per
    sub-step, so traffic delivery does no per-packet Python work.
    """

    offsets: "np.ndarray"   # (subquanta + 1,) int64, cumulative counts
    flows: "np.ndarray"     # (total,) int64
    sizes: "np.ndarray"     # (total,) int64

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    def counts(self) -> "np.ndarray":
        return np.diff(self.offsets)


class TrafficGen:
    """Draws each quantum's arrivals — per-sub-step packet counts and
    flow ids — for one spec (:meth:`sample_quantum`).

    ``samplers`` maps ``(n_flows, zipf_theta)`` to a flow sampler.  A
    :class:`~repro.sim.engine.Simulation` hands one map to all of its
    streams, so streams with the same flow population share one sampler
    (each still draws from its own RNG); without a map a generator keeps
    its own.
    """

    def __init__(self, spec: TrafficSpec, rng: "np.random.Generator", *,
                 samplers: "dict | None" = None) -> None:
        self.spec = spec
        self._rng = rng
        self._carry = 0.0
        self._samplers = {} if samplers is None else samplers
        self._sampler = None
        self._build_sampler()

    def _build_sampler(self) -> None:
        n_flows, theta = self.spec.n_flows, self.spec.zipf_theta
        if n_flows == 1:
            self._sampler = None
            return
        key = (n_flows, theta)
        sampler = self._samplers.get(key)
        if sampler is None:
            # Guide-table sampler: draws are bit-identical to
            # ``rng.choice(n, size, p=weights)`` at O(1) per draw.
            from ..workloads.streams import ZipfSampler
            sampler = ZipfSampler(n_flows, theta)
            self._samplers[key] = sampler
        self._sampler = sampler

    def set_spec(self, spec: TrafficSpec) -> None:
        self.spec = spec
        self._build_sampler()

    def sample_quantum(self, sub_dt: float, subquanta: int, start: float,
                       phased: "PhasedTraffic | None" = None) -> TrafficQuantum:
        """Sample one quantum of ``subquanta`` sub-steps of ``sub_dt``
        seconds each, starting at ``start``, as a single array bundle.

        Sub-step ``k`` receives ``int(m)`` packets, where ``m`` is the
        spec's mean ``pps * sub_dt`` — scaled by a log-normal burst
        factor when ``burstiness > 0`` — plus the fraction carried over
        from the sub-step before; what remains of ``m`` carries on, from
        quantum to quantum too.  So fractional rates accumulate rather
        than round away.  Flow ids follow the spec's popularity skew
        (all zero for a single flow).

        The engine calls this once per stream per quantum: within a run
        of sub-steps sharing one spec, the burst factors are drawn as
        one batch and the flow ids as one draw.  Phase scripts are
        honoured at sub-step granularity: the spec in force for each
        sub-step is ``phased.spec_at`` of that sub-step's start time.
        """
        if phased is None:
            specs = [self.spec] * subquanta
        else:
            specs = []
            for sub in range(subquanta):
                spec = phased.spec_at(start + sub * sub_dt)
                if spec is not self.spec:
                    self.set_spec(spec)
                specs.append(self.spec)
        offsets = np.zeros(subquanta + 1, dtype=np.int64)
        flows_parts: "list[np.ndarray]" = []
        sizes_parts: "list[np.ndarray]" = []
        begin = 0
        while begin < subquanta:
            spec = specs[begin]
            end = begin + 1
            while end < subquanta and specs[end] is spec:
                end += 1
            nsub = end - begin
            base_mean = spec.pps * sub_dt
            if spec.burstiness > 0:
                # Unbiased log-normal factors: E[factor] = 1, so bursts
                # redistribute arrivals in time without inflating the
                # mean offered rate.
                sigma = spec.burstiness
                factors = self._rng.lognormal(mean=-sigma * sigma / 2.0,
                                              sigma=sigma, size=nsub)
            else:
                factors = None
            carry = self._carry
            segment_total = 0
            for sub in range(nsub):
                mean = base_mean
                if factors is not None:
                    mean *= factors[sub]
                mean += carry
                count = int(mean)
                carry = mean - count
                segment_total += count
                offsets[begin + sub + 1] = offsets[begin + sub] + count
            self._carry = carry
            if spec.n_flows > 1:
                flows_parts.append(self._sampler.draw(self._rng,
                                                      segment_total))
            else:
                flows_parts.append(np.zeros(segment_total, dtype=np.int64))
            sizes_parts.append(np.full(segment_total, spec.packet_size,
                                       dtype=np.int64))
            begin = end
        flows = (flows_parts[0] if len(flows_parts) == 1
                 else np.concatenate(flows_parts))
        sizes = (sizes_parts[0] if len(sizes_parts) == 1
                 else np.concatenate(sizes_parts))
        return TrafficQuantum(offsets=offsets, flows=flows, sizes=sizes)


@dataclass(frozen=True)
class Phase:
    """A traffic spec active from ``start`` (seconds) onward."""

    start: float
    spec: TrafficSpec


class PhasedTraffic:
    """Time-sequenced traffic: the spec in force changes at phase starts."""

    def __init__(self, phases: "list[Phase]") -> None:
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = sorted(phases, key=lambda p: p.start)
        if self.phases[0].start > 0:
            raise ValueError("first phase must start at t=0")

    def spec_at(self, now: float) -> TrafficSpec:
        current = self.phases[0].spec
        for phase in self.phases:
            if phase.start <= now:
                current = phase.spec
            else:
                break
        return current
