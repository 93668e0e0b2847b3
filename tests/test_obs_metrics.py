"""Tests for the metrics tier (repro.obs.metrics): counter/gauge/
histogram semantics, label families, both exposition formats, and the
engine's per-quantum registry feed."""

import json
import time

import pytest

from repro.experiments.common import leaky_dma_scenario
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               REGISTRY)
from repro.sim.config import TINY_PLATFORM


class TestMetricPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = Gauge()
        gauge.set(1.25)
        gauge.inc(0.75)
        assert gauge.value == 2.0

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 3, 4]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)


class TestRegistry:
    def test_family_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total") is first

    def test_labels_create_children(self):
        registry = MetricsRegistry()
        family = registry.gauge("ipc", "per-tenant IPC")
        family.labels(tenant="ovs").set(1.5)
        family.labels(tenant="xmem").set(0.5)
        assert family.labels(tenant="ovs").value == 1.5
        snap = registry.snapshot()["ipc"]
        assert snap["kind"] == "gauge"
        assert snap["series"] == {"tenant=ovs": 1.5, "tenant=xmem": 0.5}

    def test_snapshot_is_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(3)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.clear()
        assert registry.snapshot() == {}

    def test_disabled_by_default(self):
        assert MetricsRegistry().enabled is False
        assert REGISTRY.enabled is False


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("packets_total", "Packets seen").inc(42)
        registry.gauge("ipc").labels(tenant="ovs").set(1.5)
        text = registry.to_prometheus()
        assert "# HELP packets_total Packets seen" in text
        assert "# TYPE packets_total counter" in text
        assert "packets_total 42" in text
        assert 'ipc{tenant="ovs"} 1.5' in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "Latency",
                                       buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        lines = registry.to_prometheus().splitlines()
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "lat_seconds_sum 5.55" in lines
        assert "lat_seconds_count 3" in lines

    def test_empty_registry_empty_text(self):
        assert MetricsRegistry().to_prometheus() == ""


class SleepyController:
    """Runs after every quantum and spends 0.1 s of wall time there."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s

    def on_start(self, now: float) -> None:
        pass

    def on_interval(self, now: float) -> None:
        time.sleep(0.1)


class TestEngineFeed:
    def run_quanta(self):
        scen = leaky_dma_scenario(packet_size=512, spec=TINY_PLATFORM)
        scen.sim.run(0.2)

    def test_engine_feeds_registry_when_enabled(self):
        REGISTRY.clear()
        REGISTRY.enabled = True
        try:
            self.run_quanta()
        finally:
            REGISTRY.enabled = False
        snap = REGISTRY.snapshot()
        assert snap["repro_quantum_wall_seconds"]["series"][""]["count"] > 0
        assert any(key.startswith("tenant=")
                   for key in snap["repro_tenant_ipc"]["series"])
        assert snap["repro_ddio_hits_total"]["series"][""] >= 0
        assert 0.0 <= snap["repro_ddio_hit_rate"]["series"][""] <= 1.0
        assert snap["repro_mem_bytes_total"]["series"]["dir=write"] > 0
        assert 0.0 <= snap["repro_vf_drop_rate"]["series"][""] <= 1.0
        REGISTRY.to_prometheus()  # must format without error
        REGISTRY.clear()

    def test_engine_skips_registry_when_disabled(self):
        REGISTRY.clear()
        assert REGISTRY.enabled is False
        self.run_quanta()
        assert REGISTRY.snapshot() == {}

    def test_quantum_wall_covers_controllers(self):
        """Every ``repro_quantum_wall_seconds`` observation spans the
        whole quantum, controllers included, as ``sim/quantum`` does."""
        quantum = TINY_PLATFORM.quantum_s
        scen = leaky_dma_scenario(packet_size=512, spec=TINY_PLATFORM)
        scen.sim.add_controller(SleepyController(quantum))
        REGISTRY.clear()
        REGISTRY.enabled = True
        try:
            scen.sim.run(2 * quantum)
        finally:
            REGISTRY.enabled = False
        wall = REGISTRY.snapshot()["repro_quantum_wall_seconds"]
        REGISTRY.clear()
        series = wall["series"][""]
        assert series["count"] == 2
        assert series["buckets"]["0.1"] == 0
        assert series["sum"] > 0.2
