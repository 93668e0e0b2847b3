"""Tests for the tracing & telemetry subsystem (repro.obs).

Covers the tracer contract (near-zero overhead when disabled, ordering
determinism), its event store, the JSONL sink and the Perfetto JSON schema,
the sampled LLC event counters on both backends, and the headline
acceptance property: the legacy recorders are exactly reconstructible
from the event stream of a traced Fig. 11 run.
"""

import dataclasses
import io
import json
import time

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import SlicedLLC
from repro.core import IATParams
from repro.experiments import fig11_timeline
from repro.experiments.common import (latent_contender_scenario,
                                      leaky_dma_scenario, shuffle_scenario)
from repro.obs import (NULL_TRACER, JsonlSink, Tracer, current_tracer,
                       event_from_dict, event_to_dict, install_tracer,
                       perfetto_document, tracing, views)
from repro.obs.merge import (ShardWriter, TraceShard, merged_document,
                             read_shard, write_merged)
from repro.obs.sinks import SIM_PID, WALL_PID
from repro.obs.tracer import _sample_hash
from repro.obs.views import SampledStreamError
from repro.sim.config import TINY_PLATFORM


class TestTracer:
    def test_phases_and_sequence(self):
        tracer = Tracer()
        tracer.set_sim_time(1.5)
        tracer.instant("fsm", "transition", src="low-keep", dst="io-demand")
        tracer.counter("ddio", "events", hits=3, misses=1)
        tracer.complete("sim", "quantum", 0.25, t=1.6)
        events = tracer.events()
        assert [e.phase for e in events] == ["i", "C", "X"]
        assert [e.seq for e in events] == [0, 1, 2]
        assert all(e.ts == 1.5 for e in events)
        assert events[2].dur == 0.25

    def test_span_measures_wall_time(self):
        tracer = Tracer()
        with tracer.span("dma", "burst", vf="vf0"):
            time.sleep(0.01)
        (event,) = tracer.events()
        assert event.phase == "X" and event.dur >= 0.01
        assert event.args == {"vf": "vf0"}

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.instant("a", "b")
        tracer.counter("a", "b", x=1)
        tracer.complete("a", "b", 0.1)
        with tracer.span("a", "b"):
            pass
        assert tracer.events() == []

    def test_null_tracer_is_default_and_inert(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("a", "b"):
            pass  # must be usable without error

    def test_install_and_restore(self):
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            install_tracer(previous)
        assert current_tracer() is previous

    def test_tracing_scope_restores_on_exit(self):
        tracer = Tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER
        with pytest.raises(RuntimeError):
            with tracing(tracer):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER

    def test_profiling_accumulates_shares(self):
        """Profile shares are a view over the buffered spans: each
        ``category.name``'s summed duration over all spans'."""
        tracer = Tracer()
        tracer.complete("engine", "workloads", 2.0)
        tracer.complete("engine", "workloads", 1.0)
        tracer.complete("dma", "burst", 1.0)
        assert tracer.profile_shares() == {"dma.burst": 0.25,
                                           "engine.workloads": 0.75}
        assert Tracer().profile_shares() == {}


class TestProfileShares:
    def test_counts_spans_only(self):
        """Instants and counters carry no wall time, so they neither
        add keys nor dilute the shares."""
        tracer = Tracer()
        tracer.instant("fsm", "transition", src="a", dst="b")
        tracer.counter("engine", "chunks", chunks=4)
        tracer.complete("sim", "quantum", 3.0)
        tracer.instant("sim", "quantum")
        tracer.complete("engine", "record", 1.0)
        assert tracer.span_seconds() == {"engine.record": 1.0,
                                         "sim.quantum": 3.0}
        assert tracer.profile_shares() == {"engine.record": 0.25,
                                           "sim.quantum": 0.75}

    def test_no_spans_no_shares(self):
        tracer = Tracer()
        assert tracer.span_seconds() == {}
        tracer.instant("fsm", "transition")
        tracer.counter("ddio", "events", hits=1)
        assert tracer.span_seconds() == {}
        assert tracer.profile_shares() == {}

    def test_bounded_ring_covers_retained_spans(self):
        tracer = Tracer(capacity=2)
        tracer.complete("engine", "traffic", 5.0)
        tracer.complete("engine", "workloads", 1.0)
        tracer.complete("engine", "record", 3.0)
        assert tracer.dropped == 1
        assert tracer.profile_shares() == {"engine.record": 0.75,
                                           "engine.workloads": 0.25}


class TestSinks:
    def test_ring_buffer_capacity(self):
        """A bounded tracer keeps the last N events, while a sink
        streams every event it pushes."""
        tracer = Tracer(capacity=3)
        buffer = io.StringIO()
        tracer.add_sink(JsonlSink(buffer))
        for i in range(5):
            tracer.instant("t", "e", i=i)
        tracer.close()
        streamed = [json.loads(line)["args"]["i"]
                    for line in buffer.getvalue().splitlines()]
        assert streamed == [0, 1, 2, 3, 4]
        assert [e.args["i"] for e in tracer.events()] == [2, 3, 4]

    def test_jsonl_roundtrip(self):
        tracer = Tracer()
        buffer = io.StringIO()
        tracer.add_sink(JsonlSink(buffer))
        tracer.set_sim_time(0.5)
        tracer.instant("mask", "ddio", mask=0x600, ways=2)
        tracer.complete("sim", "quantum", 0.1, t=0.6)
        tracer.close()
        lines = buffer.getvalue().strip().splitlines()
        decoded = [event_from_dict(json.loads(line)) for line in lines]
        assert decoded == tracer.events()

    def test_event_dict_roundtrip(self):
        tracer = Tracer()
        tracer.counter("llc", "events", fills=10, evictions=2)
        (event,) = tracer.events()
        assert event_from_dict(event_to_dict(event)) == event

    def test_jsonl_to_path(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "trace.jsonl"
        tracer.add_sink(JsonlSink(path))
        tracer.instant("a", "b")
        tracer.close()
        assert json.loads(path.read_text())["cat"] == "a"


class TestPerfettoSchema:
    def trace_document(self):
        tracer = Tracer()
        tracer.set_sim_time(1.0)
        tracer.instant("fsm", "transition", src="low-keep", dst="reclaim")
        tracer.counter("ddio", "events", hits=5, misses=2, note="x")
        tracer.complete("dma", "burst", 0.02, vf="vf0", packets=8)
        return perfetto_document(tracer.events())

    def test_document_shape(self):
        doc = self.trace_document()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        for event in doc["traceEvents"]:
            assert event["ph"] in ("M", "i", "C", "X")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 0
        json.dumps(doc)  # must be JSON-serialisable

    def test_time_domain_separation(self):
        doc = self.trace_document()
        by_phase = {}
        for event in doc["traceEvents"]:
            by_phase.setdefault(event["ph"], []).append(event)
        assert all(e["pid"] == SIM_PID for e in by_phase["i"])
        assert all(e["pid"] == SIM_PID for e in by_phase["C"])
        assert all(e["pid"] == WALL_PID for e in by_phase["X"])
        names = {(e["pid"], e["args"]["name"]) for e in by_phase["M"]
                 if e["name"] == "process_name"}
        assert names == {(SIM_PID, "sim-time"), (WALL_PID, "wall-time")}

    def test_counters_numeric_only(self):
        doc = self.trace_document()
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        assert counter["name"] == "ddio.events"
        assert counter["args"] == {"hits": 5, "misses": 2}

    def test_sim_timestamps_are_microseconds(self):
        doc = self.trace_document()
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["ts"] == pytest.approx(1.0 * 1e6)


class TestEventStore:
    def test_unbounded_keeps_every_event(self):
        tracer = Tracer()
        for i in range(3000):
            tracer.instant("t", "e", i=i)
        assert tracer.dropped == 0
        assert [e.args["i"] for e in tracer.events()] == list(range(3000))

    def test_bounded_keeps_last_events_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant("t", "e", i=i)
        assert tracer.dropped == 6
        assert [e.args["i"] for e in tracer.events()] == [6, 7, 8, 9]
        assert [e.seq for e in tracer.events()] == [6, 7, 8, 9]

    def test_int_float_fidelity(self):
        """Arguments come back as given — a counter of 2**40 events
        must not come back as a float."""
        tracer = Tracer()
        tracer.counter("t", "e", small=7, big=2 ** 40, rate=0.25,
                       flag=True)
        (event,) = tracer.events()
        assert event.args["small"] == 7 and \
            type(event.args["small"]) is int
        assert event.args["big"] == 2 ** 40 and \
            type(event.args["big"]) is int
        assert event.args["rate"] == 0.25 and \
            type(event.args["rate"]) is float
        assert event.args["flag"] is True

    def test_rich_args_roundtrip(self):
        tracer = Tracer()
        args = {"vf": "vf0", "order": [2, 0, 1],
                "nested": {"a": 1, "b": [0.5]}}
        tracer.instant("t", "e", **args)
        (event,) = tracer.events()
        assert event.args == args

    def test_category_counts(self):
        tracer = Tracer()
        tracer.instant("fsm", "transition")
        tracer.instant("fsm", "transition")
        tracer.counter("ddio", "events", hits=1)
        assert tracer.category_counts() == {"fsm": 2, "ddio": 1}


def sampled_tiny_run(sample, seed, duration=0.3, sink=None):
    tracer = Tracer(sample=sample, seed=seed)
    if sink is not None:
        tracer.add_sink(sink)
    spec = dataclasses.replace(TINY_PLATFORM, llc_backend="array")
    scen = leaky_dma_scenario(packet_size=512, spec=spec)
    with tracing(tracer):
        scen.sim.run(duration)
    return tracer


class TestSampling:
    def test_mode_marker_is_first_event(self):
        tracer = Tracer(sample=4, seed=9)
        event = tracer.events()[0]
        assert (event.category, event.name) == ("obs", "mode")
        assert event.args == {"sample": 4, "seed": 9}
        assert views.sampling_mode(tracer.events()) == \
            {"sample": 4, "seed": 9}

    def test_sample_hash_deterministic_and_seed_sensitive(self):
        chosen = {seed: {i for i in range(1000)
                         if _sample_hash(seed, i) % 8 == 0}
                  for seed in (0, 1)}
        assert chosen[0] and chosen[0] != chosen[1]
        assert chosen[0] == {i for i in range(1000)
                             if _sample_hash(0, i) % 8 == 0}

    def test_same_seed_same_sampled_event_set(self):
        first = sampled_tiny_run(sample=3, seed=5)
        second = sampled_tiny_run(sample=3, seed=5)
        keys_first = [e.key() for e in first.events()]
        keys_second = [e.key() for e in second.events()]
        assert len(keys_first) > 1  # marker plus sampled quanta
        assert keys_first == keys_second

    def test_sampled_is_subset_of_full(self):
        sampled = sampled_tiny_run(sample=3, seed=5)
        full = Tracer()
        spec = dataclasses.replace(TINY_PLATFORM, llc_backend="array")
        scen = leaky_dma_scenario(packet_size=512, spec=spec)
        with tracing(full):
            scen.sim.run(0.3)
        sampled_quanta = len(views.select(sampled.events(), "sim",
                                          "quantum"))
        full_quanta = len(views.select(full.events(), "sim", "quantum"))
        assert 0 < sampled_quanta < full_quanta

    def test_views_refuse_sampled_stream(self):
        tracer = sampled_tiny_run(sample=2, seed=0)
        with pytest.raises(SampledStreamError, match="sampled-mode"):
            views.metrics_from_events(tracer.events())
        with pytest.raises(SampledStreamError):
            views.history_from_events(tracer.events())

    def test_views_refuse_sampled_stream_after_jsonl(self):
        """The mode marker survives serialization, so the guard holds
        on a stream read back from disk too."""
        tracer = sampled_tiny_run(sample=2, seed=0)
        lines = [json.dumps(event_to_dict(e)) for e in tracer.events()]
        decoded = [event_from_dict(json.loads(line)) for line in lines]
        with pytest.raises(SampledStreamError):
            views.metrics_from_events(decoded)

    def test_jsonl_stream_opens_with_mode_marker(self):
        """A sink added after the tracer is built still receives the
        marker first, so a sampled JSONL stream is refused too."""
        buffer = io.StringIO()
        tracer = sampled_tiny_run(sample=4, seed=1, sink=JsonlSink(buffer))
        tracer.close()
        decoded = [event_from_dict(json.loads(line))
                   for line in buffer.getvalue().splitlines()]
        assert (decoded[0].category, decoded[0].name) == ("obs", "mode")
        assert views.select(decoded, "metrics", "quantum")
        with pytest.raises(SampledStreamError):
            views.metrics_from_events(decoded)

    def test_full_fidelity_has_no_mode_marker(self):
        tracer = Tracer()
        tracer.instant("metrics", "quantum")
        assert views.sampling_mode(tracer) is None


GEOM = CacheGeometry(ways=4, sets_per_slice=8, slices=2)


class TestLlcStats:
    def workload(self, llc):
        full = GEOM.full_mask
        for addr in range(0, 64 * 200, 64):
            llc.access(addr, full, write=(addr % 128 == 0))
        llc.ddio_write_batch(list(range(0, 64 * 64, 64)), 0b1100)
        llc.ddio_write(0, 0b1100)
        llc.device_read(64)
        return llc.stats()

    def test_counters_populate(self):
        stats = self.workload(SlicedLLC(GEOM))
        assert stats["fills"] > 0
        assert stats["evictions"] > 0
        assert stats["writebacks"] > 0
        assert stats["ddio_hits"] + stats["ddio_misses"] == 65

    def test_backends_agree(self):
        scalar = self.workload(SlicedLLC(GEOM, backend="scalar"))
        array = self.workload(SlicedLLC(GEOM, backend="array"))
        assert scalar == array

    def test_stats_survive_flush(self):
        llc = SlicedLLC(GEOM)
        before = self.workload(llc)
        llc.flush()
        assert llc.stats() == before

    def test_device_read_never_counts(self):
        llc = SlicedLLC(GEOM)
        llc.device_read_batch(list(range(0, 64 * 8, 64)))
        assert llc.stats()["fills"] == 0
        assert llc.stats()["ddio_misses"] == 0


def traced_tiny_fig11():
    tracer = Tracer()
    with tracing(tracer):
        result = fig11_timeline.run(t_grow=0.5, t_ddio=1.0, t_end=1.5,
                                    spec=TINY_PLATFORM)
    return tracer, result


class TestReconstruction:
    """Acceptance: recorders are views over the event stream."""

    def test_fig11_timeline_matches_result(self):
        tracer, result = traced_tiny_fig11()
        assert views.history_from_events(tracer) == result.daemon_history
        assert views.times(tracer) == list(result.times)
        assert views.ddio_mask_timeline(tracer) == list(result.ddio_masks)
        reconstructed = views.mask_timeline(tracer)
        for name, masks in result.masks.items():
            assert reconstructed[name] == list(masks)

    def test_core_only_history_matches_events(self):
        """A comparison baseline is as observable as IAT: its iteration
        log is a view over the same event stream."""
        tracer = Tracer()
        scenario = shuffle_scenario(packet_size=1500, spec=TINY_PLATFORM)
        daemon = scenario.attach_controller("core-only")
        with tracing(tracer):
            scenario.sim.run(2.0)
        assert len(daemon.history) == 3
        assert views.history_from_events(tracer) == daemon.history

    def test_metrics_recorder_reconstruction(self):
        tracer = Tracer()
        scen = leaky_dma_scenario(packet_size=512, spec=TINY_PLATFORM)
        with tracing(tracer):
            metrics = scen.sim.run(0.2)
        clone = views.metrics_from_events(tracer)
        assert clone.records == metrics.records

    def test_fsm_and_llc_events_present(self):
        tracer, _ = traced_tiny_fig11()
        assert views.select(tracer, "fsm", "transition")
        assert views.select(tracer, "mask", "tenant")
        assert views.select(tracer, "daemon", "iteration")
        assert views.select(tracer, "dma", "burst")
        llc_counters = views.select(tracer, "llc", "events")
        assert llc_counters
        assert sum(e.args["fills"] for e in llc_counters) > 0


class TestDeterminism:
    def test_identical_runs_identical_event_keys(self):
        def keys():
            tracer = Tracer()
            spec = dataclasses.replace(TINY_PLATFORM, llc_backend="array")
            scen = leaky_dma_scenario(packet_size=512, spec=spec)
            with tracing(tracer):
                scen.sim.run(0.3)
            return [e.key() for e in tracer.events()]

        first, second = keys(), keys()
        assert len(first) > 0
        assert first == second


def iat_tiny_run(tracer):
    """The Latent Contender slicing scenario on the TINY platform under
    IAT (0.2 s interval), run for 1.5 s with ``tracer`` installed."""
    scen = shuffle_scenario(packet_size=1500, spec=TINY_PLATFORM)
    daemon = scen.attach_controller("iat",
                                    params=IATParams(interval_s=0.2))
    with tracing(tracer):
        scen.sim.run(1.5)
    return scen, daemon


class TestTraceEquivalence:
    """Tracing observes a run; it never changes what is simulated."""

    def outcome(self, tracer):
        scen, daemon = iat_tiny_run(tracer)
        llc = scen.platform.llc
        return {"records": scen.sim.metrics.records, "stats": llc.stats(),
                "now": scen.sim.now,
                "occupancy": llc.occupancy_by_owner(),
                "history": daemon.history}

    def test_traced_and_sampled_runs_match_untraced(self):
        untraced = self.outcome(None)
        assert len(untraced["history"]) == 8  # on_start + 7 intervals
        assert self.outcome(Tracer()) == untraced
        assert self.outcome(Tracer(sample=3, seed=5)) == untraced


def quantum_spans(events):
    """Pair each ``sim/quantum`` span with the ``engine`` spans before
    it (a quantum's spans all precede the span that closes it); also
    returns any ``engine`` spans left after the last quantum."""
    quanta, engine = [], []
    for event in events:
        if event.phase != "X":
            continue
        if event.category == "engine":
            engine.append(event)
        elif (event.category, event.name) == ("sim", "quantum"):
            quanta.append((engine, event))
            engine = []
    return quanta, engine


class TestEngineSpans:
    """A traced quantum closes one ``engine`` span per stage: traffic
    after sampling, traffic and workloads per sub-step, then record and
    controllers."""

    STAGES = (["traffic"]
              + ["traffic", "workloads"] * TINY_PLATFORM.subquanta
              + ["record", "controllers"])

    def test_traced_quantum_stage_spans(self):
        tracer = Tracer()
        iat_tiny_run(tracer)
        quanta, rest = quantum_spans(tracer.events())
        assert len(quanta) == 30 and rest == []
        assert len(self.STAGES) == 2 * TINY_PLATFORM.subquanta + 3
        for engine, quantum in quanta:
            assert [e.name for e in engine] == self.STAGES
            assert sum(e.dur for e in engine) <= quantum.dur
        assert views.select(tracer.events(), "daemon", "interval")

    def test_only_traced_quanta_carry_spans(self):
        tracer = Tracer(sample=3, seed=5)
        iat_tiny_run(tracer)
        quanta, rest = quantum_spans(tracer.events())
        assert 0 < len(quanta) < 30 and rest == []
        for engine, _ in quanta:
            assert [e.name for e in engine] == self.STAGES

    def test_untraced_run_emits_nothing(self):
        tracer = Tracer(enabled=False)
        iat_tiny_run(tracer)
        assert tracer.events() == []


class TestQuantumCounters:
    """A quantum's ``llc/events`` and ``engine/chunks`` counters cover
    exactly that quantum."""

    WATCHED = {("llc", "events"), ("engine", "chunks")}

    def counters(self, tracer):
        scen = leaky_dma_scenario(packet_size=1500, spec=TINY_PLATFORM)
        with tracing(tracer):
            scen.sim.run(0.5)
        return {(e.category, e.name, e.ts): e.args for e in tracer.events()
                if (e.category, e.name) in self.WATCHED}

    def test_sampled_counters_equal_full_trace(self):
        full = self.counters(Tracer())
        sampled = self.counters(Tracer(sample=3, seed=5))
        assert {key[:2] for key in sampled} == self.WATCHED
        assert len(sampled) < len(full)
        for key, args in sampled.items():
            assert args == full[key], key

    def test_first_quantum_excludes_prefill(self):
        def scenario():
            return latent_contender_scenario(xmem_ws_bytes=1 << 20,
                                             overlap_ddio=True,
                                             spec=TINY_PLATFORM)

        quantum = TINY_PLATFORM.quantum_s
        untraced = scenario()
        untraced.sim.run(0.0)
        prefilled = untraced.platform.llc.stats()["fills"]
        untraced.sim.run(quantum)
        fills = untraced.platform.llc.stats()["fills"] - prefilled
        tracer = Tracer()
        with tracing(tracer):
            scenario().sim.run(quantum)
        (first,) = views.select(tracer.events(), "llc", "events")
        assert prefilled > 0
        assert first.args["fills"] == fills


def make_shard_events(n, wall0=0.0):
    tracer = Tracer(clock=iter(
        wall0 + 0.001 * i for i in range(2 * n + 4)).__next__)
    for i in range(n):
        tracer.set_sim_time(0.1 * i)
        tracer.instant("test", "tick", i=i)
    tracer.complete("test", "span", 0.01, i=n)
    return tracer.events()


class TestMerge:
    def test_shard_roundtrip(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        writer = ShardWriter(str(path), index=3, label="fig8[x=1]",
                             sweep="fig8", params="[('x', 1)]",
                             sample=None, seed=0)
        writer.heartbeat("start")
        events = make_shard_events(4)
        writer.write_events(events)
        writer.heartbeat("done", events=len(events), dropped=0,
                         wall_s=0.5)
        writer.close()
        shard = read_shard(str(path))
        assert shard.index == 3 and shard.label == "fig8[x=1]"
        assert shard.meta["schema"] == "repro-trace-shard/1"
        assert shard.epoch_unix > 0
        assert not shard.sampled
        assert [h["status"] for h in shard.heartbeats] == ["start", "done"]
        assert shard.heartbeats[-1]["wall_s"] == 0.5
        assert shard.events == events

    def two_shards(self):
        return [
            TraceShard(meta={"index": 0, "label": "p0",
                             "epoch_unix": 100.0},
                       events=make_shard_events(2)),
            TraceShard(meta={"index": 1, "label": "p1",
                             "epoch_unix": 100.5},
                       events=make_shard_events(2)),
        ]

    def test_merged_layout_and_ordering(self):
        # Present shards out of order: the merge must sort by index.
        doc = merged_document(list(reversed(self.two_shards())))
        events = doc["traceEvents"]
        json.dumps(doc)  # valid JSON document
        assert doc["otherData"]["shards"] == 2
        assert doc["otherData"]["shard_labels"] == ["p0", "p1"]
        # Shard k occupies pids 2k+1 (sim) and 2k+2 (wall).
        assert {e["pid"] for e in events} == {1, 2, 3, 4}
        names = {(e["pid"], e["args"]["name"]) for e in events
                 if e.get("name") == "process_name"}
        assert names == {(1, "p0 sim-time"), (2, "p0 wall-time"),
                         (3, "p1 sim-time"), (4, "p1 wall-time")}

    def test_merged_clock_domain_offsets(self):
        """Wall spans are shifted by each shard's epoch offset from the
        earliest shard, aligning every worker on one timeline."""
        shards = self.two_shards()
        doc = merged_document(shards)
        spans = {e["pid"]: e for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        wall0 = shards[0].events[-1].wall
        wall1 = shards[1].events[-1].wall
        assert spans[2]["ts"] == pytest.approx(wall0 * 1e6)
        assert spans[4]["ts"] == pytest.approx((wall1 + 0.5) * 1e6)

    def test_single_shard_degenerates_to_classic_layout(self):
        events = make_shard_events(2)
        doc = merged_document(
            [TraceShard(meta={"index": 0, "label": ""}, events=events)])
        classic = perfetto_document(events)
        assert doc["traceEvents"] == classic["traceEvents"]

    def test_write_merged_summary(self, tmp_path):
        paths = []
        for k in range(2):
            path = tmp_path / f"shard-{k}.jsonl"
            writer = ShardWriter(str(path), index=k, label=f"p{k}",
                                 sweep="s", params="", sample=None,
                                 seed=0)
            writer.heartbeat("start")
            events = make_shard_events(3)
            writer.write_events(events)
            writer.heartbeat("done", events=len(events), dropped=k,
                             wall_s=0.1)
            writer.close()
            paths.append(str(path))
        out = tmp_path / "merged.json"
        summary = write_merged(paths, str(out))
        assert summary == {"shards": 2, "events": 8, "dropped": 1,
                           "incomplete": 0}
        doc = json.loads(out.read_text())
        assert doc["otherData"]["producer"] == "repro.obs.merge"
        assert doc["traceEvents"]

    def test_incomplete_shard_is_counted(self, tmp_path):
        path = tmp_path / "shard-0.jsonl"
        writer = ShardWriter(str(path), index=0, label="p0", sweep="s")
        writer.heartbeat("start")  # no "done": the worker died
        writer.close()
        summary = write_merged([str(path)], str(tmp_path / "out.json"))
        assert summary["incomplete"] == 1


def shard_point(n):
    """Module-level sweep point that emits ``n`` trace events."""
    tracer = current_tracer()
    for i in range(n):
        tracer.instant("point", "tick", i=i)
    return n * 2


class TestRunnerShards:
    def run_sweep(self, tmp_path, jobs):
        from repro.exec.runner import ParallelRunner, TraceFanout
        from repro.exec.sweep import SweepSpec
        spec = SweepSpec.from_points("shardtest", shard_point,
                                     [{"n": n} for n in (2, 3, 4, 5)])
        fanout = TraceFanout(str(tmp_path / "shards"))
        with ParallelRunner(jobs=jobs, trace=fanout) as runner:
            results = runner.run(spec)
            out = tmp_path / "merged.json"
            summary = runner.write_merged_trace(str(out))
        return results, summary, out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_traced_sweep_produces_merged_document(self, tmp_path, jobs):
        results, summary, out = self.run_sweep(tmp_path, jobs)
        assert results == [4, 6, 8, 10]
        assert summary["shards"] == 4
        assert summary["events"] == 2 + 3 + 4 + 5
        assert summary["dropped"] == 0 and summary["incomplete"] == 0
        doc = json.loads(out.read_text())
        # 4 shards x 2 time domains, pids 1..8.
        assert {e["pid"] for e in doc["traceEvents"]} == set(range(1, 9))

    def test_trace_skips_cache_reads_but_writes(self, tmp_path):
        from repro.exec.cache import ResultCache
        from repro.exec.runner import ParallelRunner, TraceFanout
        from repro.exec.sweep import SweepSpec
        cache = ResultCache(str(tmp_path / "cache"))
        spec = SweepSpec.from_points("shardtest", shard_point,
                                     [{"n": 2}, {"n": 3}])
        with ParallelRunner(jobs=1, cache=cache) as runner:
            runner.run(spec)  # populate the cache
        fanout = TraceFanout(str(tmp_path / "shards"))
        with ParallelRunner(jobs=1, cache=cache, trace=fanout) as runner:
            results = runner.run(spec)
            summary = runner.write_merged_trace(
                str(tmp_path / "merged.json"))
        assert results == [4, 6]
        # Cached points were recomputed so their shards carry events.
        assert summary["shards"] == 2 and summary["events"] == 5


class TestOverheadGuard:
    def test_disabled_tracer_under_five_percent(self):
        """The hooks cost < 5% when tracing is off (best of three)."""
        spec = dataclasses.replace(TINY_PLATFORM, llc_backend="array")

        def timed(tracer):
            scen = leaky_dma_scenario(packet_size=512, spec=spec)
            t0 = time.perf_counter()
            if tracer is None:
                scen.sim.run(0.3)
            else:
                with tracing(tracer):
                    scen.sim.run(0.3)
            return time.perf_counter() - t0

        timed(None)  # warm caches/JIT-ish effects before measuring
        best = min(timed(Tracer(enabled=False)) / timed(None)
                   for _ in range(3))
        assert best < 1.05, f"disabled-tracer overhead {best - 1:.1%}"
