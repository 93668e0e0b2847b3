"""Smoke test for the perf-benchmark harness.

Runs every microbenchmark and the engine benchmark at tiny scale (a few
thousand accesses, sub-second simulation) and validates the
``BENCH_llc.json`` document against the ``repro-bench-llc/1`` schema.
No timing thresholds are asserted — wall-clock on CI is noisy — only
that the harness runs, the backends agree, and the schema holds.
"""

import importlib.util
import json
import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PERF = os.path.join(_REPO, "benchmarks", "perf")


def _load(name):
    if _PERF not in sys.path:
        sys.path.insert(0, _PERF)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_PERF, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_doc(tmp_path_factory):
    runner = _load("run")
    out = tmp_path_factory.mktemp("bench") / "BENCH_llc.json"
    runner.main(["--scale", "tiny", "--out", str(out)])
    with open(out) as handle:
        return json.load(handle)


class TestBenchSchema:
    def test_schema_tag_and_scale(self, bench_doc):
        assert bench_doc["schema"] == "repro-bench-llc/1"
        assert bench_doc["scale"] == "tiny"

    def test_micro_entries(self, bench_doc):
        names = [entry["name"] for entry in bench_doc["micro"]]
        assert names == ["resident_read", "thrash_read", "ddio_ring_write"]
        for entry in bench_doc["micro"]:
            assert entry["accesses"] > 0
            assert 0 <= entry["hits"] <= entry["accesses"]
            assert entry["scalar_s"] > 0 and entry["array_s"] > 0
            assert entry["speedup"] == pytest.approx(
                entry["scalar_s"] / entry["array_s"])

    def test_engine_entry(self, bench_doc):
        engine = bench_doc["engine"]
        assert engine["scenario"] == "fig08_leaky_dma"
        assert engine["metrics_match"] is True
        assert engine["quanta"] > 0
        assert bench_doc["speedup"] == engine["speedup"]

    def test_validate_rejects_divergence(self, bench_doc):
        runner = _load("run")
        broken = json.loads(json.dumps(bench_doc))
        broken["engine"]["metrics_match"] = False
        with pytest.raises(AssertionError):
            runner.validate(broken)

    def test_rollback_entry(self, bench_doc):
        """The journal bench restores a whole rollback and leaves a cut
        cache equal to its prefix-only twin; a cut that does not is
        rejected."""
        rollback = bench_doc["rollback"]
        assert rollback["restored_ok"] is True
        assert rollback["cut_ok"] is True
        assert rollback["cut_s"] > 0
        runner = _load("run")
        broken = json.loads(json.dumps(bench_doc))
        broken["rollback"]["cut_ok"] = False
        with pytest.raises(AssertionError):
            runner.validate(broken)

    def test_obs_entry(self, bench_doc):
        obs = bench_doc["obs"]
        assert obs["scenario"] == "fig08_leaky_dma"
        assert obs["repeats"] >= 3
        assert obs["sample_every"] > 1
        assert obs["events"] > obs["events_sampled"] > 0

    def test_compare_entry(self, bench_doc):
        cmp_doc = bench_doc["compare"]
        assert cmp_doc["points"] == \
            len(cmp_doc["policies"]) * len(cmp_doc["scenarios"])
        assert cmp_doc["winner"] == cmp_doc["ranking"][0]["policy"]
        assert all(0.0 < e["score"] <= 1.0 for e in cmp_doc["ranking"])
        assert cmp_doc["wall_s"] > 0

    def test_validate_rejects_collapsed_tournament(self, bench_doc):
        runner = _load("run")
        broken = json.loads(json.dumps(bench_doc))
        broken["compare"]["points"] -= 1
        with pytest.raises(AssertionError):
            runner.validate(broken)

    def test_perf_gate_compare_shape(self):
        """The compare gate checks shape (full cross-product, sane
        scores) but never wall time, and stays silent when the fresh
        document predates the section."""
        checker = _load("check_perf")
        committed = {"scale": "default", "engine": {"speedup": 10.0}}
        cmp_doc = {"policies": ["a", "b"], "scenarios": ["x"],
                   "points": 2, "winner": "a", "point_s": 1.0,
                   "ranking": [{"policy": "a", "score": 1.0},
                               {"policy": "b", "score": 0.5}]}
        fresh = {"scale": "default", "engine": {"speedup": 10.0},
                 "compare": cmp_doc}
        ok, message = checker.check(fresh, committed)
        assert ok and "compare:" in message
        broken = json.loads(json.dumps(fresh))
        broken["compare"]["points"] = 1
        assert not checker.check(broken, committed)[0]
        broken = json.loads(json.dumps(fresh))
        broken["compare"]["ranking"][0]["score"] = 1.2
        assert not checker.check(broken, committed)[0]
        ok, message = checker.check(
            {"scale": "default", "engine": {"speedup": 10.0}}, committed)
        assert ok and "compare:" not in message

    def test_perf_gate_obs_overhead(self):
        """The obs gate fails only when fresh enabled_overhead exceeds
        committed by more than the absolute margin, and stays silent
        when either document predates the obs section."""
        checker = _load("check_perf")
        committed = {"scale": "default", "engine": {"speedup": 10.0},
                     "obs": {"enabled_overhead": 0.03}}
        fresh = {"scale": "default", "engine": {"speedup": 10.0},
                 "obs": {"enabled_overhead": 0.12}}
        ok, message = checker.check(fresh, committed)
        assert ok and "obs enabled overhead" in message
        fresh["obs"]["enabled_overhead"] = 0.14
        ok, message = checker.check(fresh, committed)
        assert not ok and "obs enabled overhead" in message
        ok, message = checker.check(
            {"scale": "default", "engine": {"speedup": 10.0}}, committed)
        assert ok and "obs" not in message

    def test_perf_gate_thresholds(self):
        """check_perf passes at >= 0.8x committed speedup, fails below,
        and refuses cross-scale comparisons."""
        checker = _load("check_perf")
        committed = {"scale": "default", "engine": {"speedup": 10.0}}
        ok, _ = checker.check(
            {"scale": "default", "engine": {"speedup": 8.0}}, committed)
        assert ok
        ok, _ = checker.check(
            {"scale": "default", "engine": {"speedup": 7.9}}, committed)
        assert not ok
        with pytest.raises(ValueError):
            checker.check(
                {"scale": "tiny", "engine": {"speedup": 8.0}}, committed)

    def test_committed_document_is_valid(self):
        """The checked-in default-scale results must satisfy the schema."""
        path = os.path.join(_PERF, "BENCH_llc.json")
        if not os.path.exists(path):
            pytest.skip("no committed BENCH_llc.json")
        runner = _load("run")
        with open(path) as handle:
            doc = json.load(handle)
        runner.validate(doc)
        assert doc["scale"] == "default"
