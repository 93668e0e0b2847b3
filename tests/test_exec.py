"""Unit tests for the sweep-execution subsystem (repro.exec)."""

import os
import pickle

import pytest

from repro.exec import (ParallelRunner, Point, ResultCache, SweepProgress,
                        SweepSpec, canonical_params, code_fingerprint,
                        default_cache_dir, func_ref, point_key, run_sweep)


# Module-level point functions — workers import these by reference.
def add_point(a, b=0, scale=1):
    return (a + b) * scale


def pair_point(x, y):
    return {"x": x, "y": y, "sum": x + y}


def boom_point(a):
    raise AssertionError("point function must not run on a cache hit")


class TestCanonicalParams:
    def test_key_order_independent(self):
        assert canonical_params({"a": 1, "b": 2}) \
            == canonical_params({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert canonical_params({"a": 1}) != canonical_params({"a": 2})
        assert canonical_params({"a": 1}) != canonical_params({"a": 1.0})

    def test_flat_params_keep_the_historical_format(self):
        # Pre-existing cache entries were keyed by
        # repr(sorted(params.items())); flat params must still render
        # identically so they stay addressable.
        params = {"b": 2, "a": "x", "c": (1,), "d": None, "e": 1.5}
        assert canonical_params(params) == repr(sorted(params.items()))

    def test_nested_dicts_are_order_insensitive(self):
        a = {"policy_params": {"interval_s": 1.0, "shuffle": False}}
        b = {"policy_params": {"shuffle": False, "interval_s": 1.0}}
        assert canonical_params(a) == canonical_params(b)

    def test_nested_dict_values_still_distinguish(self):
        a = {"policy_params": {"interval_s": 1.0}}
        b = {"policy_params": {"interval_s": 0.5}}
        assert canonical_params(a) != canonical_params(b)

    def test_func_ref(self):
        assert func_ref(add_point) == f"{__name__}:add_point"


class TestSweepSpec:
    def test_from_points_preserves_order(self):
        spec = SweepSpec.from_points(
            "s", add_point, [dict(a=3), dict(a=1), dict(a=2)])
        assert [p.params["a"] for p in spec.points] == [3, 1, 2]
        assert [p.index for p in spec.points] == [0, 1, 2]
        assert len(spec) == 3

    def test_from_product_last_axis_fastest(self):
        spec = SweepSpec.from_product(
            "s", add_point, axes={"a": (1, 2), "b": (10, 20)},
            common={"scale": 2})
        combos = [(p.params["a"], p.params["b"]) for p in spec.points]
        assert combos == [(1, 10), (1, 20), (2, 10), (2, 20)]
        assert all(p.params["scale"] == 2 for p in spec.points)

    def test_rejects_lambda(self):
        with pytest.raises(ValueError, match="module-level"):
            SweepSpec.from_points("s", lambda a: a, [dict(a=1)])

    def test_rejects_nested_function(self):
        def nested(a):
            return a

        with pytest.raises(ValueError, match="module-level"):
            SweepSpec.from_points("s", nested, [dict(a=1)])

    def test_point_is_picklable(self):
        point = Point(0, dict(a=1, mode="iat"))
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point


class TestPointKey:
    SPEC = SweepSpec.from_points("s", add_point, [dict(a=1), dict(a=2)])

    def test_stable_across_calls(self):
        assert point_key(self.SPEC, self.SPEC.points[0]) \
            == point_key(self.SPEC, self.SPEC.points[0])

    def test_differs_by_params(self):
        assert point_key(self.SPEC, self.SPEC.points[0]) \
            != point_key(self.SPEC, self.SPEC.points[1])

    def test_differs_by_sweep_name(self):
        other = SweepSpec.from_points("t", add_point, [dict(a=1)])
        assert point_key(self.SPEC, self.SPEC.points[0]) \
            != point_key(other, other.points[0])

    def test_differs_by_version(self):
        bumped = SweepSpec.from_points("s", add_point, [dict(a=1)],
                                       version="v2")
        assert point_key(self.SPEC, self.SPEC.points[0]) \
            != point_key(bumped, bumped.points[0])

    def test_fingerprint_in_key(self, monkeypatch):
        before = point_key(self.SPEC, self.SPEC.points[0])
        monkeypatch.setattr("repro.exec.cache.code_fingerprint",
                            lambda: "different-code")
        assert point_key(self.SPEC, self.SPEC.points[0]) != before

    def test_code_fingerprint_is_hex_digest(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestResultCache:
    def test_default_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().endswith(os.path.join(".cache", "repro"))

    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ab" + "0" * 62
        hit, _ = cache.get("s", key)
        assert not hit and cache.misses == 1
        cache.put("s", key, {"value": 42}, meta={"sweep": "s"})
        hit, value = cache.get("s", key)
        assert hit and value == {"value": 42}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        # layout: <root>/<sweep>/<key[:2]>/<key>.pkl
        assert (tmp_path / "s" / "ab" / (key + ".pkl")).is_file()

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "0" * 62
        cache.put("s", key, 1)
        path = tmp_path / "s" / "cd" / (key + ".pkl")
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get("s", key)
        assert not hit
        assert not path.exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("s1", "ab" + "0" * 62, 1)
        cache.put("s1", "cd" + "0" * 62, 2)
        cache.put("s2", "ef" + "0" * 62, 3)
        assert cache.clear("s1") == 2
        assert cache.clear() == 1
        assert cache.clear() == 0


class TestParallelRunner:
    SPEC = SweepSpec.from_points(
        "unit", pair_point,
        [dict(x=i, y=10 * i) for i in range(6)])

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_serial_results_in_point_order(self):
        results = ParallelRunner(jobs=1).run(self.SPEC)
        assert [r["x"] for r in results] == list(range(6))

    def test_parallel_matches_serial(self):
        serial = ParallelRunner(jobs=1).run(self.SPEC)
        with ParallelRunner(jobs=4) as runner:
            assert runner.run(self.SPEC) == serial

    def test_run_sweep_defaults_to_serial(self):
        assert run_sweep(self.SPEC) == ParallelRunner(jobs=1).run(self.SPEC)

    def test_pool_is_reused_across_sweeps(self):
        with ParallelRunner(jobs=2) as runner:
            runner.run(self.SPEC)
            pool = runner._executor
            runner.run(self.SPEC)
            assert runner._executor is pool
        assert runner._executor is None

    def test_cold_run_populates_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        results = ParallelRunner(jobs=1, cache=cache).run(self.SPEC)
        assert cache.stores == len(self.SPEC)
        assert cache.hits == 0
        assert [r["x"] for r in results] == list(range(6))

    def test_warm_run_is_all_hits_and_runs_nothing(self, tmp_path,
                                                   monkeypatch):
        cache = ResultCache(str(tmp_path))
        cold = ParallelRunner(jobs=1, cache=cache).run(self.SPEC)
        warm_cache = ResultCache(str(tmp_path))

        def bomb(*args):
            raise AssertionError("cache hit must not execute the point")

        monkeypatch.setattr("repro.exec.runner._call_chunk", bomb)
        warm = ParallelRunner(jobs=4, cache=warm_cache).run(self.SPEC)
        assert warm == cold
        assert warm_cache.hits == len(self.SPEC)
        assert warm_cache.misses == 0

    def test_partial_cache_fills_only_missing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        ParallelRunner(jobs=1, cache=cache).run(self.SPEC)
        cache.clear("unit")
        half = SweepSpec.from_points(
            "unit", pair_point, [dict(x=i, y=10 * i) for i in range(3)])
        ParallelRunner(jobs=1, cache=cache).run(half)
        full_cache = ResultCache(str(tmp_path))
        results = ParallelRunner(jobs=1, cache=full_cache).run(self.SPEC)
        assert full_cache.hits == 3 and full_cache.misses == 3
        assert [r["x"] for r in results] == list(range(6))

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        ParallelRunner(jobs=1, cache=cache).run(self.SPEC)
        bumped = SweepSpec.from_points(
            "unit", pair_point, [p.params for p in self.SPEC.points],
            version="v2")
        fresh = ResultCache(str(tmp_path))
        ParallelRunner(jobs=1, cache=fresh).run(bumped)
        assert fresh.hits == 0 and fresh.misses == len(self.SPEC)

    def test_tracing_forces_serial_and_bypasses_pool(self):
        from repro.obs import Tracer, tracing
        tracer = Tracer()
        with tracing(tracer):
            runner = ParallelRunner(jobs=4)
            assert runner.effective_jobs() == 1
            runner.run(self.SPEC)
            assert runner._executor is None  # never created a pool
        names = {event.name for event in tracer.events()}
        assert "unit" in names          # per-point progress counters
        assert "sweep_done" in names


class TestSweepProgress:
    def test_eta_excludes_cache_hits(self):
        ticks = iter(range(100))
        progress = SweepProgress("s", total=4, clock=lambda: next(ticks))
        progress.point_done(cached=True)
        assert progress.eta_s() == 0.0
        progress.point_done(cached=False, seconds=2.0)
        # one computed point at 2 s each, two points remaining
        assert progress.eta_s() == pytest.approx(4.0)
        progress.point_done(cached=False, seconds=4.0)
        assert progress.eta_s() == pytest.approx(3.0)

    def test_echo_writes_status_line(self):
        import io
        stream = io.StringIO()
        progress = SweepProgress("s", total=1, echo=True, stream=stream)
        progress.point_done(cached=False, seconds=0.5)
        progress.finish()
        out = stream.getvalue()
        assert "[s] 1/1 points" in out
        assert out.endswith("\n")
