"""Tests of the benchmark itself (not part of the repository's tier-1
suite).  Run with ``python3 -m pytest simbench/test_simbench.py``."""

from __future__ import annotations

import json

import pytest

import goldens
import scenarios
import worker

ORACLE_QUANTA = 15


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    """Runs in these tests set up the minimum number of times."""
    monkeypatch.setattr(worker, "SETUP_MIN_S", 0.0)


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_scalar_oracle_matches_goldens(workload):
    """The goldens are the scalar oracle's outputs, not only the fast
    path's."""
    seed = scenarios.default_seed(workload)
    expected = goldens.load(workload, seed)[:ORACLE_QUANTA]
    assert goldens.generate(workload, seed, ORACLE_QUANTA,
                            oracle=True) == expected


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_stepping_matches_one_run(workload):
    """One quantum per ``run`` call simulates what one long ``run``
    does: the benchmark's stepping changes nothing it measures."""
    quanta = 6
    stepped = goldens.generate(workload, None, quanta)
    scen = scenarios.build(workload)
    seen = []
    append = scen.sim.metrics.append

    def record(rec):
        append(rec)
        seen.append(scenarios.digest(scenarios.quantum_state(scen)))

    scen.sim.metrics.append = record
    scen.sim.run(quanta * scen.sim.platform.spec.quantum_s)
    assert seen == stepped == goldens.load(workload, None)[:quanta]


def test_held_out_seed_has_a_golden():
    for workload in scenarios.WORKLOADS:
        assert goldens.load(workload, goldens.HELD_OUT_SEED)
        assert goldens.load(workload, 10_000) is None


def test_perturbed_statistic_is_a_failed_quantum(monkeypatch):
    real = scenarios.quantum_state
    calls = []

    def perturbed(scen):
        state = real(scen)
        calls.append(None)
        if len(calls) == worker.SETUP_REPS + 2:
            # One more DDIO hit in the second measured quantum.
            state = state[:2] + (state[2] + 1,) + state[3:]
        return state

    monkeypatch.setattr(scenarios, "quantum_state", perturbed)
    result = worker.run("leaky-dma-1500", None, 0.5, traced=False)
    assert result["checked"]
    assert result["attempted"] > worker.SETUP_REPS + 2
    assert result["failed"] == 1


def test_unchecked_seed_is_checked_against_the_oracle(monkeypatch):
    result = worker.run("flows-64", 10_000, 0.3, traced=False)
    assert not result["checked"] and result["failed"] == 0
    real = scenarios.build

    def skewed(workload, seed=None, *, oracle=False):
        scen = real(workload, seed, oracle=oracle)
        if oracle:
            scen.workloads["ovs"].stats.ops += 1
        return scen

    monkeypatch.setattr(scenarios, "build", skewed)
    result = worker.run("flows-64", 10_000, 0.3, traced=False)
    assert result["failed"] == worker.ORACLE_QUANTA


def test_traced_run_reports_every_layer():
    bench = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    rationale = json.loads((worker.HERE / "rationale.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert sorted(rationale["per_layer"]) == sorted(names)
    assert sorted(rationale["workloads"]) == sorted(
        w["name"] for w in bench["workloads"])

    result = worker.run("kvs-ycsb-a", None, 1.0, traced=True)
    assert result["failed"] == 0
    layers = result["layers"]
    from_untraced = {"sim.quantum_ms_p50", "sim.quantum_ms_p90",
                     "sim.quanta", "host.ref_ms", "host.wall_s",
                     "trace.overhead"}
    assert set(names) - from_untraced <= set(layers)
    assert layers["sim.other_ms"] < 0.1 * layers["quantum_ms_mean"]
    assert layers["cache.core_ms"] > 0 and layers["workloads.plan_ms"] > 0
    assert layers["setup.prefill_s"] > 0.5 * layers["setup.build_s"]
