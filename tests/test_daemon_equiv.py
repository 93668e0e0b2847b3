"""Behaviour-preservation contract for the controller plane.

``tests/data/daemon_goldens.json`` was captured from the *pre-refactor*
monolithic IAT daemon (the Fig. 10/11 harnesses at two seeds each).
These tests replay the same harness calls through the refactored stack
— ``ControllerDaemon`` driving a registry-constructed ``IATPolicy`` —
and require the iteration history to match field-for-field: same
timestamps, FSM states, change kinds, DDIO widths, per-group way
counts, and action strings.  Any behavioural drift in the policy split
shows up here as a named field diff, not a flaky figure.

``tests/data/baseline_goldens.json`` pins the paper's three comparison
policies the same way.  It holds Fig. 10 under ``baseline``,
``core-only`` and ``io-iso`` at the same seeds and settings, captured
while those policies still ran as raw engine controllers.  Each run
records every quantum's DDIO mask and per-tenant CAT mask plus the four
phase floats (by ``repr``), so running them as registered policies must
reproduce the figure bit for bit.  The file was written by::

    PYTHONPATH=<checkout>/src:. python -c "from tests.test_daemon_equiv \\
        import capture_baseline_goldens; capture_baseline_goldens()"

with ``<checkout>`` a copy of the commit before that port.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from repro.core import ControllerDaemon, IATParams, IATPolicy
from repro.experiments import fig10_shuffle, fig11_timeline
from repro.experiments.common import shuffle_scenario

DATA = Path(__file__).parent / "data"
GOLDENS = json.loads((DATA / "daemon_goldens.json").read_text())
SEEDS = GOLDENS["meta"]["seeds"]
BASELINE_GOLDENS = DATA / "baseline_goldens.json"
BASELINE_MODES = ("baseline", "core-only", "io-iso")
PHASE_FIELDS = ("phase2_throughput", "phase2_latency_ns",
                "phase3_throughput", "phase3_latency_ns")


def serialize(history):
    """The goldens' field-for-field view of an iteration history."""
    return [{"time": entry.time, "state": entry.state.value,
             "kind": entry.kind.value, "ddio_ways": entry.ddio_ways,
             "group_ways": dict(entry.group_ways), "action": entry.action}
            for entry in history]


def assert_histories_equal(actual, golden):
    assert len(actual) == len(golden), \
        f"iteration count {len(actual)} != golden {len(golden)}"
    for i, (a, g) in enumerate(zip(actual, golden)):
        assert a == g, f"iteration {i} diverged: {a} != {g}"


def fig10_trace(mode: str, seed: int) -> dict:
    """Fig. 10 under ``mode``: every quantum's masks and the phase
    floats (by ``repr``)."""
    built = []

    def build(**kwargs):
        built.append(shuffle_scenario(**kwargs))
        return built[-1]

    with mock.patch.object(fig10_shuffle, "shuffle_scenario", build):
        point = fig10_shuffle.run_one(mode, seed=seed,
                                      **GOLDENS["meta"]["fig10_kwargs"])
    records = built[0].sim.metrics.records
    return {"ddio_mask": [r.ddio_mask for r in records],
            "masks": {name: [r.tenants[name].mask for r in records]
                      for name in records[0].tenants},
            **{name: repr(getattr(point, name)) for name in PHASE_FIELDS}}


def capture_baseline_goldens(path: Path = BASELINE_GOLDENS) -> None:
    """Write ``baseline_goldens.json`` from the code on ``sys.path``."""
    runs = {mode: {str(seed): fig10_trace(mode, seed) for seed in SEEDS}
            for mode in BASELINE_MODES}
    meta = {"fig10_kwargs": GOLDENS["meta"]["fig10_kwargs"],
            "modes": list(BASELINE_MODES), "seeds": SEEDS}
    lines = ["{", f' "meta": {json.dumps(meta, sort_keys=True)},',
             ' "fig10": {']
    for i, mode in enumerate(BASELINE_MODES):
        lines.append(f"  {json.dumps(mode)}: {{")
        for j, seed in enumerate(SEEDS):
            run = json.dumps(runs[mode][str(seed)], sort_keys=True)
            comma = "," if j < len(SEEDS) - 1 else ""
            lines.append(f"   {json.dumps(str(seed))}: {run}{comma}")
        lines.append("  }" + ("," if i < len(BASELINE_MODES) - 1 else ""))
    lines += [" }", "}"]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_fig11_history_matches_pre_refactor_golden(seed):
    result = fig11_timeline.run_point(seed=seed,
                                      **GOLDENS["meta"]["fig11_kwargs"])
    assert_histories_equal(serialize(result.daemon_history),
                           GOLDENS["fig11"][str(seed)])


@pytest.mark.parametrize("seed", SEEDS)
def test_fig10_iat_history_matches_pre_refactor_golden(seed):
    point = fig10_shuffle.run_one("iat", seed=seed,
                                  **GOLDENS["meta"]["fig10_kwargs"])
    assert_histories_equal(serialize(point.daemon_history),
                           GOLDENS["fig10"][str(seed)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_fig10_baseline_matches_pre_port_golden(mode, seed):
    baselines = json.loads(BASELINE_GOLDENS.read_text())
    assert baselines["meta"]["fig10_kwargs"] == \
        GOLDENS["meta"]["fig10_kwargs"]
    golden = baselines["fig10"][mode][str(seed)]
    actual = fig10_trace(mode, seed)
    for name in PHASE_FIELDS:
        assert actual[name] == golden[name], name
    assert len(actual["ddio_mask"]) == len(golden["ddio_mask"])
    for q, (a, g) in enumerate(zip(actual["ddio_mask"],
                                   golden["ddio_mask"])):
        assert a == g, f"quantum {q}: ddio_mask {a:#x} != {g:#x}"
    assert sorted(actual["masks"]) == sorted(golden["masks"])
    for tenant, masks in golden["masks"].items():
        for q, (a, g) in enumerate(zip(actual["masks"][tenant], masks)):
            assert a == g, f"quantum {q}: {tenant} mask {a:#x} != {g:#x}"


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_registry_constructed_iat_matches_shim(seed):
    """`attach_controller("iat", ...)` is the same controller as a
    hand-built `ControllerDaemon` driving an `IATPolicy`."""
    kwargs = GOLDENS["meta"]["fig11_kwargs"]

    def run(attach):
        scenario = shuffle_scenario(packet_size=kwargs["packet_size"],
                                    seed=seed)
        daemon = attach(scenario)
        c4 = scenario.workloads["c4"]
        scenario.sim.at(kwargs["t_grow"],
                        lambda: c4.set_working_set(10 << 20))
        scenario.sim.run(kwargs["t_end"])
        return serialize(daemon.history)

    def by_hand(sc):
        daemon = ControllerDaemon(sc.control_plane(),
                                  IATPolicy(manage_ddio=False))
        sc.sim.add_controller(daemon)
        return daemon

    via_hand = run(by_hand)
    via_registry = run(lambda sc: sc.attach_controller(
        "iat", manage_ddio=False))
    assert_histories_equal(via_registry, via_hand)


def test_registry_iat_is_a_controller_daemon():
    scenario = shuffle_scenario(packet_size=1500, seed=SEEDS[0])
    daemon = scenario.attach_controller("iat")
    assert isinstance(daemon, ControllerDaemon)
    assert daemon.policy.params == IATParams()
    assert daemon.interval_s == IATParams().interval_s
