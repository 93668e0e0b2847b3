"""Parallel-vs-serial determinism for the real figure sweeps.

The runner's contract: ``ParallelRunner(jobs=4)`` returns a result list
field-for-field identical to serial in-process execution, and a warm
cache replays those exact results without executing any simulation.
These tests exercise it on two genuine harness sweeps (fig. 8 and the
sensitivity study) at reduced duration so they run in seconds.
"""

import dataclasses

import pytest

from repro.exec import ParallelRunner, ResultCache
from repro.experiments import fig08_leaky_dma, sensitivity
from repro.sim.config import TINY_PLATFORM

TINY_ARRAY = dataclasses.replace(TINY_PLATFORM, llc_backend="array")


def _fig08_sweep():
    return fig08_leaky_dma.sweep(packet_sizes=(256, 1024),
                                 duration_s=0.6, warmup_s=0.2,
                                 spec=TINY_ARRAY)


def _sensitivity_sweep():
    return sensitivity.sweep(
        sweeps={"threshold_stable": (0.03, 0.10)},
        duration_s=0.8, warmup_s=0.3, spec=TINY_ARRAY)


def _fields(result) -> dict:
    assert dataclasses.is_dataclass(result)
    return dataclasses.asdict(result)


@pytest.mark.parametrize("make_sweep", [_fig08_sweep, _sensitivity_sweep],
                         ids=["fig08", "sensitivity"])
def test_parallel_identical_to_serial(make_sweep):
    spec = make_sweep()
    serial = ParallelRunner(jobs=1).run(spec)
    with ParallelRunner(jobs=4) as runner:
        parallel = runner.run(spec)
    assert len(serial) == len(parallel) == len(spec)
    for point, a, b in zip(spec.points, serial, parallel):
        assert _fields(a) == _fields(b), f"diverged at {point.key()}"


def test_cache_round_trip_replays_without_simulating(tmp_path,
                                                     monkeypatch):
    spec = _fig08_sweep()
    cold_cache = ResultCache(str(tmp_path))
    with ParallelRunner(jobs=4, cache=cold_cache) as runner:
        cold = runner.run(spec)
    assert cold_cache.stores == len(spec)

    warm_cache = ResultCache(str(tmp_path))

    def bomb(*args):
        raise AssertionError("warm cache must not run the simulation")

    monkeypatch.setattr("repro.exec.runner._call_chunk", bomb)
    with ParallelRunner(jobs=4, cache=warm_cache) as runner:
        warm = runner.run(spec)
    assert warm_cache.hits == len(spec)
    assert warm_cache.misses == 0
    for a, b in zip(cold, warm):
        assert _fields(a) == _fields(b)
