"""Engine-level vector == scalar equivalence for X-Mem's multi-draw chunks.

X-Mem's vector drain takes as many 256-op draws per chunk as its cost
EMA says fit the sub-step, runs their LLC-bound ops as one journaled
batch, and replays the scalar loop's slice recurrence draw by draw.  A
chunk the budget ends early is cut, and the generator goes back to the
state it had after the last kept draw; a chunk that sends no op to the
LLC replays on Python floats without a journal.  Fig. 10's shuffle
scenario runs three X-Mem tenants beside two testpmd containers; here
one of them fits the L2 (every op is an L2 hit, so every one of its
chunks takes the journal-free path) and one grows from 2 MB to 10 MB
mid-run.  Records, every core's counter block, each X-Mem's statistics
and its generator's final state must match the scalar loop bit for
bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.common import shuffle_scenario
from repro.sim.config import TINY_PLATFORM
from repro.workloads import base
from repro.workloads.base import EngineStats
from repro.workloads.xmem import XMem, _BATCH, _CHUNK_DRAWS

#: A clock at which an all-L2 op (18 cycles) budget of a sub-step is
#: exactly 12 draws' worth (55296 cycles): its budget runs out at a draw
#: boundary every sub-step.
XMEM_TINY = dataclasses.replace(TINY_PLATFORM, llc_backend="array",
                                freq_hz=2.21184e9)


def _run(exec_mode: str) -> dict:
    scen = shuffle_scenario(packet_size=1500, spec=XMEM_TINY, seed=4)
    xmems = {name: w for name, w in scen.workloads.items()
             if isinstance(w, XMem)}
    xmems["c3"].set_working_set(xmems["c3"].l2_bytes)
    scen.sim.at(0.4, lambda: xmems["c4"].set_working_set(10 << 20))
    scen.sim.exec_mode = exec_mode
    metrics = scen.sim.run(0.8)
    return {
        "records": [dataclasses.asdict(r) for r in metrics.records],
        "cores": [(b.instructions, b.cycles, b.llc_references,
                   b.llc_misses) for b in scen.platform.counters.cores],
        "xmem": {name: (w.stats.ops, w.stats.busy_cycles,
                        w.stats.latency_sum_cycles,
                        w.rng.bit_generator.state)
                 for name, w in xmems.items()},
    }


@pytest.mark.parametrize("headroom", [None, 2.5], ids=["default", "2.5"])
def test_vector_equals_scalar(monkeypatch, headroom):
    if headroom is not None:
        monkeypatch.setattr(base, "SPEC_HEADROOM", headroom)
    # Each replay's (ops kept, ops drawn): a cut keeps fewer.
    replays = []
    replay = XMem._replay

    def recording(latencies, k, *args):
        out = replay(latencies, k, *args)
        replays.append((out[0], k))
        return out

    monkeypatch.setattr(XMem, "_replay", staticmethod(recording))
    vec = _run("vector")
    cuts = [n for n, k in replays if n < k]
    assert any(n % _BATCH for n in cuts), "no cut inside a draw"
    assert any(not n % _BATCH for n in cuts), "no cut at a draw boundary"
    assert any(k > _BATCH for _, k in replays), "no multi-draw chunk"
    if headroom is not None:
        assert max(k for _, k in replays) == _CHUNK_DRAWS * _BATCH
    monkeypatch.setattr(XMem, "_replay", staticmethod(replay))
    sca = _run("scalar")
    assert vec["xmem"] == sca["xmem"]
    assert vec["cores"] == sca["cores"]
    assert vec["records"] == sca["records"]


def test_chunks_fit_the_size_histogram():
    """The chunk-size histogram's top bucket bounds X-Mem's largest
    chunk, so each of its ``le`` buckets counts only chunks within it."""
    assert _CHUNK_DRAWS * _BATCH <= EngineStats.SIZE_BUCKETS[-1]
