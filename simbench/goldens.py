"""Committed per-quantum digests of the simulated statistics.

``goldens/<workload>.json`` maps a seed to the digests of quanta
``0, 1, 2, ...`` of a fresh scenario built with that seed.  Goldens
exist for each builder's default seed and for :data:`HELD_OUT_SEED`;
they pin the model as it stands, not its accuracy against the paper.

Regenerate after a deliberate model change with
``python3 simbench/goldens.py`` (about five minutes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scenarios  # noqa: E402

GOLDEN_DIR = HERE / "goldens"

#: The one seed per workload that no builder uses by default.
HELD_OUT_SEED = 1

#: Quanta per golden: several times what one run reaches on a 2-core
#: VM, so a faster simulator still has every quantum checked.  A run
#: that reaches the end of its golden stops measuring there.
GOLDEN_QUANTA = {"leaky-dma-1500": 1600, "flows-64": 2400,
                 "kvs-ycsb-a": 800}


def load(workload: str, seed: "int | None") -> "list[str] | None":
    """The golden digests for ``seed``, or None if none is committed."""
    path = GOLDEN_DIR / f"{workload}.json"
    table = json.loads(path.read_text())
    if seed is None:
        seed = scenarios.default_seed(workload)
    return table.get(str(seed))


def generate(workload: str, seed: int, quanta: int, *,
             oracle: bool = False) -> "list[str]":
    """Digests of the first ``quanta`` quanta of a fresh scenario."""
    scen = scenarios.build(workload, seed, oracle=oracle)
    return [scenarios.step(scen) for _ in range(quanta)]


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, quanta in GOLDEN_QUANTA.items():
        seeds = (scenarios.default_seed(workload), HELD_OUT_SEED)
        table = {str(seed): generate(workload, seed, quanta)
                 for seed in seeds}
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(table, indent=0) + "\n")
        print(f"{path}: seeds {list(table)}, {quanta} quanta each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
