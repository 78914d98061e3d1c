"""Regenerate ``goldens.json``: reference verdicts for every pool seed.

Each reference is computed along a path the timed run does not take
(``workloads.REFERENCE_PATHS``).  On the first :data:`CROSS_CHECK`
seeds of each section the timed path runs too, and the script fails
unless both paths agree.  Run from the repository root::

    python3 perfbench/golden.py        # every section (~15 min)
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

#: seeds per section on which the timed path is run and compared
CROSS_CHECK = 2


def _campaign(run, seed: int, lanes: int) -> dict:
    return wl.signature_verdict(run(seed, lanes).signature())


#: section -> (pool seeds, reference, timed path)
SECTIONS = {
    "la1_flow": (
        wl.POOL["la1_flow"],
        lambda seed: wl.la1_round(seed, reference=True),
        wl.la1_round),
    "zoo_flow": (
        wl.POOL["zoo_flow"],
        lambda seed: wl.zoo_round(seed, reference=True),
        wl.zoo_round),
    # the smoke campaign serves both fault_campaign and serve_jobs
    "smoke": (
        sorted(set(wl.POOL["fault_campaign"]) | set(wl.POOL["serve_jobs"])),
        lambda seed: _campaign(wl.smoke_campaign, seed, 64),
        lambda seed: _campaign(wl.smoke_campaign, seed, wl.SMOKE_LANES)),
    "sweep": (
        wl.POOL["fault_campaign"],
        lambda seed: _campaign(wl.sweep_campaign, seed, 1),
        lambda seed: _campaign(wl.sweep_campaign, seed, wl.SWEEP_LANES)),
}


def main() -> int:
    goldens = {"reference_paths": wl.REFERENCE_PATHS}
    for section, (seeds, reference, timed) in SECTIONS.items():
        table = goldens[section] = {}
        for index, seed in enumerate(seeds):
            start = time.perf_counter()
            ref = table[str(seed)] = reference(seed)
            if index < CROSS_CHECK and timed(seed) != ref:
                raise SystemExit(f"{section} seed {seed}: the timed path "
                                 f"and the reference disagree")
            print(f"{section} seed {seed}: "
                  f"{time.perf_counter() - start:.1f}s", flush=True)
    tmp = wl.GOLDENS + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(goldens, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    os.replace(tmp, wl.GOLDENS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
