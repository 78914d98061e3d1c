"""Seeded LA-1 traffic streams, split into schedule and values.

The fault campaign, the flow's ABV and OVL stages, the coverage
collectors and the coverage testgen all drive the same Table-3 workload
shape: a seeded random read/write mix over all banks, queued by
:func:`queue_traffic`.  Pattern packing (PPSFP's second axis) and
lane-parallel stimulus scoring both need the *control* part of that
stream -- which command goes to which bank, in which order -- held
fixed while the *datapath* part (addresses, write data) varies per
lane.  The LA-1 status nets the lane machinery trusts for flow control
depend only on the command schedule, so every variant stream settles
control identically and lane 0 can arbitrate for all lanes.

``traffic_schedule`` draws the base stream with one fixed random-call
discipline per transaction (bank, address, read/write coin, then write
data), so a seed names the same stream wherever it is replayed.
``pattern_values`` re-draws only the datapath fields from a derived
seed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .spec import La1Config

__all__ = [
    "traffic_schedule",
    "pattern_values",
    "pattern_seed",
    "schedule_values",
    "queue_traffic",
]

#: (is_read, bank, addr, word-or-None) per transaction
Transaction = Tuple[bool, int, int, Optional[int]]


def traffic_schedule(config: La1Config, count: int,
                     seed: int) -> List[Transaction]:
    """The base seeded stream: schedule *and* pattern-0 values."""
    rng = random.Random(seed)
    word_max = (1 << config.word_bits) - 1
    schedule: List[Transaction] = []
    for __ in range(count):
        bank = rng.randrange(config.banks)
        addr = rng.randrange(config.mem_words)
        if rng.random() < 0.5:
            schedule.append((True, bank, addr, None))
        else:
            schedule.append((False, bank, addr, rng.randint(0, word_max)))
    return schedule


def pattern_seed(seed: int, pattern: int) -> int:
    """The derived seed of stimulus pattern ``pattern`` (> 0)."""
    from ..par.seeds import derive_seed

    return derive_seed(seed, "pattern", pattern)


def pattern_values(config: La1Config, schedule: List[Transaction],
                   variant_seed: int) -> List[Tuple[int, Optional[int]]]:
    """Re-draw the datapath fields (addr, write data) of ``schedule``
    from ``variant_seed``, keeping the command schedule untouched."""
    rng = random.Random(variant_seed)
    word_max = (1 << config.word_bits) - 1
    values: List[Tuple[int, Optional[int]]] = []
    for is_read, __, __addr, __word in schedule:
        addr = rng.randrange(config.mem_words)
        word = None if is_read else rng.randint(0, word_max)
        values.append((addr, word))
    return values


def schedule_values(config: La1Config, schedule: List[Transaction],
                    seed: int, pattern: int) -> List[Tuple[int, Optional[int]]]:
    """The (addr, word) stream of ``pattern`` (0 = the base stream)."""
    if pattern == 0:
        return [(addr, word) for __, __b, addr, word in schedule]
    return pattern_values(config, schedule, pattern_seed(seed, pattern))


def queue_traffic(host, config: La1Config, count: int, seed: int,
                  pattern: int = 0) -> None:
    """Queue the seeded stream onto ``host`` (``read``/``write`` API).

    ``pattern=0`` queues the base stream of :func:`traffic_schedule`;
    ``pattern>0`` keeps the command schedule and re-draws addr/data.
    """
    schedule = traffic_schedule(config, count, seed)
    values = schedule_values(config, schedule, seed, pattern)
    for (is_read, bank, __a, __w), (addr, word) in zip(schedule, values):
        if is_read:
            host.read(bank, addr)
        else:
            host.write(bank, addr, word)
