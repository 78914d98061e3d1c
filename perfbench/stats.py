"""Order statistics and the comparison rule the benchmark reports with."""

from __future__ import annotations

import statistics
from typing import Optional

#: candidates for the reported tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples a tail percentile needs beyond it to be reported
TAIL_MIN_BEYOND = 10


def quartiles(values) -> tuple:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def tail(values) -> Optional[tuple]:
    """(percentile, value, samples) for the highest percentile that has
    at least :data:`TAIL_MIN_BEYOND` samples above it; ``None`` when no
    candidate has (fewer than 20 samples never qualify)."""
    values = list(values)
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        if sum(1 for v in values if v > value) >= TAIL_MIN_BEYOND:
            return p, value, len(values)
    return None


def _gain(old: float, new: float, better: str) -> float:
    """How much better ``new`` is than ``old`` (negative: worse)."""
    return new - old if better == "higher" else old - new


def classify(old: dict, new: dict, better: str,
             bound: Optional[float]) -> tuple:
    """Compare two sets of runs of one metric, keyed by seed.

    Returns (verdict, share of seed pairs the new side won).  Verdicts:

    * ``improved`` -- new wins at least 9 of 10 pairs and its median
      beats the old median by more than the old runs' own inter-quartile
      distance;
    * ``unresolved`` -- either side spreads wider than ``bound`` and new
      does not beat old on every run (also any non-improvement when the
      metric has no bound);
    * ``worse`` -- the new median is worse than the old one by more than
      ``bound`` of it;
    * ``no-worse`` -- otherwise.
    """
    seeds = sorted(set(old) & set(new))
    wins = sum(1 for s in seeds if _gain(old[s], new[s], better) > 0)
    won = wins / len(seeds) if seeds else 0.0
    oq1, omed, oq3 = quartiles(old.values())
    __, nmed, __ = quartiles(new.values())
    gain = _gain(omed, nmed, better)
    if seeds and won >= 0.9 and gain > (oq3 - oq1):
        return "improved", won
    if bound is None:
        return "unresolved", won
    if max(spread(old.values()), spread(new.values())) > bound:
        worst_new = (min if better == "higher" else max)(new.values())
        best_old = (max if better == "higher" else min)(old.values())
        if _gain(best_old, worst_new, better) > 0:
            return "no-worse", won
        return "unresolved", won
    if -gain > bound * abs(omed):
        return "worse", won
    return "no-worse", won
