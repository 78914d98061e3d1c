"""Compare two result sets of the benchmark, one row per (workload, metric).

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` files
``run.py --out DIR`` writes.  Runs are paired by workload, trace mode
and seed, so run both sides with the same seeds.  Each row shows both
sides' median and quartiles, the share of pairs the new side won, and
a verdict from ``stats.classify`` under the bounds in
``BENCHMARK.json`` (per-layer metrics have none, so they read
``improved``, ``worse`` or ``unresolved``).  Exit code 1 when any
end-to-end row is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_set(directory: str) -> dict:
    """{(workload, trace): {metric: {seed: value}}}"""
    table: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        key = (record["workload"], record["trace"])
        for name, metric in record["metrics"].items():
            table.setdefault(key, {}).setdefault(name, {})[
                record["seed"]] = metric["value"]
    return table


def compare(old: dict, new: dict, spec: dict) -> list:
    """Rows of (workload, trace, metric, old quartiles, new quartiles,
    won, verdict, pairs)."""
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(old) & set(new)):
        for name in sorted(set(old[key]) & set(new[key])):
            metric = defs.get(name)
            if metric is None:
                continue
            a, b = old[key][name], new[key][name]
            verdict, won = stats.classify(a, b, metric["better"],
                                          metric.get("bound"))
            if verdict == "unresolved" and metric.get("bound") is None \
                    and stats.classify(b, a, metric["better"],
                                       None)[0] == "improved":
                verdict = "worse"  # old beats new by the improved rule
            pairs = len(set(a) & set(b))
            rows.append((key[0], key[1], name, stats.quartiles(a.values()),
                         stats.quartiles(b.values()), won, verdict, pairs))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(load_set(args.old), load_set(args.new), spec)
    if not rows:
        print("compare: no (workload, metric) present in both sets")
        return 2
    e2e = {m["name"] for m in spec["end_to_end"]}
    print(f"{'workload':<15} {'metric':<24} {'old q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'won':>5} {'pairs':>5}  verdict")
    worse = False
    for workload, trace, name, oq, nq, won, verdict, pairs in rows:
        fmt = "/".join(f"{v:.4g}" for v in oq)
        nfmt = "/".join(f"{v:.4g}" for v in nq)
        share = f"{won:.2f}" if pairs else "-"
        print(f"{workload:<15} {name:<24} {fmt:>30} {nfmt:>30} "
              f"{share:>5} {pairs:>5}  {verdict}")
        worse = worse or (verdict == "worse" and name in e2e)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
