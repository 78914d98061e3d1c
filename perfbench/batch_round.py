"""One round of a batch workload, in a fresh process.

Started by ``run.py`` once per round, so per-process caches start empty
as they do for a one-shot ``python -m repro.*`` run.  It imports what
the round needs, notes when it became ready, times the round, and
prints one JSON line: readiness time, round wall time, CPU time (self
plus reaped children), peak RSS, the verdict summaries and, when
traced, the span totals and records::

    python3 perfbench/batch_round.py WORKLOAD SEED 0|1|warm

``warm`` only imports and prints when it became ready.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    import workloads as wl

    for module in wl.IMPORTS[workload]:
        importlib.import_module(module)
    if argv[2] == "warm":  # a start-up probe: imports only
        sys.stdout.write(json.dumps({"ready": time.monotonic()}) + "\n")
        return 0
    tracer = handle = None
    if traced:
        import spans

        tracer = spans.Tracer(clock=time.monotonic)
        handle = spans.install(tracer)
    ready = time.monotonic()
    cpu0 = _cpu()
    start = time.monotonic()
    summaries = wl.ROUNDS[workload](seed)
    end = time.monotonic()
    cpu = _cpu() - cpu0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready": ready, "start": start, "end": end, "cpu_s": cpu,
           "maxrss_kb": rss_kb, "summaries": summaries}
    if traced:
        handle.remove()
        out["trace"] = tracer.snapshot()
        out["left_wrapped"] = spans.wrapped_attributes()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
