"""Coverage benchmarks: probe overhead and time-to-coverage.

Two questions the coverage subsystem must answer quantitatively:

1. **Probe overhead** -- attaching the codegen'd toggle probe to the
   compiled RTL backend must cost at most 25% of the uninstrumented
   step rate (the acceptance bound of the subsystem).
2. **Time-to-coverage** -- the Table 3 claim restated: for the *same*
   functional coverage model (the LA-1 transactor covergroup), the
   kernel-level (SystemC) simulation buys coverage faster per wall-clock
   second than the bit-level (Verilog+OVL) simulation, and the gap per
   cycle narrows to parity since both see identical traffic.

Rows land in ``BENCH_cover.json`` (coverage-per-second /
coverage-per-cycle per level and the probe overhead ratio), so later
PRs can track both trends.
"""

import time

import pytest

from conftest import FULL, record_bench, record_row
from repro.abv import summarize
from repro.core import (
    La1Config,
    RtlHost,
    attach_read_mode_monitors,
    build_la1_system,
    build_la1_top_with_ovl,
)
from repro.core.traffic import queue_traffic
from repro.cover import La1FunctionalCoverage, ToggleCollector
from repro.rtl import RtlSimulator, elaborate

BANKS = [1, 2, 4]
CYCLES = 600 if FULL else 250
TRAFFIC = 40 if FULL else 24
OVERHEAD_BOUND = 1.25


def _config(banks: int) -> La1Config:
    return La1Config(banks=banks, beat_bits=16, addr_bits=3)


def _rtl_sim(banks: int, backend: str) -> RtlSimulator:
    return RtlSimulator(elaborate(build_la1_top_with_ovl(_config(banks))),
                        backend=backend)


def _run_rtl(banks: int, toggles: bool, backend: str = "compiled"):
    """Seconds for the Table 3 RTL workload, with or without the
    toggle probe; returns (elapsed, sim, collector or None)."""
    config = _config(banks)
    sim = _rtl_sim(banks, backend)
    host = RtlHost(sim, config)
    collector = ToggleCollector(sim) if toggles else None
    queue_traffic(host, config, TRAFFIC, seed=2004)
    start = time.perf_counter()
    host.run_cycles(CYCLES)
    elapsed = time.perf_counter() - start
    assert sim.ok, sim.failures[:3]
    return elapsed, sim, collector


@pytest.mark.parametrize("banks", BANKS)
def test_cover_probe_overhead(benchmark, banks):
    """The codegen'd probe must keep the compiled backend within 25%
    of its uninstrumented step rate."""
    box = {}

    def run():
        # interleave to share cache warmth fairly
        box["plain"], __, __ = _run_rtl(banks, toggles=False)
        box["probed"], sim, collector = _run_rtl(banks, toggles=True)
        box["calls"] = collector.probe_calls
        box["tracked"] = len(collector.tracked)
        box["stats"] = sim.stats()

    benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = box["probed"] / box["plain"]
    record_bench(
        "BENCH_cover.json",
        f"probe_overhead_banks={banks}",
        {
            "banks": banks,
            "cycles": CYCLES,
            "tracked_nets": box["tracked"],
            "probe_calls": box["calls"],
            "plain_s_per_cycle": round(box["plain"] / CYCLES, 9),
            "probed_s_per_cycle": round(box["probed"] / CYCLES, 9),
            "overhead": round(overhead, 3),
        },
    )
    record_row(
        "Coverage: compiled-probe overhead",
        f"banks={banks}  plain={box['plain'] / CYCLES * 1e6:7.1f}us/cy  "
        f"probed={box['probed'] / CYCLES * 1e6:7.1f}us/cy  "
        f"overhead={overhead:5.2f}x  ({box['tracked']} nets)",
    )
    assert box["stats"]["cover_probe_calls"] == box["calls"]
    assert overhead <= OVERHEAD_BOUND, (
        f"toggle probe overhead {overhead:.2f}x exceeds "
        f"{OVERHEAD_BOUND}x at {banks} banks"
    )


def _sysc_functional(banks: int):
    """(elapsed, func_coverage) on the kernel-level model."""
    config = _config(banks)
    sim, clocks, device, host = build_la1_system(config)
    monitors = attach_read_mode_monitors(sim, device, clocks)
    functional = La1FunctionalCoverage(host)
    queue_traffic(host, config, TRAFFIC, seed=2004)
    sim.initialize()
    start = time.perf_counter()
    sim.run(2 * CYCLES)
    elapsed = time.perf_counter() - start
    report = summarize(monitors).finish()
    assert report.passed, report.render()
    functional.detach()
    return elapsed, functional.harvest().coverage()


def _rtl_functional(banks: int, backend: str):
    """(elapsed, func_coverage) on the OVL-instrumented RTL model."""
    config = _config(banks)
    sim = _rtl_sim(banks, backend)
    host = RtlHost(sim, config)
    functional = La1FunctionalCoverage(host)
    queue_traffic(host, config, TRAFFIC, seed=2004)
    start = time.perf_counter()
    host.run_cycles(CYCLES)
    elapsed = time.perf_counter() - start
    assert sim.ok, sim.failures[:3]
    functional.detach()
    return elapsed, functional.harvest().coverage()


@pytest.mark.parametrize("banks", BANKS)
def test_time_to_coverage_sysc_vs_rtl(benchmark, banks):
    """Table 3 as time-to-coverage: identical traffic, identical
    functional model; the kernel-level run earns coverage faster per
    second (the interp backend stands in for the commercial Verilog
    simulator, as in bench_table3_simulation)."""
    box = {}

    def run():
        box["sc"] = _sysc_functional(banks)
        box["rtl"] = _rtl_functional(banks, backend="interp")

    benchmark.pedantic(run, rounds=1, iterations=1)
    (sc_s, sc_cov), (rtl_s, rtl_cov) = box["sc"], box["rtl"]
    sc_cps = sc_cov / sc_s
    rtl_cps = rtl_cov / rtl_s
    record_bench(
        "BENCH_cover.json",
        f"time_to_coverage_banks={banks}",
        {
            "banks": banks,
            "cycles": CYCLES,
            "traffic": TRAFFIC,
            "sysc_func_coverage": round(sc_cov, 4),
            "rtl_func_coverage": round(rtl_cov, 4),
            "sysc_coverage_per_sec": round(sc_cps, 1),
            "rtl_coverage_per_sec": round(rtl_cps, 1),
            "sysc_coverage_per_cycle": round(sc_cov / CYCLES, 6),
            "rtl_coverage_per_cycle": round(rtl_cov / CYCLES, 6),
            "speedup": round(sc_cps / rtl_cps, 2),
        },
    )
    record_row(
        "Coverage: time-to-coverage (func level, SystemC vs RTL+OVL)",
        f"banks={banks}  SC={sc_cps:9.1f} cov/s  "
        f"RTL={rtl_cps:9.1f} cov/s  ratio={sc_cps / rtl_cps:6.1f}x  "
        f"(cov {sc_cov:.0%} vs {rtl_cov:.0%})",
    )
    # same traffic, same covergroup: per-cycle coverage is comparable
    assert sc_cov == pytest.approx(rtl_cov, abs=0.15)
    # per-second, the kernel-level model must win (the Table 3 claim)
    assert sc_cps > rtl_cps
