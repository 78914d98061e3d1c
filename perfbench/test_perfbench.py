"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _timed(tracer, clock, name, seconds, inner=(), record=True):
    """A wrapped call that spends ``seconds`` itself around ``inner``
    calls (each a zero-argument callable)."""
    def body():
        clock.now += seconds / 2
        for call in inner:
            call()
        clock.now += seconds / 2
    tracer.call(name, record, body, (), {})


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_nested_and_back_to_back():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    leaf = lambda: _timed(tracer, clock, "leaf", 0.5, record=False)  # noqa
    mid = lambda: _timed(tracer, clock, "mid", 1.0, (leaf, leaf))  # noqa
    # root: 2 s of its own, two back-to-back mids each with two leaves
    _timed(tracer, clock, "root", 2.0, (mid, mid))
    assert tracer.totals["leaf"] == [4, pytest.approx(2.0),
                                     pytest.approx(2.0)]
    assert tracer.totals["mid"] == [2, pytest.approx(2.0),
                                    pytest.approx(4.0)]
    assert tracer.totals["root"] == [1, pytest.approx(2.0),
                                     pytest.approx(6.0)]
    assert tracer.root_s == pytest.approx(6.0)
    # self times partition the root's interval exactly
    assert sum(v[1] for v in tracer.totals.values()) == pytest.approx(6.0)
    # only recorded frames become spans; leaves link to nothing, mids
    # to the root
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    root = by_name["root"][0]
    assert [m["parent"] for m in by_name["mid"]] == [root["id"]] * 2
    assert "leaf" not in by_name
    assert by_name["mid"][0]["end"] <= by_name["mid"][1]["start"]


def test_entry_self_time_counts_only_at_the_root():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    run_in = lambda: _timed(tracer, clock, "fault.run", 1.0)  # noqa: E731
    layer = lambda: _timed(tracer, clock, "asm.explore", 2.0)  # noqa: E731
    _timed(tracer, clock, "dsl.flow", 1.0, (layer, run_in))
    # dsl.flow is the entry; the nested fault.run is a covered layer
    assert tracer.entry_self_s == pytest.approx(1.0)
    assert spans.covered_share(tracer.root_s, tracer.entry_self_s,
                               5.0) == pytest.approx(0.6)


def test_chrome_trace_shape():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    _timed(tracer, clock, "a.outer", 1.0,
           (lambda: _timed(tracer, clock, "b.inner", 0.5),))
    trace = spans.chrome_trace([dict(s, pid=3) for s in tracer.spans],
                               {3: "round 0"})
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in events} == {"a.outer", "b.inner"}
    inner = next(e for e in events if e["name"] == "b.inner")
    outer = next(e for e in events if e["name"] == "a.outer")
    assert inner["args"]["parent"] == outer["args"]["id"]
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    assert outer["args"]["self_us"] == pytest.approx(1e6)
    json.dumps(trace)


# ---------------------------------------------------------------------------
# tail rule and comparison
# ---------------------------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert stats.tail(range(19)) is None
    p, value, n = stats.tail(range(1, 21))
    assert (p, value, n) == (50.0, 10, 20)
    p, value, n = stats.tail(range(1, 101))
    assert (p, value, n) == (90.0, 90, 100)
    p, value, n = stats.tail(range(1, 1001))
    assert (p, value, n) == (99.0, 990, 1000)


def test_classify():
    old = {s: 10.0 + 0.1 * s for s in range(10)}
    faster = {s: 8.0 + 0.1 * s for s in range(10)}
    assert stats.classify(old, faster, "lower", 0.1) == ("improved", 1.0)
    assert stats.classify(old, old, "lower", 0.1)[0] == "no-worse"
    slower = {s: 13.0 + 0.1 * s for s in range(10)}
    assert stats.classify(old, slower, "lower", 0.1) == ("worse", 0.0)
    noisy = {s: (5.0 if s % 2 else 20.0) for s in range(10)}
    assert stats.classify(old, noisy, "lower", 0.1)[0] == "unresolved"
    assert stats.classify(old, faster, "higher", None)[0] == "unresolved"


def test_spread_matches_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# ---------------------------------------------------------------------------
# verdict gate
# ---------------------------------------------------------------------------

def _campaign_summary(outcomes: str) -> dict:
    rows = [(f"f{i}", {"d": "detected", "m": "masked", "s": "silent"}[c],
             ("mon",) if c == "d" else ()) for i, c in enumerate(outcomes)]
    return wl.signature_verdict(rows)


def test_gate_rejects_planted_wrong_signature():
    good = _campaign_summary("dmsd")
    goldens = {"smoke": {"7": good}}
    assert wl.check_round(goldens, "serve_jobs", 7, [good]) == (1, 0)
    planted = _campaign_summary("dmss")
    assert wl.check_round(goldens, "serve_jobs", 7, [planted]) == (1, 1)
    # a job that ended without a result
    failed = {"outcomes": "", "digest": "", "counts": {}}
    assert wl.check_round(goldens, "serve_jobs", 7, [failed]) == (1, 1)
    sweep = {"smoke": {"7": good}, "sweep": {"7": _campaign_summary("mmmm")}}
    ok = [dict(good, campaign="smoke"),
          dict(_campaign_summary("mmmm"), campaign="sweep")]
    assert wl.check_round(sweep, "fault_campaign", 7, ok) == (8, 0)
    bad = [ok[0], dict(_campaign_summary("mmsm"), campaign="sweep")]
    assert wl.check_round(sweep, "fault_campaign", 7, bad) == (8, 1)
    # a seed without a reference counts every verdict as wrong
    assert wl.check_round(sweep, "fault_campaign", 8, ok) == (8, 8)


def test_gate_rejects_wrong_detected_by():
    good = _campaign_summary("dm")
    rows = [("f0", "detected", ("other",)), ("f1", "masked", ())]
    wrong = wl.signature_verdict(rows)
    assert wrong["outcomes"] == good["outcomes"]
    goldens = {"smoke": {"1": good}}
    assert wl.check_round(goldens, "serve_jobs", 1, [wrong]) == (1, 1)


def test_run_exits_nonzero_on_planted_golden(tmp_path, monkeypatch,
                                             capsys):
    goldens = wl.load_goldens()
    seed = wl.round_seeds("la1_flow", 5)[0]
    entry = goldens["la1_flow"][str(seed)]
    entry[0]["stages"][1][2][0] = "999999"  # a wrong ASM node count
    monkeypatch.setattr(wl, "load_goldens", lambda: goldens)
    code = run.main(["--workload", "la1_flow", "--seed", "5",
                     "--seconds", "1", "--trace", "0",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 3


# ---------------------------------------------------------------------------
# wrappers and inputs
# ---------------------------------------------------------------------------

def test_wrappers_removed_after_traced_run():
    from repro.rtl import RtlSimulator
    from repro.rtl.simulator import RtlSimulator as Direct

    before = Direct.__dict__["step"]
    tracer = spans.Tracer()
    handle = spans.install(tracer)
    assert spans.wrapped_attributes()
    assert RtlSimulator.step is not before
    from repro.core.flow import FlowConfig, run_flow

    assert run_flow(FlowConfig(banks=1, seed=3)).ok
    assert tracer.calls("core.flow") == 1 and tracer.calls("rtl.step") > 0
    handle.remove()
    assert spans.wrapped_attributes() == []
    assert Direct.__dict__["step"] is before
    import repro.core.flow as flow_module
    assert not hasattr(flow_module.run_flow, "__perfbench_original__")


def test_asm_check_counts_states_once():
    from repro.asm import AsmModelChecker
    from repro.core.asm_model import La1AsmConfig, build_la1_asm
    from repro.core.properties import asm_labeling, device_property_suite

    __, prop = device_property_suite(1)[0]
    checker = AsmModelChecker(build_la1_asm(La1AsmConfig(banks=1)),
                              asm_labeling(1))
    tracer = spans.Tracer()
    handle = spans.install(tracer)
    try:
        result = checker.check(prop, "p")  # delegates to check_combined
    finally:
        handle.remove()
    assert tracer.calls("asm.explore") == 1
    assert tracer.counts["asm.explore_states"] == result.num_nodes > 0


def test_same_seed_same_inputs():
    for workload in wl.WORKLOADS:
        assert wl.round_seeds(workload, 3) == wl.round_seeds(workload, 3)
        assert wl.round_seeds(workload, 3) != wl.round_seeds(workload, 4)
        assert sorted(wl.round_seeds(workload, 3)) == sorted(
            wl.POOL[workload])
    a = [f.fault_id for f in wl.datapath_faults(4, 16)]
    assert a == [f.fault_id for f in wl.datapath_faults(4, 16)]
    assert len(a) == len(set(a)) == 1256


def test_goldens_cover_every_pool_seed():
    goldens = wl.load_goldens()
    for workload in wl.WORKLOADS:
        for seed in wl.POOL[workload]:
            want = wl.golden_for(goldens, workload, seed)
            assert want is not None, (workload, seed)
            # no pool input may make an operation fail
            assert all(w.get("ok", True) for w in want), (workload, seed)
            assert not any(w.get("counts", {}).get(k) for w in want
                           for k in ("error", "truncated")), (workload, seed)


def test_spec_matches_the_metrics_the_harness_computes():
    spec = run.load_spec()
    layer_names = {m["name"] for m in spec["per_layer"]}
    snap = {"totals": {}, "counts": {}, "root_s": 0.0, "entry_self_s": 0.0}
    computed = set(run.layer_metrics([snap], [1.0])) | {"trace.overhead"}
    assert layer_names == computed
    rounds = [{"end": 2.0, "start": 1.0, "ready": 0.5, "spawned": 0.0,
               "attempted": 3, "cpu_s": 1.0, "maxrss_kb": 2048}]
    e2e, __ = run.batch_end_to_end({"rounds": rounds, "setups": [0.4]})
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_compare_rows(tmp_path):
    spec = run.load_spec()
    for side, scale in (("old", 1.0), ("new", 0.5)):
        directory = tmp_path / side
        directory.mkdir()
        for seed in range(10):
            record = {"workload": "la1_flow", "trace": 0, "seed": seed,
                      "metrics": {"round_s_p50": {
                          "value": scale * (2.0 + 0.01 * seed),
                          "unit": "s"}}}
            (directory / f"la1_flow-seed{seed}-trace0.json").write_text(
                json.dumps(record))
    rows = compare.compare(compare.load_set(str(tmp_path / "old")),
                           compare.load_set(str(tmp_path / "new")), spec)
    assert [(r[2], r[6], r[5]) for r in rows] == [
        ("round_s_p50", "improved", 1.0)]
