"""The shared flow runner: one stage loop and one report for the LA-1
Figure-2 flow and the zoo-design flow, input validation before any
stage runs, and the serve flow job's result payloads."""

import re

import pytest

import repro.core.flow as core_flow
import repro.dsl.flow as dsl_flow
from repro.core.flow import (
    FlowConfig,
    FlowReport,
    StageResult,
    run_flow,
    run_stages,
)
from repro.dsl.__main__ import main as dsl_main
from repro.dsl.flow import run_dsl_flow
from repro.serve.jobs import FlowJob, build_job


def _forbidden(*args, **kwargs):
    raise AssertionError("stage ran after the flow should have stopped")


class TestRunStages:
    def test_times_each_stage_and_stops_at_first_failure(self):
        ran = []

        def stage(name, ok):
            def run():
                ran.append(name)
                return StageResult(name, ok, "detail")
            return run

        report = run_stages(FlowReport(design="toy"), [
            stage("a", True), stage("b", False), stage("c", True)])
        assert ran == ["a", "b"]
        assert [s.name for s in report.stages] == ["a", "b"]
        assert not report.ok
        assert all(s.cpu_time >= 0.0 for s in report.stages)
        assert report.stage("b").detail == "detail"
        assert report.stage("c") is None


class TestZooFlowLoop:
    def test_zoo_flow_stops_at_first_failure(self, monkeypatch):
        monkeypatch.setattr(
            dsl_flow, "_conformance_stage",
            lambda *args: StageResult("conformance", False, "forced"))
        for later in ("_mc_stage", "_coverage_stage", "_campaign_stage"):
            monkeypatch.setattr(dsl_flow, later, _forbidden)
        report = run_dsl_flow("fifo")
        assert not report.ok
        assert [s.name for s in report.stages] == [
            "elaborate", "lint", "conformance"]
        assert report.stages[-1].detail == "forced"
        assert "overall: FAIL" in report.render()

    def test_zoo_render_header(self):
        report = run_dsl_flow("fifo", stages=[])
        assert [s.name for s in report.stages] == ["elaborate"]
        assert report.render().splitlines()[0] == (
            f"dsl flow [fifo] fingerprint {report.fingerprint}")


class TestRender:
    def test_la1_columns_align_on_the_longest_stage_name(self):
        report = run_flow(FlowConfig(banks=1, traffic=5, rtl_mc=None,
                                     coverage=False))
        lines = report.render().splitlines()
        assert lines[0] == "LA-1 flow (1 banks):"
        stage_lines = lines[1:-1]
        assert len(stage_lines) == len(report.stages)
        width = max(len(s.name) for s in report.stages)
        assert width == len("asm_to_systemc_conformance")
        # the time column ends at the same offset on every line
        ends = {re.match(r"  \[(PASS|FAIL)\] \S+ +\d+\.\d\ds", line).end()
                for line in stage_lines}
        assert ends == {len("  [PASS] ") + width + 1 + 7 + 1}


class TestInputValidation:
    def test_flow_rejects_unknown_rtl_mc(self):
        with pytest.raises(ValueError, match="unknown rtl_mc mode 'bogus'"):
            run_flow(FlowConfig(rtl_mc="bogus"))

    def test_flow_rejects_engine_before_any_stage(self, monkeypatch):
        monkeypatch.setattr(core_flow, "la1_class_diagram", _forbidden)
        with pytest.raises(ValueError, match="unknown mc engine 'smt'"):
            run_flow(FlowConfig(banks=1, mc_engine="smt"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"stages": ["lnt"]}, "unknown flow stage 'lnt'"),
        ({"mc_engine": "smt"}, "unknown mc engine 'smt'"),
    ])
    def test_zoo_flow_rejects_bad_names(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(dsl_flow, "build_elaborated", _forbidden)
        with pytest.raises(ValueError, match=message):
            run_dsl_flow("fifo", **kwargs)

    def test_zoo_flow_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown zoo design 'nope'"):
            run_dsl_flow("nope")

    def test_cli_unknown_stage_exits_2(self, capsys):
        assert dsl_main(["verify", "fifo", "--stages", "lnt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "unknown flow stage 'lnt'" in captured.err

    @pytest.mark.parametrize("spec, message", [
        ({"mc_engine": "smt"}, "unknown mc engine"),
        ({"rtl_mc": "bogus"}, "unknown rtl_mc mode"),
        ({"design": "nope"}, "unknown zoo design"),
        ({"design": "fifo", "mc_engine": "smt"}, "unknown mc engine"),
    ])
    def test_serve_flow_job_rejects_bad_names(self, spec, message):
        with pytest.raises(ValueError, match=message):
            build_job("flow", spec)


#: ``FlowJob.run`` payloads without their timings, and the store keys
LA1_JOB = {"banks": 1, "traffic": 5}
LA1_KEY = "3283d4f55fcb179be83f3fdfcc6b72c7"
LA1_RESULT = {
    "ok": True,
    "stages": [
        {"name": "uml", "ok": True,
         "detail": "6 classes, 7 extracted properties"},
        {"name": "asm_model_checking", "ok": True,
         "detail": "7 properties, 64 nodes, 94 transitions"},
        {"name": "asm_to_systemc_conformance", "ok": True,
         "detail": "37 paths, 112 steps"},
        {"name": "systemc_abv", "ok": True,
         "detail": "4 monitors, 300 samples, 2 reads completed"},
        {"name": "rtl_refinement", "ok": True,
         "detail": "15 regs, 107 nets, 302 Verilog lines"},
        {"name": "static_lint", "ok": True,
         "detail": "10 passes, 0 errors, 0 warnings, 8 waived"},
        {"name": "rtl_model_checking", "ok": True,
         "detail": "control model, 9979 BDDs, 10 iterations, "
                   "computed-table 7448/19961 hits (0 clears)"},
        {"name": "rtl_ovl_simulation", "ok": True,
         "detail": "compiled backend, 8 OVL monitors, 26 edges, 2 reads"},
        {"name": "coverage", "ok": True,
         "detail": "14.0% (177/1261 points; asm 100%, assert 100%, "
                   "func 59%, rtl 12%)"},
    ],
    "verilog_lines": 302,
}
FIFO_JOB = {"design": "fifo"}
FIFO_KEY = "30265a4cd199b1bbe0ce42aded9bcc1b"
FIFO_RESULT = {
    "ok": True,
    "design": "fifo",
    "fingerprint": "b746e75e1e5926276e4dddc38932e7a1",
    "stages": [
        {"name": "elaborate", "ok": True,
         "detail": "1 modules, 5 ASM rules, 7 regs, 26 nets, 2 monitors"},
        {"name": "lint", "ok": True,
         "detail": "10 passes, 0 errors, 0 warnings, 6 waived"},
        {"name": "conformance", "ok": True,
         "detail": "rtl ok (4368 paths), sysc ok (4368 paths)"},
        {"name": "model_checking", "ok": True,
         "detail": "sat engine; fifo_bound: proved k=1; "
                   "fifo_grow_nonempty: proved k=1"},
        {"name": "coverage", "ok": True,
         "detail": "75% of 12 bins over 64 cycles"},
        {"name": "campaign", "ok": True,
         "detail": "16 faults: 3 detected, 0 masked, 13 silent, 0 errors"},
    ],
}


class TestFlowJobPayloads:
    @pytest.mark.parametrize("spec, key, expected", [
        (LA1_JOB, LA1_KEY, LA1_RESULT),
        (FIFO_JOB, FIFO_KEY, FIFO_RESULT),
    ], ids=["la1", "fifo"])
    def test_result_dict_and_key_are_pinned(self, spec, key, expected):
        job = FlowJob(spec)
        events = []
        result = job.run(events.append)
        assert job.key() == key
        for stage in result["stages"]:
            assert isinstance(stage.pop("cpu_time"), float)
        assert list(result) == list(expected)
        assert result == expected
        assert events == [{"type": "stage", "name": s["name"], "ok": True}
                          for s in expected["stages"]]
