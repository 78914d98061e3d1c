"""Tests for the flow driver, conformance, RuleBase driver, UML spec and
validation unit."""

import pytest

from repro.core import (
    FaultyDut,
    FlowConfig,
    La1AsmConfig,
    La1Config,
    La1SyscImplementation,
    La1ValidationUnit,
    RtlDut,
    check_la1_conformance,
    check_read_mode_rtl,
    extracted_properties,
    la1_class_diagram,
    la1_use_cases,
    observables_for,
    read_mode_sequence,
    run_flow,
    write_mode_sequence,
)
from repro.core.spec import (
    READ_LATENCY_HALF_CYCLES,
    READ_SECOND_BEAT_HALF_CYCLES,
    WRITE_COMMIT_HALF_CYCLES,
)


class TestUmlSpec:
    def test_class_diagram_valid(self):
        assert la1_class_diagram().validate() == []

    def test_four_principal_classes_present(self):
        names = set(la1_class_diagram().classes)
        assert {"ReadPort", "WritePort", "SRAM_Memory",
                "LightSimulator"} <= names

    def test_use_cases_valid(self):
        assert la1_use_cases().validate() == []

    def test_sequence_diagrams_valid(self):
        classes = la1_class_diagram()
        assert read_mode_sequence(classes).validate() == []
        assert write_mode_sequence(classes).validate() == []

    def test_read_sequence_matches_spec_latency(self):
        diagram = read_mode_sequence()
        assert diagram.latency("OnReadRequest", "ReceiveBeat0") == \
            READ_LATENCY_HALF_CYCLES
        assert diagram.latency("OnReadRequest", "ReceiveBeat1") == \
            READ_SECOND_BEAT_HALF_CYCLES

    def test_write_sequence_matches_spec_latency(self):
        diagram = write_mode_sequence()
        assert diagram.latency("OnWriteSelect", "CommitWord") == \
            WRITE_COMMIT_HALF_CYCLES

    def test_extracted_properties_nonempty(self):
        props = extracted_properties()
        assert len(props) >= 6
        assert all(p.is_safety() for __, p in props)


class TestConformance:
    def test_one_bank_conformant(self):
        result = check_la1_conformance(La1AsmConfig(banks=1), max_depth=6,
                                       max_paths=500)
        assert result.conformant

    def test_two_banks_conformant(self):
        result = check_la1_conformance(La1AsmConfig(banks=2), max_depth=4,
                                       max_paths=400)
        assert result.conformant

    def test_observables_cover_all_banks(self):
        names = observables_for(2)
        assert "rp0" in names and "wp1" in names and "phase" in names

    def test_divergence_detected_when_implementation_broken(self):
        config = La1AsmConfig(banks=1)
        impl = La1SyscImplementation(config)
        original_observe = impl.observe

        def broken_observe():
            obs = original_observe()
            # lie about the pipeline once data starts flowing
            if obs["rp0"][0] == "fetch":
                obs["rp0"] = ("idle",)
            return obs

        impl.observe = broken_observe
        from repro.asm.conformance import check_conformance
        from repro.core.asm_model import build_la1_asm

        result = check_conformance(
            build_la1_asm(config), impl, observables_for(1), max_depth=6,
            max_paths=300)
        assert not result.conformant
        assert result.divergence is not None


class TestRuleBaseDriver:
    def test_control_model_scales_to_four_banks(self):
        for banks in (1, 2, 3, 4):
            result = check_read_mode_rtl(banks, datapath=False)
            assert result.holds is True, (banks, result)

    def test_full_datapath_one_bank_holds(self):
        result = check_read_mode_rtl(1, datapath=True)
        assert result.holds is True
        assert result.peak_nodes > 0
        assert result.iterations > 0

    def test_explosion_with_small_budget(self):
        # coi=False: the explosion is a property of encoding the whole
        # netlist (the Table 2 condition); the COI reduction avoids it
        result = check_read_mode_rtl(
            2, datapath=True, transient_node_budget=100_000,
            live_node_budget=50_000, gc_threshold=60_000, coi=False)
        assert result.exploded
        assert result.holds is None

    def test_coi_avoids_the_small_budget_explosion(self):
        # same budgets, cone-of-influence reduction on (the default):
        # the property's cone fits comfortably and the verdict is real
        result = check_read_mode_rtl(
            2, datapath=True, transient_node_budget=100_000,
            live_node_budget=50_000, gc_threshold=60_000)
        assert not result.exploded
        assert result.holds is True

    def test_metrics_grow_with_banks(self):
        # full-netlist encoding (coi=False): resources track bank count,
        # the Table 2 trend; with COI the cone is near-constant per bank
        small = check_read_mode_rtl(1, datapath=False, coi=False)
        large = check_read_mode_rtl(3, datapath=False, coi=False)
        assert large.peak_nodes > small.peak_nodes


class TestFlow:
    def test_full_flow_passes(self):
        report = run_flow(FlowConfig(banks=2, traffic=15))
        assert report.ok, report.render()
        names = [stage.name for stage in report.stages]
        assert names == [
            "uml", "asm_model_checking", "asm_to_systemc_conformance",
            "systemc_abv", "rtl_refinement", "static_lint",
            "rtl_model_checking", "rtl_ovl_simulation", "coverage",
        ]
        assert "module la1_top" in report.verilog
        cover_stage = report.stage("coverage")
        db = cover_stage.data
        # all four methodology levels landed in the merged DB
        assert db.levels() == ["asm", "assert", "func", "rtl"]

    def test_flow_single_bank(self):
        report = run_flow(FlowConfig(banks=1, traffic=10))
        assert report.ok, report.render()

    def test_flow_skip_rtl_mc(self):
        report = run_flow(FlowConfig(banks=1, traffic=5, rtl_mc=None))
        assert report.ok
        assert report.stage("rtl_model_checking") is None

    def test_flow_render(self):
        report = run_flow(FlowConfig(banks=1, traffic=5, rtl_mc=None))
        text = report.render()
        assert "PASS" in text and "overall" in text


class TestValidationUnit:
    CFG = La1Config(banks=1, beat_bits=16, addr_bits=3)

    def test_golden_dut_compliant(self):
        unit = La1ValidationUnit(RtlDut(self.CFG), self.CFG)
        report = unit.run_random(40, seed=11)
        assert report.compliant, report.render()
        assert report.transactions == 40

    def test_directed_write_read(self):
        unit = La1ValidationUnit(RtlDut(self.CFG), self.CFG)
        unit.check_write(3, 0x12345678)
        word = unit.check_read(3)
        assert word == 0x12345678
        assert unit.report.compliant

    def test_byte_enable_reference_model(self):
        unit = La1ValidationUnit(RtlDut(self.CFG), self.CFG)
        unit.check_write(0, 0xFFFFFFFF)
        unit.check_write(0, 0, byte_enables=0b0101)
        word = unit.check_read(0)
        assert word == 0xFF00FF00
        assert unit.report.compliant

    @pytest.mark.parametrize("fault,expected_kinds", [
        ("parity", {"parity"}),
        ("data", {"data"}),
        ("latency", {"latency", "second_beat"}),
    ])
    def test_faulty_duts_rejected(self, fault, expected_kinds):
        unit = La1ValidationUnit(FaultyDut(fault, self.CFG), self.CFG)
        report = unit.run_random(25, seed=11)
        assert not report.compliant
        assert {v.kind for v in report.violations} & expected_kinds

    def test_report_render(self):
        unit = La1ValidationUnit(FaultyDut("parity", self.CFG), self.CFG)
        report = unit.run_random(10, seed=1)
        text = report.render()
        assert "FAIL" in text and "parity" in text
