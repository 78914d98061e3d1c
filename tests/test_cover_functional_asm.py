"""Functional covergroups (both hosts), ASM rule/predicate coverage,
and the coverage-driven test-generation loop (directed selection must
beat the undirected baseline for the same test budget)."""

import pytest

from repro.asm.testgen import random_walk
from repro.core import (
    La1AsmConfig,
    La1Config,
    RtlHost,
    build_la1_system,
    build_la1_top_with_ovl,
)
from repro.core.asm_model import build_la1_asm
from repro.core.traffic import queue_traffic
from repro.cover import (
    AsmCoverage,
    CoverageDB,
    Covergroup,
    La1FunctionalCoverage,
    coverage_driven_suite,
    la1_state_predicates,
    replay_coverage,
    undirected_suite,
)
from repro.rtl import RtlSimulator, elaborate

CONFIG = La1Config(banks=2, beat_bits=16, addr_bits=3)


class TestCovergroupPrimitives:
    def test_coverpoint_rejects_unknown_bin(self):
        group = Covergroup("g")
        point = group.coverpoint("cmd", ["read", "write"])
        point.sample("read")
        with pytest.raises(KeyError):
            point.sample("erase")

    def test_cross_samples_last_bins(self):
        group = Covergroup("g")
        a = group.coverpoint("a", ["x", "y"])
        b = group.coverpoint("b", ["0", "1"])
        cross = group.cross("ab", a, b)
        cross.sample()  # nothing sampled yet: no-op
        a.sample("x")
        b.sample("1")
        cross.sample()
        assert cross.hits["x@1"] == 1
        assert sum(cross.hits.values()) == 1

    def test_harvest_declares_all_bins_and_drains(self):
        group = Covergroup("g")
        point = group.coverpoint("cmd", ["read", "write"])
        point.sample("read")
        db = group.harvest(prefix="func.g")
        assert set(db.points) == {"func.g.cmd.read", "func.g.cmd.write"}
        assert db.counts() == (1, 2)
        # drained: a second harvest adds no hits
        again = group.harvest(prefix="func.g")
        assert again.total_hits() == 0


class TestLa1FunctionalCoverage:
    def test_sysc_host_instrumentation(self):
        sim, clocks, device, host = build_la1_system(CONFIG)
        functional = La1FunctionalCoverage(host)
        host.read(0, 1)
        host.write(1, 2, 0xABCD1234)
        host.read(1, 3)
        sim.run(200)
        functional.detach()
        db = functional.harvest()
        assert functional.samples == 3
        assert db.hits("func.la1.cmd.read") == 2
        assert db.hits("func.la1.cmd.write") == 1
        assert db.hits("func.la1.bank_cmd.read@b0") == 1
        assert db.hits("func.la1.bank_cmd.write@b1") == 1
        assert db.hits("func.la1.seq.read_write") == 1
        assert db.hits("func.la1.seq.write_read") == 1
        # bursts: read x1, write x1, read x1
        assert db.hits("func.la1.burst.read_1") == 2
        assert db.hits("func.la1.burst.write_1") == 1

    def test_rtl_host_same_covergroup(self):
        """The RTL host shares the transaction API, so the same
        functional model covers both sides of the Table 3 pair."""
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(CONFIG)),
                           backend="compiled")
        host = RtlHost(sim, CONFIG)
        functional = La1FunctionalCoverage(host)
        queue_traffic(host, CONFIG, 24, seed=2004)
        host.run_until_idle()
        functional.detach()
        db = functional.harvest()
        assert sim.ok
        assert db.coverage("func.la1.cmd") == 1.0
        assert db.coverage("func.la1.bank") == 1.0

    def test_unreached_bank_reports_hole(self):
        sim, clocks, device, host = build_la1_system(CONFIG)
        functional = La1FunctionalCoverage(host)
        host.read(0, 0)
        sim.run(100)
        functional.detach()
        db = functional.harvest()
        assert "func.la1.bank.b1" in db.holes()

    def test_detach_restores_host_methods(self):
        sim, clocks, device, host = build_la1_system(CONFIG)
        orig_read, orig_write = host.read, host.write
        functional = La1FunctionalCoverage(host)
        assert host.read != orig_read
        functional.detach()
        assert host.read == orig_read and host.write == orig_write


class TestAsmCoverage:
    def test_walk_covers_rules_and_predicates(self):
        machine = build_la1_asm(La1AsmConfig(banks=2))
        collector = AsmCoverage(machine, la1_state_predicates(2))
        random_walk(machine, 64, seed=2004)
        collector.detach()
        db = collector.harvest()
        assert db.coverage("asm.rule") == 1.0
        assert db.coverage("asm.pred") > 0.5
        assert db.hits(f"asm.pred.{machine.name}.any_read") > 0

    def test_all_points_declared_upfront(self):
        machine = build_la1_asm(La1AsmConfig(banks=2))
        predicates = la1_state_predicates(2)
        collector = AsmCoverage(machine, predicates)
        collector.detach()
        db = collector.harvest()  # nothing fired: all points are holes
        assert len(db) == len(machine.rules) + len(predicates)
        assert db.counts()[0] == 0

    def test_detach_stops_observing(self):
        machine = build_la1_asm(La1AsmConfig(banks=1))
        collector = AsmCoverage(machine, {})
        random_walk(machine, 4, seed=1)
        steps = collector.steps
        collector.detach()
        random_walk(machine, 4, seed=2)
        assert collector.steps == steps
        assert collector._on_fire not in machine.fire_observers


class TestCoverageDrivenTestgen:
    BANKS = 2

    def _machine(self):
        return build_la1_asm(La1AsmConfig(banks=self.BANKS))

    def test_replay_is_deterministic(self):
        machine = self._machine()
        predicates = la1_state_predicates(self.BANKS)
        case = random_walk(machine, 12, seed=3)
        a = replay_coverage(machine, case, predicates)
        b = replay_coverage(machine, case, predicates)
        assert a.covered_keys() == b.covered_keys()
        assert a.total_hits() == b.total_hits()

    def test_directed_beats_undirected_at_same_budget(self):
        """Satellite (d): for the same number of admitted tests, greedy
        coverage-feedback selection reaches strictly higher functional
        (rule + state-predicate) coverage on the 2-bank model."""
        machine = self._machine()
        predicates = la1_state_predicates(self.BANKS)
        directed = coverage_driven_suite(
            machine, predicates, max_tests=2, candidates_per_round=8,
            walk_steps=6, seed=0, plateau_rounds=2)
        baseline = undirected_suite(
            machine, predicates, num_tests=directed.num_tests,
            walk_steps=6, seed=0)
        assert directed.num_tests == baseline.num_tests
        assert directed.coverage > baseline.coverage

    def test_target_stop(self):
        machine = self._machine()
        predicates = la1_state_predicates(self.BANKS)
        result = coverage_driven_suite(
            machine, predicates, target=0.5, max_tests=16,
            candidates_per_round=6, walk_steps=16, seed=1)
        assert result.reached_target
        assert result.coverage >= 0.5
        assert result.num_tests < 16  # stopped early, not on budget

    def test_plateau_stop_on_unreachable_target(self):
        machine = self._machine()
        predicates = dict(la1_state_predicates(self.BANKS))
        predicates["never"] = lambda s: False  # keeps target unreachable
        result = coverage_driven_suite(
            machine, predicates, target=1.0, max_tests=64,
            candidates_per_round=4, walk_steps=16, seed=0,
            plateau_rounds=2)
        assert result.plateaued
        assert not result.reached_target
        assert result.coverage < 1.0
        assert f"asm.pred.{machine.name}.never" in result.db.holes()

    def test_history_is_monotonic(self):
        machine = self._machine()
        result = coverage_driven_suite(
            machine, la1_state_predicates(self.BANKS), max_tests=4,
            candidates_per_round=4, walk_steps=8, seed=5,
            plateau_rounds=2)
        assert result.history == sorted(result.history)
        assert len(result.history) == result.num_tests

    def test_machine_left_reset(self):
        machine = self._machine()
        coverage_driven_suite(machine, la1_state_predicates(self.BANKS),
                              max_tests=2, candidates_per_round=3,
                              walk_steps=6, seed=2, plateau_rounds=1)
        assert machine.state == self._machine().state  # back at reset
        assert not machine.fire_observers


class TestMergeAcrossLevels:
    def test_functional_plus_asm_merge(self):
        sim, clocks, device, host = build_la1_system(CONFIG)
        functional = La1FunctionalCoverage(host)
        queue_traffic(host, CONFIG, 12, seed=7)
        sim.run(500)
        functional.detach()
        func_db = functional.harvest()

        machine = build_la1_asm(La1AsmConfig(banks=2))
        collector = AsmCoverage(machine, la1_state_predicates(2))
        random_walk(machine, 32, seed=7)
        collector.detach()
        asm_db = collector.harvest()

        merged = CoverageDB.merged([func_db, asm_db])
        assert merged.levels() == ["asm", "func"]
        assert merged.total_hits() == \
            func_db.total_hits() + asm_db.total_hits()
