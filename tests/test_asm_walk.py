"""The one breadth-first walk over ASM states (``StateWalk`` in
``repro.asm.exploration``) under its consumers: the explorer, the PSL
checker product and the ASM lint.  The literal counts and diagnostics
were recorded with the four separate loops the walk replaced; they pin
that the walk explores, counts and reports exactly what those loops
did."""

import pytest

from repro.asm import (
    AsmError,
    AsmMachine,
    AsmModelChecker,
    ExplorationConfig,
    Explorer,
    IntRange,
)
from repro.core import La1AsmConfig, asm_labeling, build_la1_asm
from repro.dsl.zoo import build_elaborated
from repro.lint import LintConfig, LintContext, LintReport, PassManager
from repro.lint.asm_rules import AsmRulesPass
from repro.lint.sat_rules import AsmSatRequirePass
from repro.psl import builder as B
from repro.psl.ast import ConstB, SereBool

TRUE = B.always(ConstB(True))


def _la1(banks):
    return build_la1_asm(La1AsmConfig(banks=banks)), asm_labeling(banks)


def _zoo(name):
    return build_elaborated(name).rule_machine()


def _chain():
    """``n: 0 -> 1 -> 2``, then nothing is enabled."""
    m = AsmMachine("chain")
    m.var("n", 0)
    m.rule("inc", lambda s: s["n"] < 2, lambda s: {"n": s["n"] + 1})
    return m


def _clash():
    """Co-enabled rules with conflicting writes (``a``/``b`` clash only
    across different arguments, so the reported example depends on the
    pair order), a rule whose effect breaks in some states (``c``) and a
    dead rule (``d``)."""
    m = AsmMachine("clash")
    m.var("x", 0)
    m.var("y", 0)
    k = {"k": IntRange("k", 0, 1)}
    m.rule("a", lambda s, k: True,
           lambda s, k: {"x": k, "y": (s["y"] + 1) % 3}, k)
    m.rule("b", lambda s, k: True, lambda s, k: {"x": k}, k)
    m.rule("c", lambda s: s["y"] == 1,
           lambda s: {"z": 1} if s["x"] else {"y": 0})
    m.rule("d", lambda s: s["y"] > 2, lambda s: {"y": 0})
    return m


class TestExplorerMatchesChecker:
    @pytest.mark.parametrize("banks, counts", [
        (1, (64, 94)), (2, (368, 584)), (3, (1456, 2392)),
    ])
    def test_la1(self, banks, counts):
        machine, labeling = _la1(banks)
        explored = Explorer(machine).explore()
        checked = AsmModelChecker(machine, labeling).check_combined([TRUE])
        assert not explored.truncated and checked.holds is True
        assert (explored.num_nodes, explored.num_transitions) == counts
        assert (checked.num_nodes, checked.num_transitions) == counts

    def test_arbiter_rule_machine(self):
        machine = _zoo("arbiter")
        explored = Explorer(machine).explore()
        checked = AsmModelChecker(machine).check_combined([TRUE])
        assert (explored.num_nodes, explored.num_transitions) == (64, 1084)
        assert (checked.num_nodes, checked.num_transitions) == (64, 1084)
        assert checked.holds is True

    @pytest.mark.parametrize("name, explorer_counts, checker_counts", [
        ("fifo", (512, 7281), (512, 8870)),
        ("noc", (512, 29644), (512, 33500)),
        ("qdr", (512, 13707), (512, 17096)),
    ])
    def test_state_cap(self, name, explorer_counts, checker_counts):
        # the FSM keeps only edges into admitted states; the checker
        # counts every fired product edge
        machine = _zoo(name)
        config = ExplorationConfig(max_states=512)
        explored = Explorer(machine, config).explore()
        checked = AsmModelChecker(machine, config=config).check_combined(
            [TRUE])
        assert explored.truncated_reason == "bounds"
        assert (explored.num_nodes, explored.num_transitions) \
            == explorer_counts
        assert checked.holds is None
        assert checked.truncated_reason == "bounds"
        assert (checked.num_nodes, checked.num_transitions) \
            == checker_counts


def test_fire_observers_see_every_checked_transition():
    machine, labeling = _la1(2)
    fired = []
    machine.fire_observers.append(lambda m, action: fired.append(action))
    result = AsmModelChecker(machine, labeling).check_combined([TRUE])
    assert result.num_transitions == 584
    assert len(fired) == 584


class TestDepthBound:
    """A state at ``max_depth`` truncates the search only when it has an
    enabled action that the bound keeps from firing."""

    def test_finished_chain_is_complete(self):
        config = ExplorationConfig(max_depth=2)
        explored = Explorer(_chain(), config).explore()
        assert not explored.truncated
        assert explored.fsm.complete
        assert (explored.num_nodes, explored.num_transitions) == (3, 2)
        checked = AsmModelChecker(_chain(), config=config).check(TRUE)
        assert checked.holds is True
        assert checked.truncated_reason == ""
        cover = AsmModelChecker(_chain(), config=config).check_cover(
            SereBool(ConstB(False)))
        assert cover.covered is False

    def test_cut_chain_is_truncated(self):
        config = ExplorationConfig(max_depth=1)
        explored = Explorer(_chain(), config).explore()
        assert explored.truncated_reason == "bounds"
        checked = AsmModelChecker(_chain(), config=config).check(TRUE)
        assert checked.holds is None
        assert checked.truncated_reason == "bounds"
        cover = AsmModelChecker(_chain(), config=config).check_cover(
            SereBool(ConstB(False)))
        assert cover.covered is None

    def test_filtered_actions_do_not_count(self):
        config = ExplorationConfig(
            max_depth=1, action_filter=lambda a: a.rule.name != "inc")
        explored = Explorer(_chain(), config).explore()
        assert not explored.truncated
        assert explored.num_nodes == 1


class TestAsmErrorOnAnEdge:
    """Explorer and both checkers raise; the lint reports and skips."""

    def test_explorer_and_checkers_raise(self):
        machine = _clash()
        with pytest.raises(AsmError, match="unknown var z"):
            Explorer(machine).explore()
        assert machine.state == {"x": 0, "y": 0}
        checker = AsmModelChecker(machine)
        with pytest.raises(AsmError, match="unknown var z"):
            checker.check(TRUE)
        with pytest.raises(AsmError, match="unknown var z"):
            checker.check_cover(SereBool(ConstB(False)))


def _lint(machine, cap=512):
    report = LintReport(machine.name)
    ctx = LintContext(config=LintConfig(asm_state_cap=cap), report=report,
                      machine=machine)
    PassManager([AsmRulesPass(), AsmSatRequirePass()]).run(ctx)
    rules = ctx.result("asm-rules")
    assert len(rules["snapshots"]) == rules["states"]
    summary = (rules["states"], rules["capped"], rules["rules_enabled"])
    sat = ctx.result("asm-sat-require")
    diags = [(d.rule, d.location, d.message) for d in report.diagnostics]
    return summary, sat, diags


def _sat(certified, states, capped, lemmas=0):
    return {"certified": certified, "states": states, "capped": capped,
            "proof_lemmas": lemmas}


@pytest.mark.parametrize("build, states, capped, enabled", [
    (lambda: _zoo("arbiter"), 64, False, ["core.advance", "env"]),
    (lambda: _zoo("fifo"), 512, True,
     ["core.count_dn", "core.count_up", "core.deq", "core.enq", "env"]),
    (lambda: _zoo("noc"), 512, True,
     ["env", "ing0.inject", "ing1.inject", "route.r00", "route.r01",
      "route.r10", "route.r11"]),
    (lambda: _zoo("qdr"), 512, True,
     ["core.rd_done", "core.rd_next", "core.rd_start", "core.wr_finish",
      "core.wr_start", "env"]),
    (lambda: _la1(1)[0], 64, False, ["EdgeK", "EdgeKSharp"]),
    (lambda: _la1(2)[0], 368, False, ["EdgeK", "EdgeKSharp"]),
    (lambda: _la1(4)[0], 512, True, ["EdgeK", "EdgeKSharp"]),
], ids=["arbiter", "fifo", "noc", "qdr", "la1-1", "la1-2", "la1-4"])
def test_shipped_machines_lint_clean(build, states, capped, enabled):
    machine = build()
    initial = dict(machine.state)
    summary, sat, diags = _lint(machine)
    assert summary == (states, capped, enabled)
    assert sat == _sat([], states, capped)
    assert diags == []
    assert machine.state == initial


_CONFLICT_HINT = "parallel composition would violate update consistency"


@pytest.mark.parametrize("cap, states, scope", [
    (512, 6, "all 6 reachable states"),
    (2, 2, "the first 2 reachable states"),
])
def test_clash_machine_diagnostics(cap, states, scope):
    summary, sat, diags = _lint(_clash(), cap)
    assert summary == (states, cap == 2, ["a", "b", "c"])
    assert sat == _sat(["d"], states, cap == 2, lemmas=1)
    expected = [
        ("asm-conflicting-updates", "clash.a+b",
         "co-enabled rules a and b write different values to x "
         f"(e.g. a(k=0) vs b(k=1)); {_CONFLICT_HINT}"),
        ("asm-conflicting-updates", "clash.a+c",
         "co-enabled rules a and c write different values to y "
         f"(e.g. a(k=0) vs c); {_CONFLICT_HINT}"),
        ("asm-conflicting-updates", "clash.c",
         "action c cannot compute a consistent update set: rule c "
         "updates unknown var z"),
        ("asm-unsat-require", "clash.d",
         "require guard holds for no argument combination in "
         f"{scope}; the rule is dead"),
    ]
    if cap == 2:
        del expected[2]  # the breaking state lies beyond the cap
    assert diags == expected
