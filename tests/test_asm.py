"""Unit tests for the ASM framework: machine, domains, exploration,
model checking and conformance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import (
    AsmError,
    AsmMachine,
    AsmModelChecker,
    BoolDomain,
    EnumDomain,
    ExplicitDomain,
    ExplorationConfig,
    Explorer,
    Implementation,
    IntRange,
    Labeling,
    check_conformance,
)
from repro.psl import parse_property


def _toggle_machine():
    m = AsmMachine("toggle")
    m.var("x", False)
    m.rule("flip", lambda s: True, lambda s: {"x": not s["x"]})
    return m


def _counter_machine(limit=3):
    m = AsmMachine("counter")
    m.var("n", 0)
    m.rule("inc", lambda s: s["n"] < limit, lambda s: {"n": s["n"] + 1})
    m.rule("reset", lambda s: s["n"] == limit, lambda s: {"n": 0})
    return m


class TestDomains:
    def test_int_range(self):
        d = IntRange("r", 5, 8)
        assert list(d) == [5, 6, 7, 8]
        assert 6 in d and 9 not in d
        assert len(d) == 4
        with pytest.raises(ValueError):
            IntRange("bad", 3, 2)

    def test_enum_and_bool(self):
        assert list(EnumDomain("e", "xyz")) == ["x", "y", "z"]
        assert list(BoolDomain()) == [False, True]
        with pytest.raises(ValueError):
            EnumDomain("empty", [])

    def test_explicit(self):
        d = ExplicitDomain("d", (1, "a", (2, 3)))
        assert (2, 3) in d


class TestMachine:
    def test_var_declaration(self):
        m = AsmMachine()
        m.var("x", 0)
        with pytest.raises(AsmError):
            m.var("x", 1)
        with pytest.raises(AsmError):
            m.var("bad", [])  # unhashable initial

    def test_fire_and_reset(self):
        m = _counter_machine()
        m.fire_named("inc")
        m.fire_named("inc")
        assert m.state["n"] == 2
        m.reset()
        assert m.state["n"] == 0

    def test_guard_enforced(self):
        m = _counter_machine(limit=1)
        m.fire_named("inc")
        with pytest.raises(AsmError):
            m.fire_named("inc")

    def test_unknown_rule(self):
        with pytest.raises(AsmError):
            _counter_machine().fire_named("nope")

    def test_update_unknown_var(self):
        m = AsmMachine()
        m.var("x", 0)
        m.rule("bad", lambda s: True, lambda s: {"y": 1})
        with pytest.raises(AsmError):
            m.fire_named("bad")

    def test_unhashable_update(self):
        m = AsmMachine()
        m.var("x", 0)
        m.rule("bad", lambda s: True, lambda s: {"x": []})
        with pytest.raises(AsmError):
            m.fire_named("bad")

    def test_update_set_is_atomic(self):
        # swap through the update set: both reads see the pre-state
        m = AsmMachine()
        m.var("a", 1)
        m.var("b", 2)
        m.rule("swap", lambda s: True,
               lambda s: {"a": s["b"], "b": s["a"]})
        m.fire_named("swap")
        assert (m.state["a"], m.state["b"]) == (2, 1)

    def test_snapshot_restore(self):
        m = _counter_machine()
        snap = m.snapshot()
        m.fire_named("inc")
        m.restore(snap)
        assert m.state["n"] == 0

    def test_enabled_actions_with_domains(self):
        m = AsmMachine()
        m.var("x", 0)
        m.rule("set", lambda s, v: v != s["x"], lambda s, v: {"x": v},
               domains={"v": IntRange("v", 0, 2)})
        labels = sorted(a.label for a in m.enabled_actions())
        assert labels == ["set(v=1)", "set(v=2)"]

    def test_action_label_no_args(self):
        m = _toggle_machine()
        assert m.enabled_actions()[0].label == "flip"


class TestExploration:
    def test_toggle_has_two_states(self):
        result = Explorer(_toggle_machine()).explore()
        assert result.num_nodes == 2
        assert result.num_transitions == 2
        assert not result.truncated

    def test_counter_cycle(self):
        result = Explorer(_counter_machine(3)).explore()
        assert result.num_nodes == 4
        assert result.num_transitions == 4

    def test_max_states_truncates(self):
        config = ExplorationConfig(max_states=2)
        result = Explorer(_counter_machine(10), config).explore()
        assert result.truncated
        assert result.num_nodes <= 2

    def test_max_transitions_truncates(self):
        config = ExplorationConfig(max_transitions=1)
        result = Explorer(_counter_machine(3), config).explore()
        assert result.truncated

    def test_max_depth(self):
        config = ExplorationConfig(max_depth=2)
        result = Explorer(_counter_machine(10), config).explore()
        assert result.truncated
        assert result.num_nodes == 3  # 0,1,2

    def test_state_projection_merges_states(self):
        m = AsmMachine()
        m.var("x", 0)
        m.var("noise", 0)
        m.rule("step", lambda s: s["x"] < 2,
               lambda s: {"x": s["x"] + 1, "noise": (s["noise"] + 7) % 5})
        full = Explorer(m).explore()
        projected = Explorer(
            m, ExplorationConfig(state_projection=["x"])
        ).explore()
        assert projected.num_nodes <= full.num_nodes
        assert projected.num_nodes == 3

    def test_action_filter(self):
        config = ExplorationConfig(
            action_filter=lambda a: a.rule.name != "reset")
        result = Explorer(_counter_machine(3), config).explore()
        assert result.num_transitions == 3  # no wrap-around edge

    def test_machine_left_in_initial_state(self):
        m = _counter_machine()
        Explorer(m).explore()
        assert m.state["n"] == 0

    def test_fsm_path_to(self):
        result = Explorer(_counter_machine(3)).explore()
        path = result.fsm.path_to(3)
        assert [t.label for t in path] == ["inc", "inc", "inc"]
        assert result.fsm.path_to(0) == []

    def test_fsm_dot_render(self):
        result = Explorer(_toggle_machine()).explore()
        dot = result.fsm.to_dot()
        assert "digraph" in dot and "->" in dot


class TestModelChecking:
    def test_invariant_holds(self):
        m = _counter_machine(3)
        result = AsmModelChecker(m).check(
            parse_property("always (!overflow)"),
            name="bound",
        ) if False else None
        # atom via labeling
        labeling = Labeling({"overflow": lambda s: s["n"] > 3})
        result = AsmModelChecker(m, labeling).check(
            parse_property("always (!overflow)"))
        assert result.holds is True

    def test_violation_with_counterexample(self):
        m = _counter_machine(3)
        labeling = Labeling({"hit2": lambda s: s["n"] == 2})
        result = AsmModelChecker(m, labeling).check(
            parse_property("never {hit2}"))
        assert result.holds is False
        labels = [label for label, __ in result.counterexample]
        assert labels == ["initial", "inc", "inc"]

    def test_temporal_property(self):
        m = _counter_machine(2)
        labeling = Labeling({
            "at0": lambda s: s["n"] == 0,
            "at1": lambda s: s["n"] == 1,
        })
        result = AsmModelChecker(m, labeling).check(
            parse_property("always (at0 -> next (at1))"))
        assert result.holds is True

    def test_combined_check(self):
        m = _counter_machine(2)
        labeling = Labeling({
            "at0": lambda s: s["n"] == 0,
            "at1": lambda s: s["n"] == 1,
            "bad": lambda s: s["n"] > 2,
        })
        result = AsmModelChecker(m, labeling).check_combined([
            parse_property("always (!bad)"),
            parse_property("always (at0 -> next (at1))"),
        ])
        assert result.holds is True

    def test_liveness_rejected(self):
        m = _toggle_machine()
        with pytest.raises(Exception):
            AsmModelChecker(m).check(parse_property("eventually! x"))

    def test_truncated_is_unknown(self):
        m = _counter_machine(50)
        labeling = Labeling({"bad": lambda s: s["n"] == 49})
        checker = AsmModelChecker(
            m, labeling, ExplorationConfig(max_states=5))
        result = checker.check(parse_property("always (!bad)"))
        assert result.holds is None

    def test_initial_state_violation(self):
        m = _counter_machine(3)
        labeling = Labeling({"at0": lambda s: s["n"] == 0})
        result = AsmModelChecker(m, labeling).check(
            parse_property("always (!at0)"))
        assert result.holds is False
        assert result.counterexample[0][0] == "initial"

    def test_state_var_used_directly_as_atom(self):
        m = _toggle_machine()
        result = AsmModelChecker(m).check(
            parse_property("always (x -> next (!x))"))
        assert result.holds is True


class _MirrorImpl(Implementation):
    """A faithful implementation of the counter machine."""

    def __init__(self, limit, bug_at=None):
        self.limit = limit
        self.bug_at = bug_at
        self.n = 0

    def reset(self):
        self.n = 0

    def snapshot(self):
        return self.n

    def restore(self, snapshot):
        self.n = snapshot

    def apply(self, rule_name, args):
        if rule_name == "inc":
            self.n += 1
            if self.bug_at is not None and self.n == self.bug_at:
                self.n += 1  # divergence
        elif rule_name == "reset":
            self.n = 0

    def observe(self):
        return {"n": self.n}


class TestConformance:
    def test_conformant(self):
        result = check_conformance(
            _counter_machine(3), _MirrorImpl(3), ["n"], max_depth=5)
        assert result.conformant
        assert result.paths_checked > 0

    def test_divergence_found_with_path(self):
        result = check_conformance(
            _counter_machine(3), _MirrorImpl(3, bug_at=2), ["n"],
            max_depth=5)
        assert not result.conformant
        assert result.divergence.path == ["inc", "inc"]
        assert result.divergence.impl_obs == {"n": 3}
        assert result.divergence.model_obs == {"n": 2}

    def test_initial_divergence(self):
        impl = _MirrorImpl(3)
        impl.n = 9
        reset = impl.reset
        impl.reset = lambda: None  # break reset
        result = check_conformance(
            _counter_machine(3), impl, ["n"], max_depth=2)
        assert not result.conformant
        assert result.divergence.path == []

    def test_args_decoded_in_replay(self):
        m = AsmMachine()
        m.var("x", 0)
        m.rule("set", lambda s, v: True, lambda s, v: {"x": v},
               domains={"v": IntRange("v", 0, 2)})

        class Impl(Implementation):
            def __init__(self):
                self.x = 0

            def reset(self):
                self.x = 0

            def snapshot(self):
                return self.x

            def restore(self, snapshot):
                self.x = snapshot

            def apply(self, rule_name, args):
                self.x = args["v"]

            def observe(self):
                return {"x": self.x}

        result = check_conformance(m, Impl(), ["x"], max_depth=2,
                                   max_paths=50)
        assert result.conformant


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["inc", "reset"]), max_size=8))
def test_machine_never_exceeds_bound(actions):
    """Invariant: the counter machine's guard keeps n within bounds."""
    m = _counter_machine(3)
    for name in actions:
        enabled = {a.rule.name for a in m.enabled_actions()}
        if name in enabled:
            m.fire_named(name)
        assert 0 <= m.state["n"] <= 3
