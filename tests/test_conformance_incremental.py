"""Incremental conformance: snapshot/restore co-execution against a
from-reset replay oracle, structured actions instead of parsed labels,
and the path budget as a hard stop."""

import pytest

from repro.asm import (
    AsmMachine,
    ExplicitDomain,
    Explorer,
    Implementation,
    ReplayImplementation,
    check_conformance,
    generate_transition_cover,
    replay_suite,
)
from repro.core import (
    La1AsmConfig,
    La1RtlImplementation,
    La1SyscImplementation,
    build_la1_asm,
    check_asm_rtl_refinement,
    check_la1_conformance,
    observables_for,
)
from repro.dsl import RtlDslImplementation, SyscDslImplementation
from repro.dsl.zoo import build_elaborated, conformance_budget, zoo_names

#: zoo budget for the oracle comparison: every depth-1 edge plus a few
#: hundred deeper ones, so restores of non-root nodes are exercised
ZOO_PATHS = 400


def _step_only(action):
    return action.rule.name == "step"


class _SetImpl(Implementation):
    """Mirrors a one-variable ``set(v)`` machine."""

    def __init__(self):
        self.x = 0

    def reset(self):
        self.x = 0

    def apply(self, rule_name, args):
        self.x = args["v"]

    def observe(self):
        return {"x": self.x}

    def snapshot(self):
        return self.x

    def restore(self, snapshot):
        self.x = snapshot


def _set_machine(values):
    m = AsmMachine("setter")
    m.var("x", 0)
    m.rule("set", lambda s, v: True, lambda s, v: {"x": v},
           domains={"v": ExplicitDomain("v", values)})
    return m


class TestStructuredActions:
    """Arguments reach the implementation as the model fired them; a
    label like ``set(v=(1, 2))`` is never parsed back."""

    VALUES = [(1, 2), "a, b", 0]

    def test_conformance_with_tuple_and_comma_string_args(self):
        result = check_conformance(_set_machine(self.VALUES), _SetImpl(),
                                   ["x"], max_depth=2)
        assert result.conformant, result.divergence
        assert result.paths_checked == 3 + 9

    def test_replay_suite_with_tuple_and_comma_string_args(self):
        machine = _set_machine(self.VALUES)
        suite = generate_transition_cover(Explorer(machine).explore().fsm)
        assert suite.transition_coverage == 1.0
        report = replay_suite(suite, machine, _SetImpl(), ["x"])
        assert report.passed, report.divergence
        assert report.steps_run == suite.total_steps

    def test_explorer_records_the_fired_action(self):
        fsm = Explorer(_set_machine(self.VALUES)).explore().fsm
        for transition in fsm.transitions:
            assert transition.action.label == transition.label


class TestPathBudget:
    def test_no_guard_evaluated_once_budget_is_spent(self):
        calls = []
        m = AsmMachine("counter")
        m.var("n", 0)

        def guard(state, d):
            calls.append(d)
            return True

        m.rule("inc", guard, lambda s, d: {"n": s["n"] + d},
               domains={"d": ExplicitDomain("d", (1, 2))})

        class Impl(_SetImpl):
            def apply(self, rule_name, args):
                self.x += args["d"]

            def observe(self):
                return {"n": self.x}

        result = check_conformance(m, Impl(), ["n"], max_depth=5,
                                   max_paths=3)
        assert result.conformant and result.paths_checked == 3
        # two expansions (root, first child) of two guard calls each,
        # plus one require check per fired edge; no queued node is
        # expanded after the third path
        assert len(calls) == 2 * 2 + 3


class _Planted(Implementation):
    """Lies in ``observe`` at depth >= 2 whenever the real observation
    is ``target``.

    The lie is keyed on the wrapped implementation's own observation, so
    it shows on the oracle's path only when restores are faithful."""

    def __init__(self, inner, target):
        self.inner = inner
        self.target = target
        self.depth = 0

    def reset(self):
        self.inner.reset()
        self.depth = 0

    def apply(self, rule_name, args):
        self.inner.apply(rule_name, args)
        self.depth += 1

    def observe(self):
        obs = self.inner.observe()
        if self.depth >= 2 and obs == self.target:
            key = sorted(obs)[0]
            return {**obs, key: ("planted", obs[key])}
        return obs

    def snapshot(self):
        return self.inner.snapshot(), self.depth

    def restore(self, snapshot):
        inner, self.depth = snapshot
        self.inner.restore(inner)


def _depth2_target(machine, observables, action_filter=None):
    """The first depth-2 observation (BFS order) that differs from its
    parent's."""
    def project():
        return {name: machine.state[name] for name in observables}

    def children():
        actions = machine.enabled_actions()
        if action_filter is not None:
            actions = [a for a in actions if action_filter(a)]
        return actions

    machine.reset()
    initial = machine.snapshot()
    level1 = []
    for action in children():
        machine.restore(initial)
        machine.fire(action)
        level1.append(machine.snapshot())
    for snapshot in level1:
        machine.restore(snapshot)
        parent = project()
        for action in children():
            machine.restore(snapshot)
            machine.fire(action)
            if project() != parent:
                target = project()
                machine.reset()
                return target
    raise AssertionError("every depth-2 edge is a self-loop")


def _assert_matches_oracle(machine, make_impl, observables, **budget):
    incremental = check_conformance(machine, make_impl(), observables,
                                    **budget)
    oracle = check_conformance(machine, ReplayImplementation(make_impl()),
                               observables, **budget)
    assert incremental.conformant, incremental.divergence
    assert oracle.conformant, oracle.divergence
    assert (incremental.paths_checked, incremental.steps_executed) == (
        oracle.paths_checked, oracle.steps_executed)
    return incremental


def _assert_planted_caught(machine, make_impl, observables, **budget):
    target = _depth2_target(machine, observables,
                            budget.get("action_filter"))
    incremental = check_conformance(
        machine, _Planted(make_impl(), target), observables, **budget)
    oracle = check_conformance(
        machine, ReplayImplementation(_Planted(make_impl(), target)),
        observables, **budget)
    assert not incremental.conformant and not oracle.conformant
    assert len(incremental.divergence.path) >= 2
    assert incremental.divergence.path == oracle.divergence.path
    assert incremental.divergence.impl_obs == oracle.divergence.impl_obs
    assert incremental.paths_checked == oracle.paths_checked
    assert incremental.steps_executed == oracle.steps_executed


def _zoo_impl(name, level):
    elab = build_elaborated(name)
    if level == "rtl":
        return lambda: RtlDslImplementation(elab)
    return lambda: SyscDslImplementation(elab)


@pytest.mark.parametrize("level", ["rtl", "sysc"])
@pytest.mark.parametrize("name", zoo_names())
class TestZooAgainstReplayOracle:
    def _budget(self, name):
        return dict(max_depth=conformance_budget(name)["max_depth"],
                    max_paths=ZOO_PATHS, action_filter=_step_only)

    def test_incremental_matches_replay(self, name, level):
        elab = build_elaborated(name)
        result = _assert_matches_oracle(
            elab.asm, _zoo_impl(name, level), elab.observables,
            **self._budget(name))
        assert result.paths_checked == ZOO_PATHS

    def test_planted_divergence_caught_on_the_same_path(self, name, level):
        elab = build_elaborated(name)
        _assert_planted_caught(elab.asm, _zoo_impl(name, level),
                               elab.observables, **self._budget(name))


LA1_IMPLS = {"sysc": La1SyscImplementation, "rtl": La1RtlImplementation}


@pytest.mark.parametrize("level", ["sysc", "rtl"])
class TestLa1AgainstReplayOracle:
    BUDGET = dict(max_depth=6, max_paths=4000)

    def test_incremental_matches_replay(self, level):
        config = La1AsmConfig(banks=1)
        result = _assert_matches_oracle(
            build_la1_asm(config), lambda: LA1_IMPLS[level](config),
            observables_for(1), **self.BUDGET)
        entry = {"sysc": check_la1_conformance,
                 "rtl": check_asm_rtl_refinement}[level]
        shipped = entry(config)
        assert (shipped.paths_checked, shipped.steps_executed) == (
            result.paths_checked, result.steps_executed)

    def test_planted_divergence_caught_on_the_same_path(self, level):
        config = La1AsmConfig(banks=1)
        _assert_planted_caught(
            build_la1_asm(config), lambda: LA1_IMPLS[level](config),
            observables_for(1), **self.BUDGET)


def test_replay_implementation_rewinds_by_replay():
    impl = ReplayImplementation(_SetImpl())
    impl.apply("set", {"v": 1})
    snapshot = impl.snapshot()
    impl.apply("set", {"v": 2})
    assert impl.observe() == {"x": 2}
    impl.restore(snapshot)
    assert impl.observe() == {"x": 1}
    assert impl.snapshot() == (("set", {"v": 1}),)
    impl.reset()
    assert impl.snapshot() == () and impl.observe() == {"x": 0}


def test_sysc_restore_requires_a_quiescent_kernel():
    impl = SyscDslImplementation(build_elaborated("fifo"))
    snapshot = impl.snapshot()
    impl.top.clk.write(True)  # an uncommitted write: update pending
    with pytest.raises(AssertionError, match="quiescent"):
        impl.restore(snapshot)
