"""The memoized product step of :class:`AsmModelChecker` against a naive
product: every checker labels every successor state on its own, with no
memo.  Verdicts, Table 1 accounting and counterexample paths must agree."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import (
    AsmMachine,
    AsmModelChecker,
    ExplorationConfig,
    IntRange,
    Labeling,
)
from repro.core import (
    La1AsmConfig,
    asm_labeling,
    build_la1_asm,
    device_property_suite,
)
from repro.core.asm_model import La1AsmAtoms as A
from repro.psl import builder as B
from repro.psl import parse_property
from repro.psl.ast import PslError, SereBool
from repro.psl.automata import CheckerAutomaton, build_checker


def naive_check(machine, labeling, props, assumptions=(), config=None):
    """Reference product BFS: one ``Labeling.valuation`` per checker per
    transition.  Returns ``(holds, nodes, transitions, counterexample)``."""
    config = config or ExplorationConfig()
    checkers = [build_checker(p) for p in assumptions]
    checkers += [build_checker(p) for p in props]
    split = len(assumptions)
    fail = CheckerAutomaton.FAIL_STATE

    def step(chk_states, snapshot):
        state = dict(snapshot)
        return tuple(
            chk.transition(cs, chk.valuation_key(
                labeling.valuation(state, chk.atoms)))
            for chk, cs in zip(checkers, chk_states)
        )

    def project(snapshot):
        if config.state_projection is None:
            return snapshot
        as_dict = dict(snapshot)
        return tuple((v, as_dict[v]) for v in config.state_projection)

    def trace(parents, key):
        steps = []
        while key is not None:
            parent, label, snapshot = parents[key]
            steps.append((label or "initial", dict(snapshot)))
            key = parent
        return steps[::-1]

    machine.reset()
    init = machine.snapshot()
    init_chk = step((0,) * len(checkers), init)
    if fail in init_chk[:split]:
        return True, 0, 0, None
    if fail in init_chk[split:]:
        return False, 1, 0, [("initial", dict(init))]
    init_key = (project(init), init_chk)
    parents = {init_key: (None, None, init)}
    visited = {init_key}
    queue = deque([(init, init_chk, init_key, 0)])
    transitions = 0
    truncated = False
    while queue:
        snapshot, chk_states, key, depth = queue.popleft()
        if config.max_depth is not None and depth >= config.max_depth:
            truncated = True
            continue
        machine.restore(snapshot)
        for action in machine.enabled_actions():
            if (config.max_transitions is not None
                    and transitions >= config.max_transitions):
                truncated = True
                break
            machine.restore(snapshot)
            machine.fire(action)
            succ = machine.snapshot()
            succ_chk = step(chk_states, succ)
            succ_key = (project(succ), succ_chk)
            transitions += 1
            if fail in succ_chk[:split]:
                continue
            parents.setdefault(succ_key, (key, action.label, succ))
            if fail in succ_chk[split:]:
                machine.reset()
                return (False, len(visited) + 1, transitions,
                        trace(parents, succ_key))
            if succ_key in visited:
                continue
            if (config.max_states is not None
                    and len(visited) >= config.max_states):
                truncated = True
                continue
            visited.add(succ_key)
            queue.append((succ, succ_chk, succ_key, depth + 1))
    machine.reset()
    return (None if truncated else True), len(visited), transitions, None


def assert_agrees(machine, labeling, props, assumptions=(), config=None):
    expected = naive_check(machine, labeling, props, assumptions, config)
    result = AsmModelChecker(machine, labeling, config).check_combined(
        props, assumptions=assumptions)
    got = (result.holds, result.num_nodes, result.num_transitions,
           result.counterexample)
    assert got == expected
    return result


def _la1(banks):
    return build_la1_asm(La1AsmConfig(banks=banks)), asm_labeling(banks)


def _suite(banks):
    return [p for __, p in device_property_suite(banks)]


def _too_fast():
    """Planted bug: claims read data two cycles after the request."""
    return B.always(B.implies(B.atom(A.read_req(0)),
                              B.next_(B.atom(A.data_valid(0)), 2)))


class TestLa1Product:
    @pytest.mark.parametrize("banks", [1, 2])
    def test_suite_holds(self, banks):
        assert assert_agrees(*_la1(banks), _suite(banks)).holds is True

    @pytest.mark.parametrize("banks", [1, 2])
    def test_suite_under_assumption(self, banks):
        no_writes = B.never(B.atom(A.write_sel(0)))
        result = assert_agrees(*_la1(banks), _suite(banks),
                               assumptions=[no_writes])
        assert result.holds is True

    @pytest.mark.parametrize("banks", [1, 2])
    def test_planted_failure_has_same_counterexample(self, banks):
        result = assert_agrees(*_la1(banks), _suite(banks) + [_too_fast()])
        assert result.holds is False
        assert result.counterexample[0][0] == "initial"
        assert len(result.counterexample) > 1

    @pytest.mark.parametrize("bounds", [
        {"max_states": 40},
        {"max_transitions": 100},
        {"max_depth": 3},
        {"max_states": 200, "max_transitions": 150},
    ])
    def test_truncation(self, bounds):
        result = assert_agrees(*_la1(2), _suite(2),
                               config=ExplorationConfig(**bounds))
        assert result.holds is None
        assert result.truncated_reason == "bounds"

    def test_state_projection(self):
        config = ExplorationConfig(state_projection=["phase", "rp0", "wp0"])
        assert_agrees(*_la1(2), _suite(2), config=config)


class TestLabeling:
    def test_unlabeled_atom_still_raises(self):
        machine, labeling = _la1(1)
        checker = AsmModelChecker(machine, labeling)
        with pytest.raises(PslError, match="no_such_atom"):
            checker.check_combined(
                _suite(1) + [parse_property("always (no_such_atom)")])

    def test_cover_witness_unchanged(self):
        machine, labeling = _la1(2)
        result = AsmModelChecker(machine, labeling).check_cover(
            SereBool(B.atom(A.data_valid(1)) & B.atom(A.write_sel(0))),
            "cross-bank")
        assert result.covered is True
        assert result.num_nodes == 115
        assert [label for label, __ in result.witness] == [
            "initial",
            "EdgeK(raddr=0, rsel=1, wsel=-1)",
            "EdgeKSharp(waddr=0, wdata=0)",
            "EdgeK(raddr=0, rsel=-1, wsel=-1)",
            "EdgeKSharp(waddr=0, wdata=0)",
            "EdgeK(raddr=0, rsel=-1, wsel=0)",
        ]
        assert result.witness[-1][1]["rp1"] == ("out0", 0, 0)


# -- generated machines -------------------------------------------------
# atoms: "x" and "y" read state variables directly; p/q/r are labeled
_PROPERTIES = [
    "always (p -> next (q))",
    "always (p -> q)",
    "never {p; q}",
    "never {p; r[*2]}",
    "always (x -> next (y))",
    "always ((p until r))",
    "{p} |=> (r)",
    "always (!r)",
]

_rules = st.lists(
    st.tuples(
        st.sampled_from(["x", "y"]),   # guard variable
        st.integers(0, 3),             # guard: variable != this value
        st.sampled_from(["x", "y"]),   # updated variable
        st.integers(1, 3),             # increment
        st.booleans(),                 # extra 0..1 argument from a domain
    ),
    min_size=1, max_size=4,
)


def _generated_machine(modulus, rules):
    machine = AsmMachine("gen")
    machine.var("x", 0)
    machine.var("y", 0)
    for i, (gvar, gval, tvar, inc, param) in enumerate(rules):
        def guard(s, gvar=gvar, gval=gval, **args):
            return s[gvar] != gval

        def effect(s, tvar=tvar, inc=inc, k=0):
            return {tvar: (s[tvar] + inc + k) % modulus}

        domains = {"k": IntRange("k", 0, 1)} if param else None
        machine.rule(f"r{i}", guard, effect, domains)
    labeling = Labeling({
        "p": lambda s: s["x"] == 1,
        "q": lambda s: s["y"] != 0,
        "r": lambda s: s["x"] == s["y"],
    })
    return machine, labeling


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.integers(2, 4),
    rules=_rules,
    props=st.lists(st.sampled_from(_PROPERTIES), min_size=1, max_size=3),
    assumption=st.none() | st.sampled_from(
        ["never {x; x}", "always (!p)", "never {q; q; q}"]),
    max_states=st.none() | st.integers(1, 12),
)
def test_generated_machines_agree(modulus, rules, props, assumption,
                                  max_states):
    machine, labeling = _generated_machine(modulus, rules)
    assumptions = [] if assumption is None else [parse_property(assumption)]
    assert_agrees(machine, labeling, [parse_property(p) for p in props],
                  assumptions, ExplorationConfig(max_states=max_states))
