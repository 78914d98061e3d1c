"""``AsmModelChecker.check_each`` against one ``check`` per property.

One product walk must give every property the verdict its own walk
gives, on the fault-free LA-1 machine and on every ``AsmPerturbation``
kind; every counterexample it returns must be a real machine path that
drives its property's checker into FAIL."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import AsmModelChecker, ExplorationConfig
from repro.core import (
    La1AsmConfig,
    asm_labeling,
    build_la1_asm,
    device_property_suite,
)
from repro.fault import AsmPerturbation, build_perturbed_la1_asm
from repro.fault.models import ASM_KINDS
from repro.psl.automata import CheckerAutomaton, build_checker

#: (banks, perturbation kind or None for the fault-free machine, bank)
MACHINES = [(banks, None, 0) for banks in (1, 2)] + [
    (banks, kind, bank)
    for banks in (1, 2)
    for kind in ASM_KINDS
    for bank in sorted({0, banks - 1})
]


def _machine(banks, kind, bank):
    config = La1AsmConfig(banks=banks)
    if kind is None:
        return build_la1_asm(config)
    return build_perturbed_la1_asm(config, AsmPerturbation(kind, bank))


def _replay(machine, labeling, prop, counterexample):
    """Fire the counterexample's actions from reset, checking each state
    it lists, and return the property checker's final state."""
    checker = build_checker(prop)
    machine.reset()
    state = checker.step(0, labeling.valuation(
        dict(machine.snapshot()), checker.atoms))
    assert counterexample[0] == ("initial", dict(machine.snapshot()))
    for label, expected in counterexample[1:]:
        (action,) = [a for a in machine.enabled_actions() if a.label == label]
        machine.fire(action)
        assert dict(machine.snapshot()) == expected
        state = checker.step(state, labeling.valuation(expected,
                                                       checker.atoms))
    machine.reset()
    return state


def _assert_matches_separate_checks(banks, kind, bank, suite):
    machine = _machine(banks, kind, bank)
    labeling = asm_labeling(banks)
    results = AsmModelChecker(machine, labeling).check_each(suite)
    assert list(results) == [name for name, _ in suite]
    for name, prop in suite:
        one = AsmModelChecker(machine, labeling).check(prop, name)
        each = results[name]
        assert each.property_name == name
        assert (each.holds, each.truncated_reason) \
            == (one.holds, one.truncated_reason), name
        if each.holds is False:
            # both walks are breadth first: the first violation sits at
            # the property's minimal violation depth
            assert len(each.counterexample) == len(one.counterexample)
            assert _replay(machine, labeling, prop, each.counterexample) \
                == CheckerAutomaton.FAIL_STATE, name
        else:
            assert each.counterexample is None
    return results


@pytest.mark.parametrize("banks,kind,bank", MACHINES)
def test_full_suite_matches_separate_checks(banks, kind, bank):
    suite = device_property_suite(banks)
    results = _assert_matches_separate_checks(banks, kind, bank, suite)
    if kind is None:
        assert all(r.holds is True for r in results.values())
    else:
        assert any(r.holds is False for r in results.values())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_subsets_match_separate_checks(data):
    banks, kind, bank = data.draw(st.sampled_from(MACHINES))
    suite = data.draw(st.permutations(device_property_suite(banks)))
    size = data.draw(st.integers(1, len(suite)))
    _assert_matches_separate_checks(banks, kind, bank, suite[:size])


def test_walk_stops_once_every_property_failed():
    """The walk fires nothing after the last property's first violation,
    and goes on past a violation while another property is undecided."""
    machine = _machine(2, "stall_read", 0)
    labeling = asm_labeling(2)
    fired = []
    machine.fire_observers.append(lambda m, action: fired.append(action))
    suite = device_property_suite(2)
    violated = [(n, p) for n, p in suite if n == "read_latency[0]"]
    (result,) = AsmModelChecker(machine, labeling).check_each(
        violated).values()
    assert result.holds is False
    assert len(fired) == result.num_transitions

    fired.clear()
    results = AsmModelChecker(machine, labeling).check_each(suite)
    assert results["read_latency[1]"].holds is True
    assert len(fired) == results["read_latency[1]"].num_transitions \
        > result.num_transitions


def test_bounds_make_unviolated_properties_unknown():
    machine = _machine(2, None, 0)
    config = ExplorationConfig(max_states=20)
    results = AsmModelChecker(machine, asm_labeling(2), config).check_each(
        device_property_suite(2))
    assert {(r.holds, r.truncated_reason) for r in results.values()} \
        == {(None, "bounds")}
