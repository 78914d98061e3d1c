"""Model checking PSL properties by guided ASM exploration.

"By adapting the exploration algorithm we've been able to implement a model
checking procedure for PSL" (paper, Section 5.1).  The procedure composes
the machine's reachable states with the deterministic checker automaton of
each property (:func:`repro.psl.automata.build_checker`) and searches the
product breadth first:

* a property is **violated** when the product reaches the automaton's
  failure state -- the paper's filter/stopping condition
  ``P_status = true & P_value = false``; the "generated portion of the
  state machine from the initial state until the stop error point forms a
  complete path for a counter-example";
* a safety property **holds** when the full product is explored without
  reaching a failure;
* if exploration bounds truncate the search, the verdict is *unknown* (an
  under-approximating run that found no violation).

Atoms are evaluated on machine states through a *labeling*: by default an
atom named like a state variable samples that variable's truthiness, and
callers may supply arbitrary ``atom -> f(state_dict) -> bool`` functions.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, Mapping, Optional, Sequence

from ..psl.ast import Property, PslError, Sere
from ..psl.automata import CheckerAutomaton, build_checker
from ..psl.sere import compile_sere
from .exploration import ExplorationConfig, StateWalk
from .machine import AsmMachine

__all__ = ["Labeling", "ModelCheckResult", "CoverResult", "AsmModelChecker"]


class Labeling:
    """Maps PSL atoms to boolean observations of a machine state."""

    def __init__(self, functions: Optional[Mapping[str, Callable]] = None):
        self._functions: dict[str, Callable] = dict(functions or {})

    def define(self, atom: str, fn: Callable[[dict], bool]) -> None:
        """Register an observation function for an atom."""
        self._functions[atom] = fn

    def valuation(self, state: dict, atoms: Sequence[str]) -> dict:
        """Evaluate the listed atoms on a machine state dictionary."""
        result = {}
        for atom in atoms:
            fn = self._functions.get(atom)
            if fn is not None:
                result[atom] = bool(fn(state))
            elif atom in state:
                result[atom] = bool(state[atom])
            else:
                raise PslError(
                    f"atom {atom!r} has no labeling function and is not a "
                    "state variable"
                )
        return result


class ModelCheckResult:
    """Verdict plus the accounting Table 1 reports.

    ``holds`` is True (proved), False (violated -- see
    :attr:`counterexample`) or None (bounds hit, no violation found).
    """

    def __init__(
        self,
        holds: Optional[bool],
        num_nodes: int,
        num_transitions: int,
        cpu_time: float,
        counterexample: Optional[list] = None,
        property_name: str = "property",
        truncated_reason: str = "",
    ):
        self.holds = holds
        self.num_nodes = num_nodes
        self.num_transitions = num_transitions
        self.cpu_time = cpu_time
        self.counterexample = counterexample
        self.property_name = property_name
        #: "" for a decided run; "bounds" / "deadline" when holds is None
        self.truncated_reason = truncated_reason

    def __repr__(self):
        verdict = {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[self.holds]
        return (
            f"ModelCheckResult({self.property_name}: {verdict}, "
            f"nodes={self.num_nodes}, transitions={self.num_transitions}, "
            f"cpu={self.cpu_time:.3f}s)"
        )


class CoverResult:
    """Outcome of a cover-directive check: was the SERE ever matched?

    ``covered`` is True with a :attr:`witness` path, False (the whole
    bounded exploration finished without a match) or None (bounds hit).
    """

    def __init__(self, covered, num_nodes, num_transitions, cpu_time,
                 witness=None, name="cover"):
        self.covered = covered
        self.num_nodes = num_nodes
        self.num_transitions = num_transitions
        self.cpu_time = cpu_time
        self.witness = witness
        self.name = name

    def __repr__(self):
        verdict = {True: "COVERED", False: "UNREACHABLE",
                   None: "UNKNOWN"}[self.covered]
        return (
            f"CoverResult({self.name}: {verdict}, nodes={self.num_nodes}, "
            f"cpu={self.cpu_time:.3f}s)"
        )


class AsmModelChecker:
    """Exploration-based PSL model checker over an :class:`AsmMachine`."""

    def __init__(
        self,
        machine: AsmMachine,
        labeling: Optional[Labeling] = None,
        config: Optional[ExplorationConfig] = None,
    ):
        self.machine = machine
        self.labeling = labeling or Labeling()
        self.config = config or ExplorationConfig()

    # ------------------------------------------------------------------
    def check(self, prop: Property, name: str = "property") -> ModelCheckResult:
        """Check a single safety property."""
        return self.check_combined([prop], name=name)

    def check_combined(
        self,
        props: Sequence[Property],
        name: str = "combined",
        assumptions: Sequence[Property] = (),
    ) -> ModelCheckResult:
        """Check several properties in one product exploration.

        This mirrors Table 1, which reports "the CPU time required to
        verify all the interface properties combined together".  The
        search stops at the first violation of any property.

        ``assumptions`` are environment constraints (PSL ``assume``
        directives): executions that would violate an assumption are
        pruned from the search, so properties are verified only over
        assumption-consistent behaviours -- the standard way RuleBase
        users modelled a constrained host.
        """
        violations, outcome = self._check_product(props, assumptions, 1)
        result = next((v for v in violations if v is not None), outcome)
        result.property_name = name
        return result

    def check_each(
        self, suite: Sequence[tuple[str, Property]],
    ) -> dict[str, ModelCheckResult]:
        """Per-property verdicts of ``(name, property)`` pairs from one
        product exploration, keyed by name in suite order.

        The paper's procedure tracks every property's status during a
        single walk.  A violated property's checker stays in
        :attr:`CheckerAutomaton.FAIL_STATE` while the walk goes on for
        the others, so it no longer splits product states; the walk
        stops once every property has failed.  A violated property's
        result carries its first counterexample in BFS order and the
        accounting at that point; the others share the walk's outcome
        (True, or None with its ``truncated_reason``).
        """
        violations, outcome = self._check_product(
            [prop for _, prop in suite], (), len(suite))
        results = {}
        for (name, _), result in zip(suite, violations):
            result = result or copy.copy(outcome)
            result.property_name = name
            results[name] = result
        return results

    def _check_product(
        self,
        props: Sequence[Property],
        assumptions: Sequence[Property],
        stop_after: int,
    ) -> tuple[list, Optional[ModelCheckResult]]:
        """Walk the product of the machine with the checkers of
        ``assumptions`` and ``props`` until ``stop_after`` properties
        have been violated.

        Returns ``(violations, outcome)``: ``violations[i]`` is the
        result of ``props[i]`` at its first violation, or None, and
        ``outcome`` the result of the finished walk for every other
        property (None when the walk stopped at ``stop_after``).
        """
        for prop in tuple(props) + tuple(assumptions):
            if not prop.is_safety():
                raise PslError(
                    f"{prop!r} is not a safety property; exploration-based "
                    "model checking needs finite bad prefixes"
                )
        start = time.perf_counter()
        num_assumptions = len(assumptions)
        checkers = [build_checker(p) for p in assumptions]
        checkers += [build_checker(p) for p in props]
        fail = CheckerAutomaton.FAIL_STATE

        # The product step is a pure function of (checker states, atom
        # values), so each distinct snapshot is labeled once over the union
        # of all checkers' atoms, and each (checker states, valuation) pair
        # is stepped once; both memos live only for this call.  A step
        # also names the checkers it newly drove into FAIL, ascending, so
        # assumption checkers come first.
        atoms = sorted(set().union(*(chk.atoms for chk in checkers)))
        position = {atom: i for i, atom in enumerate(atoms)}
        projections = [tuple(position[a] for a in chk.atoms)
                       for chk in checkers]
        label = self.labeling.valuation
        valuations: dict = {}
        steps: dict = {}

        def advance(chk_states: tuple, snapshot: tuple) -> tuple:
            values = valuations.get(snapshot)
            if values is None:
                valuation = label(dict(snapshot), atoms)
                values = tuple(valuation[a] for a in atoms)
                valuations[snapshot] = values
            step_key = (chk_states, values)
            succ = steps.get(step_key)
            if succ is None:
                succ_states = tuple(
                    chk.transition(cs, tuple(values[i] for i in proj))
                    for chk, proj, cs in zip(checkers, projections,
                                             chk_states)
                )
                failed = tuple(
                    i for i, (cs, nxt) in enumerate(zip(chk_states,
                                                        succ_states))
                    if nxt == fail and cs != fail
                )
                succ = steps[step_key] = (succ_states, failed)
            return succ

        walk = StateWalk(self.machine, self.config)
        violations: list = [None] * len(props)
        found = 0

        def record(failed: tuple, path: Callable[[], list]) -> bool:
            """Keep the first violation of each property in ``failed``;
            True when ``stop_after`` properties are violated."""
            nonlocal found
            for i in failed:
                if violations[i - num_assumptions] is None:
                    violations[i - num_assumptions] = ModelCheckResult(
                        False, len(walk.nodes) + 1, walk.transitions,
                        time.perf_counter() - start, counterexample=path(),
                    )
                    found += 1
            return found >= stop_after

        initial_chk, failed = advance((0,) * len(checkers), walk.root)
        if failed and failed[0] < num_assumptions:
            # no assumption-consistent behaviour exists: vacuously true
            return violations, ModelCheckResult(
                True, 0, 0, time.perf_counter() - start)
        if failed and record(failed, lambda: [("initial", dict(walk.root))]):
            return violations, None

        def step(node, action, updates, snapshot):
            if snapshot is None:
                raise updates
            succ_chk, failed = advance(node.tag, snapshot)
            if failed:
                if failed[0] < num_assumptions:
                    return False  # pruned: outside the assumed environment
                if record(failed, lambda: walk.trace(node) + [
                        (action.label, dict(snapshot))]):
                    return True
            walk.admit(node, action, snapshot, succ_chk)
            return False

        stopped = walk.run(step, initial_chk)
        reason = walk.truncated_reason
        outcome = None if stopped else ModelCheckResult(
            None if reason else True, len(walk.nodes), walk.transitions,
            time.perf_counter() - start, truncated_reason=reason,
        )
        return violations, outcome

    # ------------------------------------------------------------------
    def check_cover(self, sere: Sere, name: str = "cover") -> CoverResult:
        """Search for a witness execution matching the SERE (PSL's
        ``cover`` directive): a match may start at any cycle."""
        start = time.perf_counter()
        nfa = compile_sere(sere)
        atoms = sorted(sere.atoms())
        label = self.labeling.valuation
        walk = StateWalk(self.machine, self.config)
        # NFA runs start fresh at every cycle (cover matches anywhere)
        initial_runs = nfa.step(nfa.initial, label(dict(walk.root), atoms))
        if nfa.accepts_now(initial_runs) or nfa.accepts_empty:
            elapsed = time.perf_counter() - start
            return CoverResult(True, 1, 0, elapsed,
                               witness=[("initial", dict(walk.root))],
                               name=name)
        witness: list = []

        def step(node, action, updates, snapshot):
            if snapshot is None:
                raise updates
            runs = nfa.step(node.tag | nfa.initial,
                            label(dict(snapshot), atoms))
            if nfa.accepts_now(runs):
                witness.extend(walk.trace(node))
                witness.append((action.label, dict(snapshot)))
                return True
            walk.admit(node, action, snapshot, runs)
            return False

        covered = walk.run(step, initial_runs)
        elapsed = time.perf_counter() - start
        if covered:
            return CoverResult(True, len(walk.nodes) + 1, walk.transitions,
                               elapsed, witness=witness, name=name)
        return CoverResult(
            None if walk.truncated_reason else False,
            len(walk.nodes), walk.transitions, elapsed, name=name,
        )
