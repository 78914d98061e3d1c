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

import time
from collections import deque
from typing import Callable, Mapping, Optional, Sequence

from ..psl.ast import Property, PslError, Sere
from ..psl.automata import CheckerAutomaton, build_checker
from ..psl.sere import compile_sere
from .exploration import ExplorationConfig
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
        verify all the interface properties combined together".

        ``assumptions`` are environment constraints (PSL ``assume``
        directives): executions that would violate an assumption are
        pruned from the search, so properties are verified only over
        assumption-consistent behaviours -- the standard way RuleBase
        users modelled a constrained host.
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
        machine = self.machine
        config = self.config
        machine.reset()

        # The product step is a pure function of (checker states, atom
        # values), so each distinct snapshot is labeled once over the union
        # of all checkers' atoms, and each (checker states, valuation) pair
        # is stepped once; both memos live only for this call.
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
                succ = tuple(
                    chk.transition(cs, tuple(values[i] for i in proj))
                    for chk, proj, cs in zip(checkers, projections,
                                             chk_states)
                )
                steps[step_key] = succ
            return succ

        initial_snapshot = machine.snapshot()
        initial_chk = advance((0,) * len(checkers), initial_snapshot)
        fail = CheckerAutomaton.FAIL_STATE

        def assumption_violated(chk_states: tuple) -> bool:
            return fail in chk_states[:num_assumptions]

        def property_violated(chk_states: tuple) -> bool:
            return fail in chk_states[num_assumptions:]

        # parents: product_key -> (parent_key, action_label, snapshot)
        parents: dict = {}
        initial_key = (self._project(initial_snapshot), initial_chk)
        parents[initial_key] = (None, None, initial_snapshot)

        if assumption_violated(initial_chk):
            # no assumption-consistent behaviour exists: vacuously true
            elapsed = time.perf_counter() - start
            return ModelCheckResult(
                True, 0, 0, elapsed, property_name=name,
            )
        if property_violated(initial_chk):
            elapsed = time.perf_counter() - start
            return ModelCheckResult(
                False, 1, 0, elapsed,
                counterexample=[("initial", dict(initial_snapshot))],
                property_name=name,
            )

        queue: deque = deque([(initial_snapshot, initial_chk, initial_key, 0)])
        visited = {initial_key}
        num_transitions = 0
        truncated = False
        reason = ""
        deadline = (
            None if getattr(config, "deadline_s", None) is None
            else start + config.deadline_s
        )

        while queue:
            if deadline is not None and time.perf_counter() > deadline:
                truncated = True
                reason = "deadline"
                break
            snapshot, chk_states, key, depth = queue.popleft()
            if config.max_depth is not None and depth >= config.max_depth:
                truncated = True
                reason = reason or "bounds"
                continue
            machine.restore(snapshot)
            actions = machine.enabled_actions()
            if config.action_filter is not None:
                actions = [a for a in actions if config.action_filter(a)]
            for action in actions:
                if (
                    config.max_transitions is not None
                    and num_transitions >= config.max_transitions
                ):
                    truncated = True
                    reason = reason or "bounds"
                    break
                machine.restore(snapshot)
                machine.fire(action)
                succ_snapshot = machine.snapshot()
                succ_chk = advance(chk_states, succ_snapshot)
                succ_key = (self._project(succ_snapshot), succ_chk)
                num_transitions += 1
                if assumption_violated(succ_chk):
                    continue  # pruned: outside the assumed environment
                if succ_key not in parents:
                    parents[succ_key] = (key, action.label, succ_snapshot)
                if property_violated(succ_chk):
                    elapsed = time.perf_counter() - start
                    machine.reset()
                    return ModelCheckResult(
                        False,
                        len(visited) + 1,
                        num_transitions,
                        elapsed,
                        counterexample=self._trace(parents, succ_key),
                        property_name=name,
                    )
                if succ_key in visited:
                    continue
                if (
                    config.max_states is not None
                    and len(visited) >= config.max_states
                ):
                    truncated = True
                    reason = reason or "bounds"
                    continue
                visited.add(succ_key)
                queue.append((succ_snapshot, succ_chk, succ_key, depth + 1))

        machine.reset()
        elapsed = time.perf_counter() - start
        holds: Optional[bool] = True if not truncated else None
        return ModelCheckResult(
            holds, len(visited), num_transitions, elapsed, property_name=name,
            truncated_reason=reason,
        )

    # ------------------------------------------------------------------
    def check_cover(self, sere: Sere, name: str = "cover") -> CoverResult:
        """Search for a witness execution matching the SERE (PSL's
        ``cover`` directive): a match may start at any cycle."""
        start = time.perf_counter()
        nfa = compile_sere(sere)
        atoms = sorted(sere.atoms())
        machine = self.machine
        config = self.config
        machine.reset()

        def val(snapshot: tuple) -> dict:
            return self.labeling.valuation(dict(snapshot), atoms)

        initial_snapshot = machine.snapshot()
        # NFA runs start fresh at every cycle (cover matches anywhere)
        initial_runs = nfa.step(nfa.initial, val(initial_snapshot))
        if nfa.accepts_now(initial_runs) or nfa.accepts_empty:
            elapsed = time.perf_counter() - start
            machine.reset()
            return CoverResult(True, 1, 0, elapsed,
                               witness=[("initial", dict(initial_snapshot))],
                               name=name)
        initial_key = (self._project(initial_snapshot), initial_runs)
        parents: dict = {initial_key: (None, None, initial_snapshot)}
        queue: deque = deque([(initial_snapshot, initial_runs, initial_key, 0)])
        visited = {initial_key}
        num_transitions = 0
        truncated = False
        deadline = (
            None if getattr(config, "deadline_s", None) is None
            else start + config.deadline_s
        )
        while queue:
            if deadline is not None and time.perf_counter() > deadline:
                truncated = True
                break
            snapshot, runs, key, depth = queue.popleft()
            if config.max_depth is not None and depth >= config.max_depth:
                truncated = True
                continue
            machine.restore(snapshot)
            actions = machine.enabled_actions()
            if config.action_filter is not None:
                actions = [a for a in actions if config.action_filter(a)]
            for action in actions:
                if (
                    config.max_transitions is not None
                    and num_transitions >= config.max_transitions
                ):
                    truncated = True
                    break
                machine.restore(snapshot)
                machine.fire(action)
                succ = machine.snapshot()
                valuation = val(succ)
                succ_runs = nfa.step(runs | nfa.initial, valuation)
                succ_key = (self._project(succ), succ_runs)
                num_transitions += 1
                if succ_key not in parents:
                    parents[succ_key] = (key, action.label, succ)
                if nfa.accepts_now(succ_runs):
                    elapsed = time.perf_counter() - start
                    machine.reset()
                    return CoverResult(
                        True, len(visited) + 1, num_transitions, elapsed,
                        witness=self._trace(parents, succ_key), name=name,
                    )
                if succ_key in visited:
                    continue
                if (
                    config.max_states is not None
                    and len(visited) >= config.max_states
                ):
                    truncated = True
                    continue
                visited.add(succ_key)
                queue.append((succ, succ_runs, succ_key, depth + 1))
        machine.reset()
        elapsed = time.perf_counter() - start
        return CoverResult(
            None if truncated else False,
            len(visited), num_transitions, elapsed, name=name,
        )

    # ------------------------------------------------------------------
    def _project(self, snapshot: tuple) -> tuple:
        projection = self.config.state_projection
        if projection is None:
            return snapshot
        as_dict = dict(snapshot)
        return tuple((v, as_dict[v]) for v in projection)

    @staticmethod
    def _trace(parents: dict, key) -> list:
        """Reconstruct the counterexample path to ``key``."""
        steps = []
        while key is not None:
            parent, label, snapshot = parents[key]
            steps.append((label or "initial", dict(snapshot)))
            key = parent
        steps.reverse()
        return steps
