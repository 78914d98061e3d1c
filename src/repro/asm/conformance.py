"""Conformance testing: co-executing a model and an implementation.

"The AsmL tool performs a conformance test by executing the program under
test, called the implementation (SystemC model for our case), together
with the model program in ASM ... It then verifies if for all the possible
inputs, both models behave the same" (paper, Section 5.1).

:func:`check_conformance` drives the ASM machine and an implementation
through the same breadth-first action tree up to a depth bound, comparing
observable projections after every step.  Implementations plug in through
the :class:`Implementation` protocol (reset, apply, observe, snapshot,
restore): every BFS node keeps the implementation's snapshot next to the
model's, so each tree edge costs one restore plus one applied action.
Implementations that cannot rewind derive from
:class:`ReplayImplementation`, whose snapshot is the action trail and
whose restore replays it from reset.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Optional, Sequence

from .machine import Action, AsmMachine

__all__ = ["Implementation", "ReplayImplementation", "Divergence",
           "ConformanceResult", "check_conformance"]


class Implementation:
    """Protocol for the program under test.

    * :meth:`reset` restores the initial condition;
    * :meth:`apply` performs the action named by an ASM rule with its
      arguments;
    * :meth:`observe` returns the observable state as a dictionary
      comparable with the model's projection;
    * :meth:`snapshot` captures the complete current state as an opaque
      value and :meth:`restore` returns to it, so that after
      ``restore(s)`` the implementation behaves under every later
      ``apply`` exactly as it did when ``s`` was taken.

    :func:`check_conformance` takes snapshots and restores only between
    actions, when the implementation is quiescent: every effect of the
    last :meth:`apply` has settled and nothing is left scheduled.
    """

    def reset(self) -> None:
        """Restore the implementation to its initial state."""
        raise NotImplementedError

    def apply(self, rule_name: str, args: dict) -> None:
        """Perform one action."""
        raise NotImplementedError

    def observe(self) -> dict:
        """The observable state after the last action."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """An opaque value capturing the current state."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot snapshot; derive it from "
            f"ReplayImplementation to rewind by replay")

    def restore(self, snapshot: Any) -> None:
        """Return to the state captured by :meth:`snapshot`."""
        raise NotImplementedError(
            f"{type(self).__name__} cannot restore; derive it from "
            f"ReplayImplementation to rewind by replay")


class ReplayImplementation(Implementation):
    """Rewinding by replay, for implementations that cannot restore.

    The snapshot is the trail of ``(rule_name, args)`` actions applied
    since the last reset; :meth:`restore` resets and re-applies that
    trail.  Use it two ways: wrap any implementation
    (``ReplayImplementation(impl)``, a from-reset reference run), or
    subclass it and override :meth:`_reset`, :meth:`_apply` and
    :meth:`observe`.
    """

    def __init__(self, inner: Optional[Implementation] = None):
        self.inner = inner
        self._trail: tuple = ()

    def _reset(self) -> None:
        self.inner.reset()

    def _apply(self, rule_name: str, args: dict) -> None:
        self.inner.apply(rule_name, args)

    def observe(self) -> dict:
        return self.inner.observe()

    def reset(self) -> None:
        self._reset()
        self._trail = ()

    def apply(self, rule_name: str, args: dict) -> None:
        self._apply(rule_name, args)
        self._trail += ((rule_name, args),)

    def snapshot(self) -> tuple:
        return self._trail

    def restore(self, snapshot: tuple) -> None:
        self._reset()
        for rule_name, args in snapshot:
            self._apply(rule_name, args)
        self._trail = snapshot


class Divergence:
    """A behavioural mismatch found during co-execution."""

    def __init__(self, path: list[str], model_obs: dict, impl_obs: dict):
        self.path = path
        self.model_obs = model_obs
        self.impl_obs = impl_obs

    def __repr__(self):
        return (
            f"Divergence(after {' -> '.join(self.path) or '<initial>'}: "
            f"model={self.model_obs}, impl={self.impl_obs})"
        )


class ConformanceResult:
    """Outcome of a conformance run.

    ``paths_checked`` counts the compared tree edges (each is one path
    from reset); ``steps_executed`` is the summed length of those paths,
    i.e. the actions a from-reset replay of every path would apply.
    """

    def __init__(
        self,
        conformant: bool,
        paths_checked: int,
        steps_executed: int,
        cpu_time: float,
        divergence: Optional[Divergence] = None,
    ):
        self.conformant = conformant
        self.paths_checked = paths_checked
        self.steps_executed = steps_executed
        self.cpu_time = cpu_time
        self.divergence = divergence

    def __repr__(self):
        verdict = "CONFORMANT" if self.conformant else "DIVERGENT"
        return (
            f"ConformanceResult({verdict}, paths={self.paths_checked}, "
            f"steps={self.steps_executed}, cpu={self.cpu_time:.3f}s)"
        )


def check_conformance(
    machine: AsmMachine,
    implementation: Implementation,
    observables: Sequence[str],
    max_depth: int = 4,
    max_paths: int = 10000,
    action_filter: Optional[Callable[[Action], bool]] = None,
) -> ConformanceResult:
    """Co-execute model and implementation over all action sequences.

    The tree of action sequences up to ``max_depth`` is walked breadth
    first.  Each node holds the model snapshot, the implementation
    snapshot and its action path; a child edge restores the parent's
    implementation snapshot, applies exactly one action and compares
    :meth:`~Implementation.observe` against the model's projection onto
    ``observables`` (the dictionaries must be equal).  Only nodes above
    the depth bound keep snapshots.  Snapshots are taken and restored
    between actions, so an implementation must be quiescent there.

    The walk stops after ``max_paths`` edges or at the first mismatch,
    which is reported with the action path that exposes it -- the paper
    notes this phase "is sometimes time consuming, however, it is quite
    important to make sure the ASM to SystemC mapping preserves the
    system's properties".  ``steps_executed`` of the result is the summed
    length of the checked paths.
    """
    start = time.perf_counter()
    machine.reset()
    implementation.reset()

    def model_obs(snapshot: tuple) -> dict:
        state = dict(snapshot)
        return {name: state[name] for name in observables}

    def divergent(paths: int, steps: int, divergence: Divergence):
        machine.reset()
        return ConformanceResult(False, paths, steps,
                                 time.perf_counter() - start, divergence)

    initial = machine.snapshot()
    first_impl = implementation.observe()
    first_model = model_obs(initial)
    if first_impl != first_model:
        return divergent(1, 0, Divergence([], first_model, first_impl))

    # each node: (model snapshot, implementation snapshot, action path)
    queue: deque = deque()
    if max_depth > 0:
        queue.append((initial, implementation.snapshot(), ()))
    paths_checked = 0
    steps_executed = 0
    while queue and paths_checked < max_paths:
        snapshot, impl_snapshot, path = queue.popleft()
        machine.restore(snapshot)
        actions = machine.enabled_actions()
        if action_filter is not None:
            actions = [a for a in actions if action_filter(a)]
        expand = len(path) + 1 < max_depth
        for action in actions:
            if paths_checked >= max_paths:
                break
            machine.restore(snapshot)
            machine.fire(action)
            succ = machine.snapshot()
            implementation.restore(impl_snapshot)
            implementation.apply(action.rule.name, action.args)
            new_path = path + (action,)
            paths_checked += 1
            steps_executed += len(new_path)
            impl_observation = implementation.observe()
            model_observation = model_obs(succ)
            if impl_observation != model_observation:
                return divergent(
                    paths_checked, steps_executed,
                    Divergence([a.label for a in new_path],
                               model_observation, impl_observation))
            if expand:
                queue.append((succ, implementation.snapshot(), new_path))

    machine.reset()
    elapsed = time.perf_counter() - start
    return ConformanceResult(True, paths_checked, steps_executed, elapsed)
