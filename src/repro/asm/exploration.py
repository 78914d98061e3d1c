"""Bounded reachability analysis -- the AsmL exploration algorithm.

"The AsmL tool ... includes a general algorithm implementing reachability
analysis (also called state space exploration)" (paper, Section 5.1).
:class:`Explorer` walks an :class:`~repro.asm.machine.AsmMachine` breadth
first from its initial state, firing every enabled (rule, arguments)
action, and records the visited portion as an
:class:`~repro.asm.fsm.Fsm`.

As in AsmL, "you must limit the number of states and transitions that the
tool explores": :class:`ExplorationConfig` carries the bounds plus the two
configuration knobs the paper stresses -- a *state projection* (which
variables participate in state identity) and an *action filter* (which
rules to explore).  When any bound is hit the produced FSM is marked as an
under-approximation.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional, Sequence

from .fsm import Fsm
from .machine import Action, AsmMachine

__all__ = ["ExplorationConfig", "ExplorationResult", "Explorer"]


class ExplorationConfig:
    """Bounds and filters guiding the exploration.

    Parameters
    ----------
    max_states, max_transitions, max_depth:
        Hard bounds; ``None`` means unbounded.
    state_projection:
        Optional list of variable names that define state identity (the
        AsmL configuration's "variables" set).  Variables outside the
        projection still evolve but do not distinguish FSM nodes.
    action_filter:
        Optional predicate over :class:`Action`; actions rejected by the
        filter are not explored (the configuration's "methods/actions").
    deadline_s:
        Wall-clock budget in seconds; ``None`` means unlimited.  A run
        that exceeds it stops cleanly with ``truncated=True`` (reason
        ``"deadline"``) instead of hanging a campaign.
    """

    def __init__(
        self,
        max_states: Optional[int] = 100000,
        max_transitions: Optional[int] = 1000000,
        max_depth: Optional[int] = None,
        state_projection: Optional[Sequence[str]] = None,
        action_filter: Optional[Callable[[Action], bool]] = None,
        deadline_s: Optional[float] = None,
    ):
        self.max_states = max_states
        self.max_transitions = max_transitions
        self.max_depth = max_depth
        self.state_projection = (
            tuple(state_projection) if state_projection is not None else None
        )
        self.action_filter = action_filter
        self.deadline_s = deadline_s


class ExplorationResult:
    """The FSM plus the accounting reported in Table 1.

    ``truncated_reason`` is ``""`` for a complete run, ``"bounds"`` when
    a state/transition/depth bound was hit, and ``"deadline"`` when the
    wall-clock budget expired.
    """

    def __init__(self, fsm: Fsm, cpu_time: float, truncated: bool,
                 truncated_reason: str = ""):
        self.fsm = fsm
        self.cpu_time = cpu_time
        self.truncated = truncated
        self.truncated_reason = truncated_reason

    @property
    def num_nodes(self) -> int:
        """FSM node count."""
        return self.fsm.num_nodes

    @property
    def num_transitions(self) -> int:
        """FSM transition count."""
        return self.fsm.num_transitions

    def __repr__(self):
        return (
            f"ExplorationResult(nodes={self.num_nodes}, "
            f"transitions={self.num_transitions}, "
            f"cpu={self.cpu_time:.3f}s, truncated={self.truncated})"
        )


class Explorer:
    """Breadth-first exploration of an ASM machine."""

    def __init__(self, machine: AsmMachine,
                 config: Optional[ExplorationConfig] = None):
        self.machine = machine
        self.config = config or ExplorationConfig()

    def _project(self, snapshot: tuple) -> tuple:
        projection = self.config.state_projection
        if projection is None:
            return snapshot
        as_dict = dict(snapshot)
        return tuple((name, as_dict[name]) for name in projection)

    def explore(self) -> ExplorationResult:
        """Run the exploration; the machine is reset first and left in its
        initial state afterwards."""
        machine = self.machine
        config = self.config
        start = time.perf_counter()
        machine.reset()
        fsm = Fsm()
        initial_snapshot = machine.snapshot()
        initial_key = self._project(initial_snapshot)
        index: dict[tuple, int] = {initial_key: fsm.add_state(initial_snapshot)}
        queue: deque[tuple[tuple, int, int]] = deque(
            [(initial_snapshot, 0, 0)]
        )
        truncated = False
        reason = ""
        deadline = (
            None if config.deadline_s is None else start + config.deadline_s
        )
        num_transitions = 0
        while queue:
            if deadline is not None and time.perf_counter() > deadline:
                truncated = True
                reason = "deadline"
                break
            snapshot, state_id, depth = queue.popleft()
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
                succ_key = self._project(succ_snapshot)
                succ_id = index.get(succ_key)
                if succ_id is None:
                    if (
                        config.max_states is not None
                        and len(index) >= config.max_states
                    ):
                        truncated = True
                        reason = reason or "bounds"
                        continue
                    succ_id = fsm.add_state(succ_snapshot)
                    index[succ_key] = succ_id
                    queue.append((succ_snapshot, succ_id, depth + 1))
                fsm.add_transition(state_id, action.label, succ_id, action)
                num_transitions += 1
        machine.reset()
        fsm.complete = not truncated
        elapsed = time.perf_counter() - start
        return ExplorationResult(fsm, elapsed, truncated, reason)
