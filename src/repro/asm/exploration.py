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

:class:`StateWalk` is the one breadth-first loop over machine states: the
explorer, both PSL checkers of :mod:`repro.asm.checker` and the ASM lint
of :mod:`repro.lint.asm_rules` are per-edge step functions over it.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional, Sequence

from .fsm import Fsm
from .machine import Action, AsmError, AsmMachine

__all__ = ["ExplorationConfig", "ExplorationResult", "Explorer",
           "StateWalk", "WalkNode"]


class ExplorationConfig:
    """Bounds and filters guiding the exploration.

    Parameters
    ----------
    max_states, max_transitions, max_depth:
        Hard bounds; ``None`` means unbounded.  ``max_transitions``
        counts fired actions; a state at ``max_depth`` marks the run
        truncated only when it has an action left to fire.
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


class WalkNode:
    """One admitted state of a :class:`StateWalk`.

    ``tag`` is the consumer's product component (checker states, NFA
    runs) and takes part in state identity; ``parent`` and ``action``
    lead back to the initial state for traces.
    """

    __slots__ = ("id", "snapshot", "tag", "parent", "action", "depth")

    def __init__(self, id: int, snapshot: tuple, tag, parent, action,
                 depth: int):
        self.id = id
        self.snapshot = snapshot
        self.tag = tag
        self.parent = parent
        self.action = action
        self.depth = depth


class StateWalk:
    """Bounded breadth-first walk over a machine's reachable states.

    Construction resets the machine; :attr:`root` is its initial
    snapshot.  :meth:`run` expands admitted states in BFS order: for
    every enabled action that passes the configured filter, it restores
    the state, fires the action through :meth:`AsmMachine.fire` and
    calls ``step(node, action, updates, snapshot)``.  ``updates`` is the
    applied update set and ``snapshot`` the successor, or ``updates`` is
    the :class:`~repro.asm.machine.AsmError` the firing raised and
    ``snapshot`` is None -- what that error means is the step's choice.
    The step keeps a successor by calling :meth:`admit` and returns a
    true value to end the walk.

    The walk owns the bounds of :class:`ExplorationConfig`, the deadline,
    projected-key dedup and the parent links behind :meth:`trace`; it
    keeps nothing per edge.  :attr:`transitions` counts fired actions and
    :attr:`truncated_reason` is ``""``, ``"bounds"`` or ``"deadline"``.
    """

    def __init__(self, machine: AsmMachine, config: ExplorationConfig):
        self.machine = machine
        self.config = config
        machine.reset()
        self.root = machine.snapshot()
        self.nodes: list[WalkNode] = []
        self.transitions = 0
        self.truncated_reason = ""
        self._index: dict = {}
        self._queue: deque[WalkNode] = deque()

    def _bound_hit(self) -> None:
        self.truncated_reason = self.truncated_reason or "bounds"

    def admit(self, parent: Optional[WalkNode], action: Optional[Action],
              snapshot: tuple, tag=None) -> Optional[WalkNode]:
        """The node of state ``(snapshot, tag)`` reached from ``parent``
        by ``action``, queued for expansion when new; None when
        ``max_states`` cuts it off (the initial state is never cut)."""
        projection = self.config.state_projection
        if projection is not None:
            as_dict = dict(snapshot)
            key = (tuple((name, as_dict[name]) for name in projection), tag)
        else:
            key = (snapshot, tag)
        node = self._index.get(key)
        if node is None:
            max_states = self.config.max_states
            if (parent is not None and max_states is not None
                    and len(self.nodes) >= max_states):
                self._bound_hit()
                return None
            depth = 0 if parent is None else parent.depth + 1
            node = WalkNode(len(self.nodes), snapshot, tag, parent, action,
                            depth)
            self._index[key] = node
            self.nodes.append(node)
            self._queue.append(node)
        return node

    def run(self, step: Callable, tag=None) -> bool:
        """Walk from the initial state, tagged ``tag``; True when ``step``
        ended the walk.  The machine is left in its initial state."""
        machine = self.machine
        config = self.config
        action_filter = config.action_filter
        deadline = (None if config.deadline_s is None
                    else time.perf_counter() + config.deadline_s)
        self.admit(None, None, self.root, tag)
        queue = self._queue
        try:
            while queue:
                if deadline is not None and time.perf_counter() > deadline:
                    self.truncated_reason = "deadline"
                    return False
                node = queue.popleft()
                machine.restore(node.snapshot)
                actions = machine.enabled_actions()
                if action_filter is not None:
                    actions = [a for a in actions if action_filter(a)]
                if config.max_depth is not None and node.depth >= config.max_depth:
                    if actions:
                        self._bound_hit()
                    continue
                for action in actions:
                    if (config.max_transitions is not None
                            and self.transitions >= config.max_transitions):
                        self._bound_hit()
                        break
                    machine.restore(node.snapshot)
                    self.transitions += 1
                    try:
                        updates = machine.fire(action)
                    except AsmError as exc:
                        updates, snapshot = exc, None
                    else:
                        snapshot = machine.snapshot()
                    if step(node, action, updates, snapshot):
                        return True
            return False
        finally:
            machine.reset()

    @staticmethod
    def trace(node: WalkNode) -> list:
        """``(label, state dict)`` steps from the initial state to
        ``node``; the first label is ``"initial"``."""
        steps = []
        while node is not None:
            label = "initial" if node.action is None else node.action.label
            steps.append((label, dict(node.snapshot)))
            node = node.parent
        steps.reverse()
        return steps


class Explorer:
    """Breadth-first exploration of an ASM machine."""

    def __init__(self, machine: AsmMachine,
                 config: Optional[ExplorationConfig] = None):
        self.machine = machine
        self.config = config or ExplorationConfig()

    def explore(self) -> ExplorationResult:
        """Run the exploration; the machine is reset first and left in its
        initial state afterwards."""
        start = time.perf_counter()
        fsm = Fsm()
        walk = StateWalk(self.machine, self.config)

        def step(node, action, updates, snapshot):
            if snapshot is None:
                raise updates
            succ = walk.admit(node, action, snapshot)
            if succ is not None:
                fsm.add_transition(node.id, action.label, succ.id, action)

        walk.run(step)
        fsm.states = [node.snapshot for node in walk.nodes]
        truncated = bool(walk.truncated_reason)
        fsm.complete = not truncated
        elapsed = time.perf_counter() - start
        return ExplorationResult(fsm, elapsed, truncated,
                                 walk.truncated_reason)
