"""ASM model diagnostics: dead ``require`` guards and conflicting updates.

Both rules run over one bounded breadth-first sweep of the machine's
reachable states -- a :class:`~repro.asm.exploration.StateWalk`
(interleaving semantics, every enabled action fired once, capped by
:attr:`~repro.lint.diagnostics.LintConfig.asm_state_cap`) whose edges,
with their update sets, are read as the walk hands them over:

* a rule whose ``require`` guard never holds for any argument combination
  in any swept state is dead -- the conformance and model-checking runs
  silently never exercise it;
* two rules enabled in the same state whose update sets assign different
  values to one location would collide under ASM parallel (``do in
  parallel``) composition -- the update-consistency violation the paper's
  ASM semantics forbids.  An action whose effect itself raises
  :class:`~repro.asm.machine.UpdateConflict` is reported the same way.

Rule ids
--------
``asm-unsat-require``        rule enabled in no swept reachable state
``asm-conflicting-updates``  co-enabled rules write one location differently
"""

from __future__ import annotations

from itertools import combinations

from ..asm.exploration import ExplorationConfig, StateWalk
from .diagnostics import ERROR
from .manager import LintContext, Pass

__all__ = ["AsmRulesPass"]


class AsmRulesPass(Pass):
    """Dead-rule and update-conflict detection over the state sweep.

    The result's ``snapshots`` are the swept states in BFS order, which
    :class:`~repro.lint.sat_rules.AsmSatRequirePass` re-reads."""

    name = "asm-rules"

    def run(self, ctx: LintContext):
        machine = ctx.machine
        if machine is None:
            return None
        saved = machine.snapshot()
        walk = StateWalk(machine, ExplorationConfig(
            max_states=ctx.config.asm_state_cap, max_transitions=None))
        ever_enabled: set[str] = set()
        conflicts_seen: set[tuple] = set()
        broken_effects: set[str] = set()
        expanding = None
        updates: list = []  # (action, update set) of the expanding state

        def check_pairs() -> None:
            for (act_a, upd_a), (act_b, upd_b) in combinations(updates, 2):
                if act_a.rule is act_b.rule:
                    continue  # interleaved alternatives, never one step
                pair = tuple(sorted((act_a.rule.name, act_b.rule.name)))
                if pair in conflicts_seen:
                    continue
                clash = sorted(
                    var for var in upd_a.keys() & upd_b.keys()
                    if upd_a[var] != upd_b[var]
                )
                if clash:
                    conflicts_seen.add(pair)
                    ctx.emit(
                        "asm-conflicting-updates", ERROR,
                        f"{machine.name}.{pair[0]}+{pair[1]}",
                        f"co-enabled rules {pair[0]} and {pair[1]} write "
                        f"different values to {', '.join(clash)} "
                        f"(e.g. {act_a.label} vs {act_b.label}); parallel "
                        "composition would violate update consistency",
                        fix_hint="make the guards mutually exclusive or "
                                 "reconcile the update sets",
                    )
            updates.clear()

        def step(node, action, applied, snapshot):
            nonlocal expanding
            if node is not expanding:
                check_pairs()
                expanding = node
            ever_enabled.add(action.rule.name)
            if snapshot is None:
                if action.rule.name not in broken_effects:
                    broken_effects.add(action.rule.name)
                    ctx.emit(
                        "asm-conflicting-updates", ERROR,
                        f"{machine.name}.{action.rule.name}",
                        f"action {action.label} cannot compute a "
                        f"consistent update set: {applied}",
                        fix_hint="make the rule's effect produce one "
                                 "value per location",
                    )
                return False
            updates.append((action, applied))
            walk.admit(node, action, snapshot)
            return False

        walk.run(step)
        check_pairs()
        machine.restore(saved)

        snapshots = [node.snapshot for node in walk.nodes]
        capped = bool(walk.truncated_reason)
        for rule in machine.rules:
            if rule.name in ever_enabled:
                continue
            scope = (f"the first {len(snapshots)} reachable states"
                     if capped else
                     f"all {len(snapshots)} reachable states")
            ctx.emit(
                "asm-unsat-require", ERROR,
                f"{machine.name}.{rule.name}",
                f"require guard holds for no argument combination in "
                f"{scope}; the rule is dead",
                fix_hint="fix the guard or delete the rule",
            )
        return {
            "states": len(snapshots),
            "capped": capped,
            "rules_enabled": sorted(ever_enabled),
            "snapshots": snapshots,
        }
