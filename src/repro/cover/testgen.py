"""Coverage-driven test generation: rank candidates by incremental gain.

The paper's AsmL workflow generates tests from the explored FSM and
admits "the test suite ... usually does not cover all possible states
and transitions".  This module closes the loop with coverage feedback:
candidate stimulus comes from
:func:`repro.asm.testgen.random_walk`, and each round the
candidate that newly covers the most ASM coverage points (rules plus
state predicates, :mod:`repro.cover.asm_cov`) is admitted to the suite.
The loop stops at a coverage target or after a configurable number of
gainless rounds (plateau) -- whichever comes first.

:func:`undirected_suite` runs the same number of walks *without*
selection, which is the baseline the tests compare against: directed
selection must reach strictly higher coverage for the same test budget
on the 2-bank model.

Both suites also drive *lane-parallel* stimulus vehicles: a machine may
expose the duck-typed hooks ``walk_case(walk_seed, walk_steps)``,
``score_walks(walk_seeds, walk_steps, db, lanes=)``,
``walk_dbs(walk_seeds, walk_steps, lanes=)`` and ``admit_walk(case,
db)`` -- :class:`repro.cover.rtl_walk.RtlWalkModel` does -- and the
loop then scores up to ``lanes`` candidates per bit-parallel simulation
pass instead of replaying them one at a time.  Machines without the
hooks (the ASM model has no lane encoding) silently ignore ``lanes``
and keep the original replay path; either way the selected suite is
lane-count independent.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..asm.machine import Action, AsmMachine
from ..asm.testgen import random_walk
from ..par.seeds import derive_seed
from .asm_cov import AsmCoverage, Predicate
from .db import CoverageDB

__all__ = ["CoverageDrivenResult", "coverage_driven_suite",
           "undirected_suite", "replay_coverage"]


def _walk_seed(seed: int, stream: str, round_index: int,
               walk_index: int) -> int:
    """The per-walk seed stream: hash-split from the suite seed so every
    candidate walk is reproducible in isolation -- the property that
    lets ``jobs=N`` workers regenerate exactly the walk a ``jobs=1`` run
    would have drawn, independent of batch sizes or shard boundaries.
    (The old ``seed + 7919 * round`` arithmetic collided across nearby
    seeds and tied a walk's stream to its batch position.)"""
    return derive_seed(seed, "testgen", stream, round_index, walk_index)


def replay_coverage(
    machine: AsmMachine,
    case: list[Action],
    predicates: Mapping[str, Predicate],
    db: Optional[CoverageDB] = None,
) -> CoverageDB:
    """Replay a from-reset action sequence and harvest its ASM coverage
    into ``db`` (fresh DB by default).  Leaves the machine reset."""
    db = db if db is not None else CoverageDB()
    collector = AsmCoverage(machine, predicates)
    try:
        machine.reset()
        for action in case:
            machine.fire(action)
    finally:
        collector.detach()
        machine.reset()
    collector.harvest(db)
    return db


class CoverageDrivenResult:
    """Outcome of the coverage-driven selection loop."""

    def __init__(self, selected: list[list[Action]], db: CoverageDB,
                 history: list[float], reached_target: bool,
                 plateaued: bool, candidates_scored: int):
        self.selected = selected
        self.db = db
        self.history = history
        self.reached_target = reached_target
        self.plateaued = plateaued
        self.candidates_scored = candidates_scored

    @property
    def coverage(self) -> float:
        """Final coverage fraction of the accumulated DB."""
        return self.db.coverage()

    @property
    def num_tests(self) -> int:
        """Number of selected test sequences."""
        return len(self.selected)

    def __repr__(self):
        stop = ("target" if self.reached_target
                else "plateau" if self.plateaued else "budget")
        return (
            f"CoverageDrivenResult({self.num_tests} tests, "
            f"{self.coverage:.1%}, stop={stop})"
        )


def _walk_case(machine, walk_seed: int, walk_steps: int):
    """One candidate's concrete test case: the machine's ``walk_case``
    hook (lane-parallel vehicles) or an ASM random walk."""
    hook = getattr(machine, "walk_case", None)
    if hook is not None:
        return hook(walk_seed, walk_steps)
    return random_walk(machine, walk_steps, seed=walk_seed)


def _admit_case(machine, predicates, case, db: CoverageDB) -> CoverageDB:
    """Fold one selected case's coverage into ``db`` via the machine's
    ``admit_walk`` hook or the ASM replay path."""
    hook = getattr(machine, "admit_walk", None)
    if hook is not None:
        return hook(case, db)
    return replay_coverage(machine, case, predicates, db)


def _score_round(
    machine: AsmMachine,
    predicates: Mapping[str, Predicate],
    db: CoverageDB,
    walk_seeds: list[int],
    walk_steps: int,
    jobs: int,
    model_spec,
    lanes: int = 1,
) -> list[int]:
    """Score one round's candidate walks: newly covered points on top of
    the accumulated ``db``, in candidate order.

    A machine with a ``score_walks`` hook scores candidates itself
    (lane-parallel vehicles pack ``lanes`` of them per simulation
    pass); with ``jobs > 1`` and a ``model_spec`` its candidates are
    additionally sharded over the supervised process pool
    (:func:`repro.par.workers.testgen_lane_score_shard` -- each worker
    rebuilds the vehicle and scores its shard lane-parallel, so process
    fan-out multiplies with lane fan-out).  Machines without the hook
    fan out through :func:`repro.par.workers.testgen_score_shard`; each
    worker regenerates its walks from the per-walk seeds and replays
    them against a snapshot of the DB, so only ``(index, gain)`` pairs
    cross the pipe.  Either way, a worker that crashes or hangs is
    retried; a shard quarantined after its attempt budget is re-scored
    inline, so the selected suite is bit-identical to ``jobs=1`` under
    any fault the supervisor can contain.  The inline paths score
    against clones with identical arithmetic, which is what the
    determinism tests check.
    """
    score_walks = getattr(machine, "score_walks", None)
    if score_walks is not None:
        if jobs > 1 and model_spec is not None and len(walk_seeds) > 1:
            from ..par import ShardError, plan_shards, run_supervised
            from ..par.workers import testgen_init, testgen_lane_score_shard

            candidates = list(enumerate(walk_seeds))
            shards = plan_shards(candidates, jobs)
            db_dict = db.to_dict()
            results, __ = run_supervised(
                testgen_lane_score_shard,
                [(model_spec, db_dict, shard, walk_steps, lanes)
                 for shard in shards],
                jobs=jobs,
                initializer=testgen_init,
                initargs=(model_spec,),
            )
            gains = [0] * len(walk_seeds)
            for shard, pairs in zip(shards, results):
                if pairs is None or isinstance(pairs, ShardError):
                    # quarantined or abandoned shard: re-score on the
                    # local machine (per-walk DBs are lane-position and
                    # chunking independent, so gains match the worker's)
                    pairs = [
                        (index, gain) for (index, __), gain in zip(
                            shard,
                            score_walks([s for __, s in shard],
                                        walk_steps, db, lanes=lanes),
                        )
                    ]
                for index, gain in pairs:
                    gains[index] = gain
            return gains
        return score_walks(walk_seeds, walk_steps, db, lanes=lanes)
    if jobs > 1 and model_spec is not None and len(walk_seeds) > 1:
        from ..par import ShardError, plan_shards, run_supervised
        from ..par.workers import testgen_init, testgen_score_shard

        candidates = list(enumerate(walk_seeds))
        shards = plan_shards(candidates, jobs)
        db_dict = db.to_dict()
        results, __ = run_supervised(
            testgen_score_shard,
            [(model_spec, db_dict, shard, walk_steps) for shard in shards],
            jobs=jobs,
            initializer=testgen_init,
            initargs=(model_spec,),
        )
        gains = [0] * len(walk_seeds)
        for shard, pairs in zip(shards, results):
            if pairs is None or isinstance(pairs, ShardError):
                # quarantined or abandoned shard: re-score inline so the
                # selected suite stays bit-identical to jobs=1 (a
                # deterministic failure then raises here, exactly as the
                # sequential run would have)
                pairs = testgen_score_shard(
                    model_spec, db_dict, shard, walk_steps)
            for index, gain in pairs:
                gains[index] = gain
        return gains
    base_covered = db.counts()[0]
    gains = []
    for walk_seed in walk_seeds:
        case = random_walk(machine, walk_steps, seed=walk_seed)
        trial = replay_coverage(machine, case, predicates, db.clone())
        gains.append(trial.counts()[0] - base_covered)
    return gains


def coverage_driven_suite(
    machine: AsmMachine,
    predicates: Mapping[str, Predicate],
    target: float = 1.0,
    max_tests: int = 16,
    candidates_per_round: int = 8,
    walk_steps: int = 16,
    seed: int = 0,
    plateau_rounds: int = 3,
    jobs: int = 1,
    model_spec=None,
    lanes: int = 1,
) -> CoverageDrivenResult:
    """Greedy coverage-feedback selection of random-walk tests.

    Each round draws ``candidates_per_round`` fresh random walks (each
    from its own hash-derived seed), scores every candidate by how many
    *new* points it would cover on top of the accumulated DB (replayed
    against a clone), admits the best gainer (lowest candidate index on
    ties), and re-harvests it into the real DB.  Stops when coverage
    reaches ``target``, after ``plateau_rounds`` consecutive rounds with
    zero gain, or at ``max_tests``.

    ``jobs > 1`` parallelizes the candidate scoring of each round across
    a process pool; the greedy selection itself stays serial (each round
    depends on the previous round's DB).  Because candidates are seeded
    individually, the selected suite, DB and history are identical to a
    ``jobs=1`` run.  Parallel scoring needs a picklable ``model_spec``
    (e.g. :func:`repro.par.workers.la1_model_spec`) so workers can
    rebuild the machine; without one, scoring stays inline.

    ``lanes > 1`` asks a lane-parallel vehicle (a machine with the
    ``score_walks`` hook) to pack that many candidates into one
    bit-parallel pass; machines without the hook ignore it.
    """
    db = CoverageDB(meta={"generator": "coverage_driven", "seed": seed})
    selected: list[list[Action]] = []
    history: list[float] = []
    gainless = 0
    scored = 0
    round_index = 0
    while len(selected) < max_tests:
        if db.coverage() >= target and len(db):
            return CoverageDrivenResult(
                selected, db, history, True, False, scored)
        walk_seeds = [
            _walk_seed(seed, "round", round_index, i)
            for i in range(candidates_per_round)
        ]
        round_index += 1
        gains = _score_round(machine, predicates, db, walk_seeds,
                             walk_steps, jobs, model_spec, lanes)
        scored += len(gains)
        if not gains:
            break
        best_gain = max(gains)
        best_index = gains.index(best_gain)
        if best_gain <= 0 and len(db):
            gainless += 1
            if gainless >= plateau_rounds:
                return CoverageDrivenResult(
                    selected, db, history, False, True, scored)
            continue  # gainless round: do not spend test budget on it
        gainless = 0
        best_case = _walk_case(machine, walk_seeds[best_index], walk_steps)
        _admit_case(machine, predicates, best_case, db)
        selected.append(best_case)
        history.append(db.coverage())
    reached = db.coverage() >= target and bool(len(db))
    return CoverageDrivenResult(selected, db, history, reached, False, scored)


def undirected_suite(
    machine: AsmMachine,
    predicates: Mapping[str, Predicate],
    num_tests: int,
    walk_steps: int = 16,
    seed: int = 0,
    jobs: int = 1,
    model_spec=None,
    lanes: int = 1,
) -> CoverageDrivenResult:
    """The unranked baseline: ``num_tests`` random walks replayed in
    generation order with no coverage feedback.

    With ``jobs > 1`` and a ``model_spec`` the replays fan out over the
    process pool; each worker returns a per-walk DB and the coordinator
    merges them in walk order, which -- DB merge being lossless --
    reproduces the sequential accumulation exactly.  A lane-parallel
    vehicle (``walk_dbs`` hook) instead collects up to ``lanes``
    per-walk DBs from each bit-parallel pass, merged in the same order.
    """
    db = CoverageDB(meta={"generator": "undirected", "seed": seed})
    walk_seeds = [
        _walk_seed(seed, "undirected", 0, i) for i in range(num_tests)
    ]
    walks = [
        _walk_case(machine, walk_seed, walk_steps)
        for walk_seed in walk_seeds
    ]
    history: list[float] = []
    walk_dbs = getattr(machine, "walk_dbs", None)
    if walk_dbs is not None:
        for walk_db in walk_dbs(walk_seeds, walk_steps, lanes=lanes):
            db.merge(walk_db)
            history.append(db.coverage())
        return CoverageDrivenResult(walks, db, history, False, False, 0)
    if jobs > 1 and model_spec is not None and num_tests > 1:
        from ..par import ShardError, plan_shards, run_supervised
        from ..par.workers import testgen_init, testgen_replay_shard

        candidates = list(enumerate(walk_seeds))
        shards = plan_shards(candidates, jobs)
        results, __ = run_supervised(
            testgen_replay_shard,
            [(model_spec, shard, walk_steps) for shard in shards],
            jobs=jobs,
            initializer=testgen_init,
            initargs=(model_spec,),
        )
        per_walk = {}
        for shard, pairs in zip(shards, results):
            if pairs is None or isinstance(pairs, ShardError):
                # quarantined shard: replay inline (bit-identical merge
                # order is preserved because merging happens below, in
                # walk order, from the per-walk DBs)
                pairs = testgen_replay_shard(model_spec, shard, walk_steps)
            for index, db_dict in pairs:
                per_walk[index] = CoverageDB.from_dict(db_dict)
        for index in range(num_tests):
            db.merge(per_walk[index])
            history.append(db.coverage())
        return CoverageDrivenResult(walks, db, history, False, False, 0)
    for case in walks:
        replay_coverage(machine, case, predicates, db)
        history.append(db.coverage())
    return CoverageDrivenResult(walks, db, history, False, False, 0)
