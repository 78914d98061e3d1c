"""Supervised shard execution: plan, retry, quarantine, reap, journal, resume.

This is the one fan-out of :mod:`repro.par`: every parallel caller (the
fault campaign, coverage testgen, MC sweeps, the flow, the coverage CLI)
plans its work with :func:`plan_shards` and runs it with
:func:`run_supervised`.  A long-lived verification service needs
per-shard containment: a worker that segfaults on one poisoned shard
must not drag thirty healthy shards back to sequential execution, a
hung shard must be *killed* (not politely cancelled) and retried, and a
coordinator restart must resume from durable state instead of
recomputing finished shards.

:func:`plan_shards` turns a work list into at most ``jobs`` shards with
a stable greedy longest-processing-time packing: items are considered in
descending weight (ties broken by original position) and each goes to
the currently lightest shard (ties broken by shard index).  Equal inputs
always produce equal plans, and within a shard the original submission
order is preserved -- both facts the determinism tests rely on.

:func:`run_supervised` manages one worker
:class:`multiprocessing.Process` per in-flight shard (a shard plan has
at most ``jobs`` shards, so this costs one process per shard while
making per-shard kill possible):

* **retry with backoff** -- a shard whose worker raises, crashes, or
  exceeds ``shard_deadline_s`` is re-attempted up to ``max_attempts``
  times, after an exponential backoff with deterministic jitter
  (hash-derived from ``(seed, shard, attempt)``, so two coordinators
  never thunder in lockstep yet tests replay exactly);
* **quarantine** -- a shard that fails every attempt yields a
  structured :class:`ShardError` result (``stats.quarantined`` records
  the index) while every other shard completes normally: a poisoned
  shard degrades the run, it never aborts it;
* **reaping** -- a shard still running at its deadline has its worker
  process killed (``stats.killed_workers``), immediately freeing the
  slot; cancelled-but-running CPU burners cannot exist;
* **out-of-order collection** -- ``on_result`` fires the moment any
  shard lands, so checkpoint hooks never queue behind a slow shard 0;
* **write-ahead journal** -- with ``journal=`` every collected result
  is durably appended before the next scheduling decision; a killed
  coordinator re-running the same call replays the journal
  (``stats.journal_hits``), refires ``on_result`` for replayed shards,
  and computes only what was never collected.  Results being
  deterministic, the resumed run's merged output is bit-identical to an
  undisturbed one.

Retries never change *what* is computed -- a shard's task and args are
immutable across attempts -- so verdict content is attempt-count
invariant; only the timing fields of :class:`ParStats` differ.
``jobs <= 1`` applies the same retry/quarantine/journal ladder inline
(no per-shard deadline: a coordinator cannot kill itself).  When the
process machinery itself is unavailable (no fork, no queue), the
unresolved shards finish inline (``mode="pool+inline"``); an exception
raised by the caller's ``on_result`` always propagates unchanged.

Per-shard wall-clock is measured *inside* the worker, so
:class:`ParStats` reports honest compute times: ``critical_path_s`` is
the longest shard and ``speedup_estimate`` the speedup the plan would
deliver given at least ``jobs`` free cores.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections import deque
from queue import Empty
from typing import Callable, Optional, Sequence

from .seeds import derive_seed

__all__ = ["ParStats", "ShardError", "backoff_delay", "plan_shards",
           "run_supervised"]

#: how long a dead worker gets to flush a late result from its queue
#: feeder thread before the coordinator declares the shard crashed
_CRASH_GRACE_S = 0.25

#: coordinator poll quantum (queue waits and liveness checks)
_POLL_S = 0.02

#: retry backoff: base delay before the second attempt, doubling per
#: attempt up to the cap (see :func:`backoff_delay`)
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0


def plan_shards(
    items: Sequence,
    jobs: int,
    weight: Optional[Callable[[object], float]] = None,
) -> list[list]:
    """Pack ``items`` into at most ``jobs`` shards, deterministically.

    With no ``weight`` every item counts 1 (round-robin-like balance);
    with one, the classic greedy LPT heuristic keeps the heaviest items
    spread across shards, which is what makes the 4-bank fault campaign
    scale (three ASM faults carry ~70% of its cost).  Empty shards are
    dropped.  ``jobs <= 1`` returns a single shard with the original
    order.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [items] if items else []
    n_shards = min(jobs, len(items))
    weights = [1.0 if weight is None else float(weight(it)) for it in items]
    order = sorted(range(len(items)), key=lambda i: (-weights[i], i))
    loads = [0.0] * n_shards
    assigned: list[list[int]] = [[] for __ in range(n_shards)]
    for i in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += weights[i]
        assigned[target].append(i)
    # preserve submission order within each shard
    return [
        [items[i] for i in sorted(shard)] for shard in assigned if shard
    ]


class ParStats:
    """Execution accounting of one :func:`run_supervised` call."""

    def __init__(self, jobs: int, shards: int):
        self.jobs = jobs
        self.shards = shards
        #: "inline" | "pool" | "pool+inline" (degraded mid-flight)
        self.mode = "inline"
        #: why the pool was abandoned, when it was
        self.fallback_reason: Optional[str] = None
        #: worker-measured wall-clock per shard (shard order)
        self.shard_wall_s: list[float] = []
        #: shard indices never collected before ``timeout_s`` expired
        self.timed_out: list[int] = []
        #: overall wall-clock of the run_supervised call
        self.wall_s = 0.0
        #: shard attempts beyond the first
        self.retries = 0
        #: shard indices quarantined after exhausting their attempt
        #: budget (each has a ShardError result)
        self.quarantined: list[int] = []
        #: worker processes forcibly terminated (hung-shard reaping and
        #: overall-timeout cleanup)
        self.killed_workers = 0
        #: shards answered from a write-ahead journal instead of being
        #: recomputed (resume)
        self.journal_hits = 0

    @property
    def critical_path_s(self) -> float:
        """The longest shard: the plan's lower bound on wall-clock."""
        return max(self.shard_wall_s, default=0.0)

    @property
    def total_shard_s(self) -> float:
        """Sum of per-shard compute (the sequential-equivalent cost)."""
        return sum(self.shard_wall_s)

    @property
    def speedup_estimate(self) -> float:
        """Speedup the shard plan supports given >= ``jobs`` free cores
        (sequential-equivalent over critical path; 1.0 when degenerate)."""
        critical = self.critical_path_s
        if critical <= 0.0:
            return 1.0
        return self.total_shard_s / critical

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "shards": self.shards,
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "shard_wall_s": [round(s, 4) for s in self.shard_wall_s],
            "timed_out": list(self.timed_out),
            "wall_s": round(self.wall_s, 4),
            "critical_path_s": round(self.critical_path_s, 4),
            "speedup_estimate": round(self.speedup_estimate, 3),
            "retries": self.retries,
            "quarantined": list(self.quarantined),
            "killed_workers": self.killed_workers,
            "journal_hits": self.journal_hits,
        }

    def __repr__(self):
        return (
            f"ParStats(jobs={self.jobs}, shards={self.shards}, "
            f"mode={self.mode}, wall={self.wall_s:.2f}s)"
        )


def _timed_call(task, args) -> tuple[float, object]:
    """Worker-side wrapper: execute and measure one shard."""
    start = time.perf_counter()
    value = task(*args)
    return time.perf_counter() - start, value


def _mp_context():
    """Fork when the platform has it (cheap warm-start: workers inherit
    loaded modules), otherwise the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _PoolUnavailable(Exception):
    """The process machinery itself failed (no fork, no queue): the only
    error that finishes a supervised run inline instead of raising."""

    def __init__(self, cause: Exception):
        super().__init__(f"{type(cause).__name__}: {cause}")


class ShardError:
    """The structured result of a quarantined shard.

    Callers receive this *in place of* the shard's value, so a poisoned
    shard is data, not control flow: the fault campaign turns it into
    per-fault ``error`` verdicts, the MC sweep into an inconclusive
    property, the testgen loop into an inline re-score.
    """

    def __init__(self, index: int, attempts: int, kind: str, detail: str):
        self.index = index
        self.attempts = attempts
        #: "exception" (task raised), "crash" (worker died), or
        #: "deadline" (shard exceeded shard_deadline_s and was killed)
        self.kind = kind
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "shard_error": True,
            "index": self.index,
            "attempts": self.attempts,
            "kind": self.kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardError":
        return cls(data["index"], data["attempts"], data["kind"],
                   data["detail"])

    def __repr__(self):
        return (f"ShardError(shard {self.index}: {self.kind} after "
                f"{self.attempts} attempt(s))")


def backoff_delay(seed: int, index: int, attempt: int,
                  base_s: float, max_s: float) -> float:
    """The sleep before re-attempting shard ``index`` (``attempt`` >= 2):
    exponential in the attempt number, capped at ``max_s``, scaled by a
    deterministic jitter in [0.5, 1.5) hash-derived from the identifying
    triple -- reproducible, yet decorrelated across shards and runs."""
    jitter = 0.5 + derive_seed(seed, "backoff", index, attempt) / 2.0**63
    return min(max_s, base_s * 2.0 ** (attempt - 2)) * jitter


def _supervised_worker(result_q, index: int, attempt: int, task, args,
                       initializer, initargs) -> None:
    """One shard attempt in its own process: run, report, exit.  Any
    exception -- including in the initializer -- reports as a structured
    error message; only the coordinator decides retry vs quarantine."""
    try:
        if initializer is not None:
            initializer(*initargs)
        wall, value = _timed_call(task, args)
        result_q.put(("ok", index, attempt, wall, value))
    except BaseException as exc:  # noqa: BLE001 - containment boundary
        try:
            result_q.put(("error", index, attempt, 0.0,
                          f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - queue torn down
            pass


class _Supervisor:
    """Coordinator state of one :func:`run_supervised` call."""

    def __init__(self, task, shard_args, jobs, initializer, initargs,
                 timeout_s, shard_deadline_s, max_attempts, seed,
                 on_result, journal, journal_fingerprint):
        self.task = task
        self.shard_args = [tuple(args) for args in shard_args]
        self.jobs = jobs
        self.initializer = initializer
        self.initargs = initargs
        self.shard_deadline_s = shard_deadline_s
        self.max_attempts = max(1, max_attempts)
        self.seed = seed
        self.on_result = on_result
        self.journal = journal
        self.journal_fingerprint = journal_fingerprint or {}
        self.stats = ParStats(jobs, len(self.shard_args))
        self.start = time.perf_counter()
        self.deadline = (None if timeout_s is None
                         else self.start + timeout_s)
        n = len(self.shard_args)
        self.results: list = [None] * n
        self.resolved = [False] * n  # collected, quarantined or journaled
        self.attempts = [0] * n
        self.stats.shard_wall_s = [0.0] * n

    # -- shared resolution paths --------------------------------------
    def _backoff(self, index: int) -> float:
        """The sleep before shard ``index``'s next attempt."""
        return backoff_delay(self.seed, index, self.attempts[index] + 1,
                             BACKOFF_BASE_S, BACKOFF_MAX_S)

    def _collect(self, index: int, wall: float, value,
                 from_journal: bool = False) -> None:
        self.results[index] = value
        self.resolved[index] = True
        self.stats.shard_wall_s[index] = wall
        if from_journal:
            self.stats.journal_hits += 1
        elif self.journal is not None:
            self.journal.append({
                "type": "shard", "index": index, "wall": wall,
                "value": value,
            })
        if self.on_result is not None:
            self.on_result(index, value)

    def _quarantine(self, index: int, kind: str, detail: str) -> None:
        error = ShardError(index, self.attempts[index], kind, detail)
        self.results[index] = error
        self.resolved[index] = True
        self.stats.quarantined.append(index)
        if self.journal is not None:
            self.journal.append({
                "type": "quarantine", "index": index,
                "value": error.to_dict(),
            })

    def _replay_journal(self) -> None:
        """Adopt every intact shard record of a matching journal; write
        the header on a fresh one.  A journal written for different work
        is ignored wholesale (fingerprint guard)."""
        if self.journal is None:
            return
        records = list(self.journal.replay())
        if not records:
            self.journal.append({
                "type": "header",
                "fingerprint": self.journal_fingerprint,
                "shards": len(self.shard_args),
            })
            return
        header = records[0]
        if (header.get("type") != "header"
                or header.get("fingerprint") != self.journal_fingerprint
                or header.get("shards") != len(self.shard_args)):
            warnings.warn(
                "supervised journal was written for different work "
                "(fingerprint/shard-count mismatch); ignoring it and "
                "running without journaling",
                stacklevel=2,
            )
            self.journal = None
            return
        for record in records[1:]:
            index = record.get("index")
            if not isinstance(index, int) or not (
                    0 <= index < len(self.shard_args)):
                continue
            if self.resolved[index]:
                continue
            if record.get("type") == "shard":
                self._collect(index, float(record.get("wall", 0.0)),
                              record.get("value"), from_journal=True)
            elif record.get("type") == "quarantine":
                # a quarantined shard is retried by the resumed run: the
                # failure may have been environmental (journal replays
                # it as *pending*, not as a verdict)
                continue

    # -- inline execution (jobs <= 1) ---------------------------------
    def run_inline(self) -> None:
        if self.initializer is not None:
            self.initializer(*self.initargs)
        for index in range(len(self.shard_args)):
            if self.resolved[index]:
                continue
            if (self.deadline is not None
                    and time.perf_counter() > self.deadline):
                self.stats.timed_out.append(index)
                continue
            while True:
                self.attempts[index] += 1
                try:
                    wall, value = _timed_call(
                        self.task, self.shard_args[index])
                except Exception as exc:  # noqa: BLE001 - retry ladder
                    if self.attempts[index] >= self.max_attempts:
                        self._quarantine(
                            index, "exception",
                            f"{type(exc).__name__}: {exc}")
                        break
                    self.stats.retries += 1
                    time.sleep(self._backoff(index))
                else:
                    self._collect(index, wall, value)
                    break

    # -- pool execution -----------------------------------------------
    def run_pool(self) -> None:
        try:
            ctx = _mp_context()
            result_q = ctx.Queue()
        except Exception as exc:
            raise _PoolUnavailable(exc) from exc
        #: (index, eligible_at) of shards waiting for a worker slot
        pending = deque(
            (index, 0.0) for index in range(len(self.shard_args))
            if not self.resolved[index]
        )
        #: proc -> (index, attempt, started_at, dead_since or None)
        running: dict = {}
        workers = max(1, self.jobs)

        def spawn(index: int) -> None:
            attempt = self.attempts[index] + 1
            proc = ctx.Process(
                target=_supervised_worker,
                args=(result_q, index, attempt, self.task,
                      self.shard_args[index], self.initializer,
                      self.initargs),
                daemon=True,
            )
            try:
                proc.start()
            except Exception as exc:
                raise _PoolUnavailable(exc) from exc
            self.attempts[index] = attempt
            running[proc] = [index, attempt, time.perf_counter(), None]

        def release(proc) -> None:
            running.pop(proc, None)
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - stuck exiting
                proc.kill()
                proc.join(timeout=1.0)

        def retry_or_quarantine(index: int, kind: str,
                                detail: str) -> None:
            if self.resolved[index]:
                return
            if self.attempts[index] >= self.max_attempts:
                self._quarantine(index, kind, detail)
                return
            self.stats.retries += 1
            eligible = time.perf_counter() + self._backoff(index)
            pending.append((index, eligible))

        def drain(block_s: float = 0.0) -> bool:
            """Pull every available worker message; True if any."""
            got = False
            timeout = block_s
            while True:
                try:
                    message = result_q.get(
                        timeout=timeout) if timeout else result_q.get_nowait()
                except Empty:
                    return got
                except Exception as exc:
                    raise _PoolUnavailable(exc) from exc
                got, timeout = True, 0.0
                status, index, attempt, wall, value = message
                owner = next(
                    (p for p, state in running.items()
                     if state[0] == index and state[1] == attempt), None)
                if owner is not None:
                    release(owner)
                if self.resolved[index]:
                    continue  # stale attempt beaten by journal/quarantine
                if status == "ok":
                    self._collect(index, wall, value)
                else:
                    retry_or_quarantine(index, "exception", value)

        try:
            while not all(self.resolved):
                now = time.perf_counter()
                # overall deadline: kill everything still running, mark
                # the unresolved shards timed out (None results)
                if self.deadline is not None and now > self.deadline:
                    for proc in list(running):
                        if proc.is_alive():
                            proc.kill()
                            self.stats.killed_workers += 1
                        release(proc)
                    for index in range(len(self.shard_args)):
                        if not self.resolved[index]:
                            self.stats.timed_out.append(index)
                    break
                # reap shards past their per-shard deadline
                if self.shard_deadline_s is not None:
                    for proc, state in list(running.items()):
                        index, attempt, started, __ = state
                        if now - started > self.shard_deadline_s:
                            if proc.is_alive():
                                proc.kill()
                                self.stats.killed_workers += 1
                            release(proc)
                            drain()  # a result may have raced the kill
                            retry_or_quarantine(
                                index, "deadline",
                                f"shard exceeded its "
                                f"{self.shard_deadline_s}s deadline")
                # declare crashed workers (dead, no result after grace)
                for proc, state in list(running.items()):
                    if proc.is_alive():
                        continue
                    if state[3] is None:
                        state[3] = now
                        continue
                    if now - state[3] < _CRASH_GRACE_S:
                        continue
                    drain()
                    if proc not in running:  # drain released it
                        continue
                    index = state[0]
                    release(proc)
                    retry_or_quarantine(
                        index, "crash",
                        f"worker exited with code {proc.exitcode} "
                        "before reporting a result")
                # fill free slots with eligible pending shards
                for __ in range(len(pending)):
                    if len(running) >= workers:
                        break
                    index, eligible = pending[0]
                    if self.resolved[index]:
                        pending.popleft()
                        continue
                    if eligible > now:
                        pending.rotate(-1)
                        continue
                    pending.popleft()
                    spawn(index)
                drain(block_s=_POLL_S)
            self.stats.mode = "pool"
        finally:
            for proc in list(running):
                if proc.is_alive():  # pragma: no cover - abnormal exit
                    proc.kill()
                proc.join(timeout=1.0)
            result_q.close()
            result_q.cancel_join_thread()


def run_supervised(
    task: Callable,
    shard_args: Sequence[tuple],
    *,
    jobs: int = 1,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    timeout_s: Optional[float] = None,
    shard_deadline_s: Optional[float] = None,
    max_attempts: int = 2,
    seed: int = 0,
    on_result: Optional[Callable[[int, object], None]] = None,
    journal=None,
    journal_fingerprint: Optional[dict] = None,
) -> tuple[list, ParStats]:
    """Run ``task(*args)`` per shard under supervision (see module doc).

    Returns ``(results, stats)`` in shard order: each entry is the
    task's value, a :class:`ShardError` (quarantined after
    ``max_attempts``), or ``None`` (abandoned by ``timeout_s``,
    recorded in ``stats.timed_out``).  ``on_result(index, value)``
    fires in completion order the moment a shard lands -- including
    once per shard replayed from ``journal``.  An exception raised by
    ``on_result`` propagates unchanged (in-flight workers are killed);
    it never triggers the inline fallback.

    ``journal`` is any object with ``append(dict)`` and ``replay()``
    (:class:`repro.serve.journal.Journal`); journaled values must be
    JSON-serializable -- note JSON turns tuples into lists, so resumed
    and fresh results agree only for JSON-shaped payloads, which all
    repro.par worker tasks return.  ``journal_fingerprint`` guards the
    journal against resuming different work.
    """
    supervisor = _Supervisor(
        task, shard_args, jobs, initializer, initargs, timeout_s,
        shard_deadline_s, max_attempts, seed, on_result, journal,
        journal_fingerprint,
    )
    supervisor._replay_journal()
    if not supervisor.shard_args or all(supervisor.resolved):
        pass
    elif jobs <= 1 or len(supervisor.shard_args) <= 1:
        supervisor.run_inline()
    else:
        try:
            supervisor.run_pool()
        except _PoolUnavailable as exc:
            # the process machinery failed (fork refusal, queue
            # teardown): finish the unresolved shards inline instead of
            # aborting.  Worker failures never get here -- they are
            # contained per shard -- and an exception from the caller's
            # on_result is not caught at all
            supervisor.stats.mode = "pool+inline"
            supervisor.stats.fallback_reason = str(exc)
            supervisor.run_inline()
    supervisor.stats.timed_out.sort()
    supervisor.stats.quarantined.sort()
    supervisor.stats.wall_s = time.perf_counter() - supervisor.start
    return supervisor.results, supervisor.stats
