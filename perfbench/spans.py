"""Span recording around the public layer entry points of ``repro``.

The benchmark's traced run wraps a fixed list of layer entry points
(:data:`TARGETS`) from outside the program: class methods such as
``RtlSimulator.step`` and module functions such as
``run_ppsfp_batches``.  Nothing under ``src/`` changes.  Each wrapped
call is a frame on a per-thread stack:

* its *self time* is its duration minus the time of the wrapped calls
  it made, so nested layers never count twice;
* coarse targets (``record=True``) also keep one span record each --
  name, start, end, parent and round -- for the Chrome trace export;
* fine targets (``record=False``: one call per clock edge, rule firing
  or simulated delta) only add to their per-name totals, which keeps
  the trace small and the overhead low.

:func:`install` patches every ``repro.*`` module attribute and class
attribute that holds a target, and returns a handle whose ``remove()``
restores the originals.  The untimed run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import resource
import sys
import threading
import time
from typing import Callable, Optional

#: (dotted owner, attribute, span name, record?, counter hook name)
TARGETS = [
    ("repro.core.flow", "run_flow", "core.flow", True, None),
    ("repro.dsl.flow", "run_dsl_flow", "dsl.flow", True, None),
    ("repro.fault.campaign.FaultCampaign", "run", "fault.run", True,
     "fault_run"),
    ("repro.fault.ppsfp", "run_ppsfp_batches", "fault.ppsfp", True, None),
    ("repro.par.supervise", "run_supervised", "par.supervise", True,
     "par_supervise"),
    # check() delegates to check_combined(), so wrapping only the
    # latter counts each exploration once on either path
    ("repro.asm.checker.AsmModelChecker", "check_combined", "asm.explore",
     True, "asm_explore"),
    ("repro.asm.conformance", "check_conformance", "asm.conformance", True,
     "asm_conformance"),
    ("repro.asm.machine.AsmMachine", "fire", "asm.fire", False, None),
    ("repro.dsl.elab", "elaborate", "dsl.elaborate", True, None),
    ("repro.dsl.elab.RtlDslImplementation", "apply", "dsl.impl_rtl", False,
     None),
    ("repro.dsl.elab.RtlDslImplementation", "observe", "dsl.impl_rtl",
     False, None),
    ("repro.dsl.elab.RtlDslImplementation", "reset", "dsl.impl_rtl", False,
     None),
    ("repro.dsl.elab.SyscDslImplementation", "apply", "dsl.impl_sysc",
     False, None),
    ("repro.dsl.elab.SyscDslImplementation", "observe", "dsl.impl_sysc",
     False, None),
    ("repro.dsl.elab.SyscDslImplementation", "reset", "dsl.impl_sysc",
     False, None),
    ("repro.sysc.kernel.Simulator", "run", "sysc.run", False, "sysc_run"),
    ("repro.rtl.netlist", "elaborate", "rtl.elaborate", True, None),
    ("repro.rtl.compile", "compile_design", "rtl.codegen", True, None),
    ("repro.rtl.bitsim", "compile_bitpar", "rtl.codegen", True, None),
    ("repro.rtl.simulator.RtlSimulator", "step", "rtl.step", False, None),
    ("repro.lint", "lint_la1", "lint", True, None),
    ("repro.lint", "lint_design", "lint", True, None),
    ("repro.lint", "lint_properties", "lint", True, None),
    ("repro.lint", "lint_machine", "lint", True, None),
    ("repro.core.rulebase", "check_read_mode_rtl", "mc.bdd", True, None),
    ("repro.mc.checker.SymbolicModelChecker", "check_property", "mc.bdd",
     True, "mc_bdd"),
    ("repro.mc.checker.SymbolicModelChecker", "check_invariant", "mc.bdd",
     True, "mc_bdd"),
    ("repro.sat.bmc.SatModelChecker", "prove", "sat.prove", True, None),
]

#: spans that are a workload's entry point rather than a layer: their
#: self time is the part of a round no layer span explains
ENTRY_SPANS = ("core.flow", "dsl.flow", "fault.run")


class Tracer:
    """Per-thread frame stacks, per-name totals, counters and span
    records.  ``clock`` is injectable so the arithmetic is testable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: name -> [calls, self seconds, total seconds]
        self.totals: dict = {}
        self.counts: dict = {}
        #: finished recorded spans (dicts, in completion order)
        self.spans: list = []
        #: seconds covered by frames that had no wrapped caller
        self.root_s = 0.0
        #: self seconds of entry-point spans (see ENTRY_SPANS)
        self.entry_self_s = 0.0
        self.round = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def call(self, name: str, record: bool, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one frame named ``name``."""
        stack = self._stack()
        span_id = parent = None
        if record:
            # the nearest recorded caller
            parent = next((f[3] for f in reversed(stack)
                           if f[3] is not None), None)
            with self._lock:
                self._ids += 1
                span_id = self._ids
        # [name, start, child seconds, span id]
        frame = [name, self.clock(), 0.0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self._close(frame, end, stack, parent)

    def _close(self, frame, end: float, stack: list, parent) -> None:
        name, start, child_s, span_id = frame
        duration = end - start
        self_s = duration - child_s
        if stack:
            stack[-1][2] += duration
        with self._lock:
            if not stack:
                self.root_s += duration
            if name in ENTRY_SPANS and not stack:
                self.entry_self_s += self_s
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += self_s
            total[2] += duration
            if span_id is not None:
                self.spans.append({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "round": self.round,
                    "self": self_s, "tid": threading.get_ident(),
                })

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def snapshot(self) -> dict:
        """JSON-ready state, for shipping across a process boundary."""
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts),
                "spans": list(self.spans),
                "root_s": self.root_s,
                "entry_self_s": self.entry_self_s,
            }


# ---------------------------------------------------------------------------
# counter hooks: (tracer, args, result, before) -> None, where ``before``
# is what the matching ``pre`` hook returned when the call started
# ---------------------------------------------------------------------------

def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _post_fault_run(tracer, args, result, before) -> None:
    ppsfp = result.engine_stats.get("ppsfp", {})
    for stats in ppsfp.values():
        tracer.count("fault.lane_passes", stats.get("lane_passes", 0))
        tracer.count("fault.words_evaluated",
                     stats.get("words_evaluated", 0))
        # occupied lane-passes, so a ratio over lane_passes is exact
        tracer.count("fault.occupied_lane_passes",
                     stats.get("lane_utilization", 0.0)
                     * stats.get("lane_passes", 0))


def _post_par(tracer, args, result, before) -> None:
    __, stats = result
    tracer.count("par.shards", stats.shards)
    tracer.count("par.retries", stats.retries)
    tracer.count("par.jobs_x_wall_s", stats.jobs * stats.wall_s)
    tracer.count("par.worker_cpu_s", _children_cpu() - before)


def _post_asm_explore(tracer, args, result, before) -> None:
    tracer.count("asm.explore_states", result.num_nodes)


def _post_asm_conformance(tracer, args, result, before) -> None:
    tracer.count("asm.conformance_paths", result.paths_checked)
    tracer.count("asm.conformance_steps", result.steps_executed)


def _post_mc_bdd(tracer, args, result, before) -> None:
    stats = result.bdd_stats or {}
    tracer.peak("bdd.peak_nodes", result.peak_nodes)
    tracer.count("bdd.cache_hits", stats.get("cache_hits", 0))
    tracer.count("bdd.cache_misses", stats.get("cache_misses", 0))


def _post_sysc_run(tracer, args, result, before) -> None:
    tracer.count("sysc.units", result - before)


HOOKS = {
    "fault_run": (None, _post_fault_run),
    "par_supervise": (lambda args: _children_cpu(), _post_par),
    "asm_explore": (None, _post_asm_explore),
    "asm_conformance": (None, _post_asm_conformance),
    "mc_bdd": (None, _post_mc_bdd),
    "sysc_run": (lambda args: args[0].time, _post_sysc_run),
}


def _wrap(tracer: Tracer, fn, name: str, record: bool,
          hook: Optional[str]):
    pre, post = HOOKS[hook] if hook else (None, None)
    call = tracer.call

    if post is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, record, fn, args, kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            result = call(name, record, fn, args, kwargs)
            post(tracer, args, result, before)
            return result
    wrapper.__perfbench_original__ = fn
    return wrapper


def _resolve(dotted: str):
    """Import the module part of ``dotted`` and walk the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def _import_all() -> None:
    """Import every ``repro`` module first, so no module can bind a
    wrapper at import time and keep it after ``remove()``."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Installed:
    """Handle of installed wrappers; ``remove()`` restores every
    patched attribute to the exact object it held before."""

    def __init__(self):
        self.patches: list = []  # (owner, attribute, original)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every target for ``tracer``.

    Methods are patched on their class.  A module function is patched
    in every loaded ``repro`` module that holds it, because modules
    bind imported names at import time (``from .x import f``)."""
    _import_all()
    handle = Installed()
    for owner_name, attr, name, record, hook in targets:
        owner = _resolve(owner_name)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            handle.patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, record, hook))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, original, name, record, hook)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    handle.patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return handle


def wrapped_attributes() -> list:
    """Every ``repro`` module or class attribute currently holding a
    benchmark wrapper (empty once all handles are removed)."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type):
                for mkey, mvalue in vars(value).items():
                    if hasattr(mvalue, "__perfbench_original__"):
                        found.append(f"{module.__name__}.{key}.{mkey}")
    return found


# ---------------------------------------------------------------------------
# post-processing
# ---------------------------------------------------------------------------

def covered_share(root_s: float, entry_self_s: float, wall_s: float) -> float:
    """Share of ``wall_s`` covered by layer spans: time inside root
    frames minus the self time of workload entry points."""
    if wall_s <= 0:
        return 0.0
    return max(0.0, min(1.0, (root_s - entry_self_s) / wall_s))


def chrome_trace(spans: list, process_names: Optional[dict] = None) -> dict:
    """Chrome trace-event JSON (loads in Perfetto and chrome://tracing).

    Each span becomes one complete ("X") event; ``pid`` is the round's
    process, ``args`` carry the span id, parent, round and self time."""
    events = []
    tids: dict = {}
    for pid, label in sorted((process_names or {}).items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for span in spans:
        pid = span.get("pid", 0)
        tid = tids.setdefault((pid, span.get("tid", 0)), len(tids) + 1)
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": round(span["start"] * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": {"id": span["id"], "parent": span["parent"],
                     "round": span["round"],
                     "self_us": round(span["self"] * 1e6, 3)},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: list,
                       process_names: Optional[dict] = None) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans, process_names), handle)
