"""The end-to-end design & verification flow -- the paper's Figure 2.

:func:`run_flow` executes every stage of the methodology in order:

1. **UML level** -- build the class / use-case / modified sequence
   diagrams, validate their consistency, extract the latency properties.
2. **ASM level** -- build the N-bank ASM model and model check the full
   PSL property suite by guided exploration (Table 1's procedure).  A
   failure carries a counterexample path back ("when the verification
   terminates with an error, we update UML specification and re-capture").
3. **Translation** -- construct the SystemC-level model (the ASM -> SystemC
   syntax transformation) and run the ASM/SystemC conformance co-execution.
4. **ABV** -- simulate random host traffic on the kernel model with the
   external PSL monitors attached.
5. **RTL refinement** -- build the synthesizable RTL, emit Verilog text.
6. **RTL model checking** -- re-verify the Read-Mode property with the
   RuleBase-style symbolic checker (Table 2's procedure).
7. **OVL** -- simulate the same traffic on the RTL with the OVL checker
   modules loaded (Table 3's right-hand side).

Each stage is a function returning a :class:`StageResult`.
:func:`run_stages` runs an ordered list of them, times each, collects
the results in a :class:`FlowReport` and stops at the first failing
stage (the Figure 2 feedback edge).  The zoo-design flow
(:func:`repro.dsl.flow.run_dsl_flow`) feeds the same loop and report
with its own stages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..abv import summarize
from ..asm import AsmModelChecker, ExplorationConfig
from ..rtl import RtlSimulator, elaborate, emit_verilog
from .asm_model import La1AsmConfig, build_la1_asm
from .conformance import check_la1_conformance
from .monitors import attach_read_mode_monitors
from .ovl_bindings import build_la1_top_with_ovl
from .properties import asm_labeling, device_property_suite
from .rulebase import check_read_mode_rtl
from .rtl_testbench import RtlHost
from .spec import La1Config
from .sysc_model import build_la1_system
from .traffic import queue_traffic
from .uml_spec import (
    extracted_properties,
    la1_class_diagram,
    la1_use_cases,
    read_mode_sequence,
    write_mode_sequence,
)

__all__ = ["FlowConfig", "StageResult", "FlowReport", "run_stages",
           "run_flow", "MC_ENGINES", "RTL_MC_MODES", "require_choice"]

#: model-checking engines of both flows
MC_ENGINES = ("bdd", "sat")
#: RTL model-checking scopes of the LA-1 flow (None skips the stage)
RTL_MC_MODES = ("control", "full", None)
#: ASM/SystemC conformance co-execution depth (half-cycles)
CONFORMANCE_DEPTH = 4
#: coverage fraction the merged DB must reach for the coverage stage to
#: pass; structural toggle points (every SRAM bit has a rose and a fell
#: target) dominate the denominator, so short flows sit low even when
#: the behavioural levels are closed
COVERAGE_THRESHOLD = 0.10


def require_choice(what: str, value, allowed) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(
            f"unknown {what} {value!r}; expected one of {list(allowed)}")


@dataclass
class FlowConfig:
    """Parameters of one flow run."""

    banks: int = 2
    #: random host transactions driven during the ABV and OVL stages
    traffic: int = 40
    seed: int = 2004
    #: run the RTL symbolic MC stage on the control abstraction (fast)
    #: or the full datapath ("full", minutes) or skip it (None)
    rtl_mc: Optional[str] = "control"
    #: engine of the RTL MC stage: "bdd" (RuleBase-style reachability)
    #: or "sat" (CNF-unrolled BMC + k-induction, repro.sat -- proves
    #: the 4-bank suite the BDD engine explodes on)
    mc_engine: str = "bdd"
    #: RTL simulator backend for the OVL stage: "compiled" (codegen) or
    #: "interp" (the tree-walking reference semantics)
    rtl_backend: str = "compiled"
    #: collect cross-level coverage (repro.cover) during the ASM, ABV
    #: and OVL stages and append a merged closure stage to the report
    coverage: bool = True
    #: process-pool width for the parallelizable stages (repro.par);
    #: jobs > 1 sweeps the RTL model-checking stage's read-mode
    #: conjuncts one process per property -- verdicts are identical to
    #: jobs=1, which checks their conjunction in a single run
    jobs: int = 1
    #: service-grade supervision knobs for the sharded stages
    #: (repro.par.supervise; jobs > 1 only): attempts each shard gets
    #: before quarantine, and the per-shard wall-clock after which a
    #: hung worker is killed and the shard retried.  A quarantined
    #: MC property degrades the stage to inconclusive (FAIL), never to
    #: a silent pass
    shard_attempts: int = 2
    shard_deadline_s: Optional[float] = None

    def __post_init__(self):
        require_choice("mc engine", self.mc_engine, MC_ENGINES)
        require_choice("rtl_mc mode", self.rtl_mc, RTL_MC_MODES)


@dataclass
class StageResult:
    """Outcome of one flow stage."""

    name: str
    ok: bool
    detail: str = ""
    cpu_time: float = 0.0
    data: object = None

    def __repr__(self):
        flag = "ok" if self.ok else "FAILED"
        return f"StageResult({self.name}: {flag}, {self.cpu_time:.2f}s)"


@dataclass
class FlowReport:
    """All stage results of one flow run: the LA-1 Figure 2 flow
    (``config``, ``verilog``) or a zoo-design flow (``design``,
    ``fingerprint``)."""

    config: Optional[FlowConfig] = None
    design: str = ""
    fingerprint: str = ""
    verilog: str = ""
    stages: list[StageResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every executed stage passed."""
        return all(stage.ok for stage in self.stages)

    def stage(self, name: str) -> Optional[StageResult]:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def render(self) -> str:
        """Human-readable flow summary."""
        if self.design:
            header = f"dsl flow [{self.design}]" + (
                f" fingerprint {self.fingerprint}" if self.fingerprint
                else "")
        else:
            header = f"LA-1 flow ({self.config.banks} banks):"
        width = max((len(stage.name) for stage in self.stages), default=0)
        lines = [header]
        for stage in self.stages:
            flag = "PASS" if stage.ok else "FAIL"
            lines.append(
                f"  [{flag}] {stage.name:<{width}} {stage.cpu_time:7.2f}s  "
                f"{stage.detail}"
            )
        lines.append(f"  overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_stages(report: FlowReport,
               stages: Iterable[Callable[[], StageResult]]) -> FlowReport:
    """Run ``stages`` in order, timing each into ``cpu_time`` and
    appending it to ``report``; stop at the first failing stage."""
    for stage in stages:
        start = time.perf_counter()
        result = stage()
        result.cpu_time = time.perf_counter() - start
        report.stages.append(result)
        if not result.ok:
            break
    return report


def _harvest(cover_db, collectors: list) -> None:
    """Detach every coverage collector, then merge each into the DB."""
    for collector in collectors:
        collector.detach()
    for collector in collectors:
        collector.harvest(cover_db)


# ------------------------------------------------------ 1. UML level
def _uml_stage() -> StageResult:
    classes = la1_class_diagram()
    problems = classes.validate()
    problems += la1_use_cases().validate()
    problems += read_mode_sequence(classes).validate()
    problems += write_mode_sequence(classes).validate()
    extracted = extracted_properties()
    return StageResult(
        "uml", not problems,
        f"{len(classes.classes)} classes, {len(extracted)} extracted "
        f"properties" + (f"; problems: {problems}" if problems else ""),
        data=extracted,
    )


# ------------------------------------------------------ 2. ASM level
def _asm_stage(banks: int, cover_db) -> StageResult:
    machine = build_la1_asm(La1AsmConfig(banks=banks))
    collectors = []
    if cover_db is not None:
        from ..cover import AsmCoverage, la1_state_predicates

        # exploration fires the machine's rules, so the observer sees
        # every transition the model checker takes
        collectors = [AsmCoverage(machine, la1_state_predicates(banks))]
    suite = device_property_suite(banks)
    checker = AsmModelChecker(machine, asm_labeling(banks),
                              ExplorationConfig())
    result = checker.check_combined([p for __, p in suite], name="suite")
    _harvest(cover_db, collectors)
    return StageResult(
        "asm_model_checking", result.holds is True,
        f"{len(suite)} properties, {result.num_nodes} nodes, "
        f"{result.num_transitions} transitions",
        data=result,
    )


# ----------------------------------- 3. translation + conformance
def _conformance_stage(banks: int) -> StageResult:
    conformance = check_la1_conformance(
        La1AsmConfig(banks=min(banks, 2)), max_depth=CONFORMANCE_DEPTH)
    return StageResult(
        "asm_to_systemc_conformance", conformance.conformant,
        f"{conformance.paths_checked} paths, "
        f"{conformance.steps_executed} steps"
        + ("" if conformance.conformant else f"; {conformance.divergence}"),
        data=conformance,
    )


# ------------------------------------------------------ 4. ABV
def _abv_stage(config: FlowConfig, la1: La1Config, cover_db) -> StageResult:
    sim, clocks, device, host = build_la1_system(la1)
    monitors = attach_read_mode_monitors(sim, device, clocks)
    collectors = []
    if cover_db is not None:
        from ..cover import La1FunctionalCoverage, PslAssertionCoverage

        collectors = [La1FunctionalCoverage(host),
                      PslAssertionCoverage(monitors)]
    queue_traffic(host, la1, config.traffic, config.seed)
    sim.run(config.traffic * 20 + 200)
    abv = summarize(monitors).finish()
    _harvest(cover_db, collectors)
    return StageResult(
        "systemc_abv", abv.passed,
        f"{len(monitors)} monitors, {monitors[0].samples} samples, "
        f"{len(host.results)} reads completed",
        data=abv,
    )


# ------------------------------------------------------ 5. RTL
def _rtl_stage(report: FlowReport, la1: La1Config) -> StageResult:
    from .rtl_model import build_la1_top_rtl

    top = build_la1_top_rtl(la1)
    report.verilog = emit_verilog(top)
    stats = elaborate(top).stats()
    return StageResult(
        "rtl_refinement", True,
        f"{stats['regs']} regs, {stats['nets']} nets, "
        f"{len(report.verilog.splitlines())} Verilog lines",
        data=stats,
    )


# --------------------------------------------- 5b. static analysis
def _lint_stage(banks: int) -> StageResult:
    from ..lint import lint_la1

    lint_report = lint_la1(banks=banks)
    counts = lint_report.counts()
    return StageResult(
        "static_lint", lint_report.ok,
        f"{len(lint_report.pass_order)} passes, "
        f"{counts['error']} errors, {counts['warning']} warnings, "
        f"{counts['waived']} waived",
        data=lint_report,
    )


# ------------------------------------------------ 6. RTL model check
def _rtl_mc_stage(config: FlowConfig) -> StageResult:
    datapath = config.rtl_mc == "full"
    degraded = ""
    if config.jobs > 1:
        # sweep the read-mode conjuncts one process per property;
        # the conjunction of the per-property verdicts equals the
        # single-run verdict of read_mode_property(0)
        from ..mc import sweep_rtl_properties
        from .properties import read_mode_suite

        sweep = sweep_rtl_properties(
            config.banks,
            read_mode_suite(1),
            datapath=datapath,
            jobs=config.jobs,
            shard_attempts=config.shard_attempts,
            shard_deadline_s=config.shard_deadline_s,
            engine=config.mc_engine,
        )
        mc = sweep.combined()
        # degraded-run visibility: a sweep that needed the
        # supervision ladder says so instead of passing silently
        par = sweep.par_stats
        notes = []
        if par.get("retries"):
            notes.append(f"{par['retries']} retries")
        if par.get("killed_workers"):
            notes.append(f"{par['killed_workers']} workers reaped")
        if sweep.quarantined:
            notes.append(f"quarantined: {', '.join(sweep.quarantined)}")
        if notes:
            degraded = f" [DEGRADED: {'; '.join(notes)}]"
    elif config.mc_engine == "sat":
        from ..sat.bmc import check_read_mode_sat

        mc = check_read_mode_sat(config.banks, datapath=datapath)
    else:
        mc = check_read_mode_rtl(config.banks, datapath=datapath)
    cache = ""
    if mc.bdd_stats and config.mc_engine != "sat":
        hits = mc.bdd_stats.get("cache_hits", 0)
        misses = mc.bdd_stats.get("cache_misses", 0)
        total = hits + misses
        cache = (
            f", computed-table {hits}/{total} hits"
            f" ({mc.bdd_stats.get('cache_clears', 0)} clears)"
        )
    size_label = (
        f"{mc.peak_nodes} clauses, k={mc.iterations}"
        if config.mc_engine == "sat"
        else f"{mc.peak_nodes} BDDs, {mc.iterations} iterations"
    )
    return StageResult(
        "rtl_model_checking", mc.holds is True,
        f"{'full datapath' if datapath else 'control'} model, "
        + size_label
        + cache
        + (" [STATE EXPLOSION]" if mc.exploded else "")
        + (" [DEADLINE]" if mc.truncated else "")
        + degraded,
        data=mc,
    )


# ------------------------------------------------------ 7. OVL
def _ovl_stage(config: FlowConfig, la1: La1Config, cover_db) -> StageResult:
    sim = RtlSimulator(elaborate(build_la1_top_with_ovl(la1)),
                       backend=config.rtl_backend)
    host = RtlHost(sim, la1)
    collectors = []
    if cover_db is not None:
        from ..cover import OvlAssertionCoverage, ToggleCollector

        collectors = [ToggleCollector(sim), OvlAssertionCoverage(sim)]
    queue_traffic(host, la1, config.traffic, config.seed)
    host.run_until_idle()
    _harvest(cover_db, collectors)
    return StageResult(
        "rtl_ovl_simulation", sim.ok,
        f"{sim.backend} backend, {len(sim.design.monitors)} OVL monitors, "
        f"{sim.edge_count} edges, {len(host.results)} reads"
        + ("" if sim.ok else f"; failures: {sim.failures[:3]}"),
        data=sim.stats(),
    )


# ------------------------------------------------ 8. coverage closure
def _coverage_stage(cover_db) -> StageResult:
    covered, total = cover_db.counts()
    per_level = ", ".join(
        f"{level} {cover_db.coverage(level):.0%}"
        for level in cover_db.levels()
    )
    return StageResult(
        "coverage", cover_db.coverage() >= COVERAGE_THRESHOLD,
        f"{cover_db.coverage():.1%} ({covered}/{total} points; "
        f"{per_level})",
        data=cover_db,
    )


def run_flow(config: Optional[FlowConfig] = None) -> FlowReport:
    """Execute the Figure 2 flow; stops at the first failing stage."""
    config = config or FlowConfig()
    report = FlowReport(config)
    la1 = La1Config(banks=config.banks, beat_bits=16, addr_bits=4)
    cover_db = None
    if config.coverage:
        from ..cover import CoverageDB

        cover_db = CoverageDB(meta={"flow": f"la1_{config.banks}banks",
                                    "seed": config.seed})
    stages = [
        _uml_stage,
        lambda: _asm_stage(config.banks, cover_db),
        lambda: _conformance_stage(config.banks),
        lambda: _abv_stage(config, la1, cover_db),
        lambda: _rtl_stage(report, la1),
        lambda: _lint_stage(config.banks),
    ]
    if config.rtl_mc is not None:
        stages.append(lambda: _rtl_mc_stage(config))
    stages.append(lambda: _ovl_stage(config, la1, cover_db))
    if cover_db is not None:
        stages.append(lambda: _coverage_stage(cover_db))
    return run_stages(report, stages)
