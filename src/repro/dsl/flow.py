"""``repro.dsl.flow`` -- the full verification flow for a zoo design.

:func:`run_dsl_flow` drives one frontend design through every engine of
the methodology, unchanged from the LA-1 stack:

1. **elaborate** -- lower to the ASM / RTL / SystemC model trio;
2. **lint** -- ``repro.lint`` over the elaborated netlist, the PSL
   property set and the per-rule ASM view (probe and cover nets are
   declared observation points so taps are not flagged dead; frontend
   ``src_loc`` decoration makes any finding point at the DSL line);
3. **conformance** -- BFS co-execution of the ASM model against the RTL
   and SystemC lowerings, bit-identical observations required;
4. **model checking** -- every design property through the SAT engine
   (BMC + k-induction; definitive verdicts) or the RuleBase-style BDD
   reachability engine;
5. **coverage** -- the design's covergroup sampled over a seeded RTL
   run;
6. **campaign** -- a fault-injection smoke campaign (stuck-ats + one
   SEU per register) that must detect at least one fault and complete
   without engine errors.

The stages run through the LA-1 flow's loop
(:func:`repro.core.flow.run_stages`) into the same
:class:`~repro.core.flow.FlowReport`, so flow reports read the same
either way and execution stops at the first failing stage.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.flow import (
    MC_ENGINES,
    FlowReport,
    StageResult,
    require_choice,
    run_stages,
)
from ..lint import LintConfig, lint_design, lint_machine, lint_properties
from ..rtl.simulator import RtlSimulator
from .elab import check_dsl_conformance, netlist_fingerprint
from .zoo import (
    build_elaborated,
    conformance_budget,
    zoo_names,
    zoo_properties,
)

__all__ = ["STAGES", "run_dsl_flow"]

#: the stages after elaboration, in execution order
STAGES = ("lint", "conformance", "model_checking", "coverage", "campaign")
#: SAT unrolling bound and per-property deadline of the MC stage
MC_MAX_K = 40
MC_DEADLINE_S = 120.0
#: seeded random-stimulus cycles of the coverage stage and the share
#: of covergroup bins it must reach
COVERAGE_CYCLES = 64
COVERAGE_THRESHOLD = 0.25
#: RTL cycles per fault and fault-list size of the campaign smoke
CAMPAIGN_CYCLES = 32
CAMPAIGN_MAX_FAULTS = 16


def _elaborate_stage(report: FlowReport) -> StageResult:
    elab = build_elaborated(report.design)
    stats = elab.flat.stats()
    report.fingerprint = netlist_fingerprint(elab)
    return StageResult(
        "elaborate", True,
        f"{len(elab.design.modules)} modules, {len(elab.asm.rules)} ASM "
        f"rules, {stats['regs']} regs, {stats['nets']} nets, "
        f"{stats['monitors']} monitors",
        data=elab,
    )


def _lint_stage(name: str, elab) -> StageResult:
    # probe, cover and monitor wires exist to be observed by engines the
    # dataflow pass cannot see (PSL labels, covergroup sampling), so
    # they are observation points, not dead logic
    sinks = tuple(elab.probes.values()) + tuple(
        path for path, __ in elab.covers.values())
    report = lint_design(elab.rtl, config=LintConfig(extra_sinks=sinks),
                         design=elab.flat, subject=f"dsl:{name}")
    props = [(pname, prop) for pname, prop, __ in zoo_properties(name, elab)]
    report.extend(lint_properties(props, subject=f"dsl:{name}:properties"))
    report.extend(lint_machine(elab.rule_machine()))
    counts = report.counts()
    return StageResult(
        "lint", report.ok,
        f"{len(report.pass_order)} passes, {counts['error']} errors, "
        f"{counts['warning']} warnings, {counts['waived']} waived",
        data=report,
    )


def _conformance_stage(name: str, elab, backend: str) -> StageResult:
    budget = conformance_budget(name)
    results = check_dsl_conformance(
        elab, levels=("rtl", "sysc"), backend=backend, **budget)
    ok = all(r.conformant for r in results.values())
    detail = ", ".join(
        f"{level} {'ok' if r.conformant else 'DIVERGED'} "
        f"({r.paths_checked} paths)"
        for level, r in results.items()
    )
    bad = [r.divergence for r in results.values()
           if not r.conformant and r.divergence]
    if bad:
        detail += f"; {bad[0]}"
    return StageResult("conformance", ok, detail, data=results)


def _mc_stage(name: str, elab, engine: str) -> StageResult:
    outcomes = []
    ok = True
    results = {}
    for pname, prop, labels in zoo_properties(name, elab):
        if engine == "sat":
            from ..sat.bmc import SatModelChecker

            result = SatModelChecker(
                elab.flat, prop, labels, name=pname,
            ).prove(max_k=MC_MAX_K, deadline_s=MC_DEADLINE_S)
            verdict = (f"proved k={result.k}" if result.holds is True
                       else "FAILS" if result.holds is False
                       else "UNDECIDED")
        else:
            from ..mc import SymbolicModel, SymbolicModelChecker

            roots = sorted({path for path, __ in labels.values()})
            result = SymbolicModelChecker(
                SymbolicModel(elab.flat, coi_roots=roots)
            ).check_property(prop, labels, name=pname,
                             deadline_s=MC_DEADLINE_S)
            verdict = (f"holds ({result.iterations} iters)"
                       if result.holds is True
                       else "FAILS" if result.holds is False
                       else "UNDECIDED")
        results[pname] = result
        ok = ok and result.holds is True
        outcomes.append(f"{pname}: {verdict}")
    return StageResult(
        "model_checking", ok,
        f"{engine} engine; " + "; ".join(outcomes),
        data=results,
    )


def _coverage_stage(name: str, elab, seed: int,
                    backend: str) -> StageResult:
    from ..cover.functional import Covergroup

    group = Covergroup(f"dsl_{name}")
    points = {}
    for cname, (path, width) in sorted(elab.covers.items()):
        bins = [str(v) for v in range(1 << width)]
        points[cname] = (group.coverpoint(cname, bins), path)
    sim = RtlSimulator(elab.flat, backend=backend)
    sim.reset()
    rng = random.Random(seed)
    inputs = [(net.path, net.width) for net in elab.flat.inputs]
    for __ in range(COVERAGE_CYCLES):
        for path, width in inputs:
            sim.set_input(path, rng.getrandbits(width))
        for point, path in points.values():
            point.sample(str(sim.read(path)))
        sim.step("K")
    fraction = group.coverage()
    ok = not sim.failures and fraction >= COVERAGE_THRESHOLD
    return StageResult(
        "coverage", ok,
        f"{fraction:.0%} of {sum(len(p.bins) for p in group.points)} bins "
        f"over {COVERAGE_CYCLES} cycles"
        + (f"; monitors fired: {[f.name for f in sim.failures[:3]]}"
           if sim.failures else ""),
        data=group,
    )


def _campaign_stage(name: str, seed: int, backend: str) -> StageResult:
    from ..fault.campaign import CampaignConfig, FaultCampaign

    config = CampaignConfig(design=name, seed=seed, backend=backend,
                            rtl_cycles=CAMPAIGN_CYCLES,
                            max_faults=CAMPAIGN_MAX_FAULTS)
    report = FaultCampaign(config).run()
    counts = report.counts()
    ok = (counts.get("detected", 0) >= 1
          and counts.get("error", 0) == 0
          and counts.get("truncated", 0) == 0)
    return StageResult(
        "campaign", ok,
        f"{len(report.verdicts)} faults: {counts['detected']} detected, "
        f"{counts['masked']} masked, {counts['silent']} silent, "
        f"{counts['error']} errors",
        data=report,
    )


def run_dsl_flow(
    name: str,
    seed: int = 2004,
    mc_engine: str = "sat",
    rtl_backend: str = "interp",
    stages: Optional[List[str]] = None,
) -> FlowReport:
    """Run the verification flow for the zoo design ``name``.

    ``stages`` restricts execution to a subset of :data:`STAGES` (run
    in canonical order); elaboration always runs.  An unknown design,
    engine or stage name raises ``ValueError`` before any stage runs."""
    require_choice("zoo design", name, zoo_names())
    require_choice("mc engine", mc_engine, MC_ENGINES)
    for stage in stages or ():
        require_choice("flow stage", stage, STAGES)
    wanted = STAGES if stages is None else stages
    report = FlowReport(design=name)

    # every stage after the first reads the elaboration it cached
    def elab():
        return build_elaborated(name)

    runners = {
        "lint": lambda: _lint_stage(name, elab()),
        "conformance": lambda: _conformance_stage(name, elab(),
                                                  rtl_backend),
        "model_checking": lambda: _mc_stage(name, elab(), mc_engine),
        "coverage": lambda: _coverage_stage(name, elab(), seed,
                                            rtl_backend),
        "campaign": lambda: _campaign_stage(name, seed, rtl_backend),
    }
    return run_stages(report, [lambda: _elaborate_stage(report)] + [
        runners[stage] for stage in STAGES if stage in wanted])
