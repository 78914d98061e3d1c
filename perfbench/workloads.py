"""The benchmark's workloads: inputs, rounds and verdict references.

Every workload draws its per-round seeds from a fixed pool
(``POOL[workload]``), in an order set by the benchmark seed, so the
same seed gives the same inputs and different seeds give different
ones.  ``goldens.json`` holds a reference verdict for every pool seed,
computed by ``golden.py`` along a code path the timed run does not take
(see :data:`REFERENCE_PATHS`), so every timed verdict is checked.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ("la1_flow", "zoo_flow", "fault_campaign", "serve_jobs")

#: round seeds per workload, more than one run can use.  Zoo seed 14
#: is left out: with its stimulus the arbiter's smoke campaign detects
#: none of its 8 faults, so that flow's campaign stage fails.
POOL = {
    "la1_flow": tuple(range(1, 33)),
    "zoo_flow": tuple(s for s in range(1, 18) if s != 14),
    "fault_campaign": tuple(range(1, 33)),
    "serve_jobs": tuple(range(1, 97)),
}

LA1_BANKS = (1, 2, 4)
ZOO_DESIGNS = ("arbiter", "fifo", "noc", "qdr")
#: the two fault engines: the 2-bank default-list campaign on the
#: per-fault path, and the 4-bank datapath stuck-at sweep at 64 lanes
SMOKE_BANKS, SMOKE_LANES = 2, 1
SWEEP_BANKS, SWEEP_LANES, SWEEP_SCALE = 4, 64, 16

#: how goldens.json is computed, per timed call
REFERENCE_PATHS = {
    "la1_flow": "run_flow with rtl_backend='interp' (timed: compiled)",
    "zoo_flow": "run_dsl_flow with rtl_backend='compiled' (timed: interp)",
    "smoke": "inline FaultCampaign.run jobs=1 lanes=64 (timed in "
             "fault_campaign: lanes=1; in serve_jobs: HTTP, jobs=2, lanes=1)",
    "sweep": "FaultCampaign.run lanes=1 (timed: lanes=64)",
}


def round_seeds(workload: str, seed: int) -> list:
    """The pool seeds of ``workload`` in the order the benchmark seed
    ``seed`` picks them; round ``r`` uses element ``r``."""
    order = list(POOL[workload])
    random.Random(f"{workload}/{seed}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

#: per-bank datapath state sampled by the sweep's fault list:
#: (register tail, register width, bits sampled per bank at scale 1)
_DATAPATH = (
    ("sram.mem", 512, 16),
    ("read_port.word_reg", 32, 8),
    ("write_port.beat0_reg", 16, 4),
    ("read_port.addr_reg", 4, 2),
    ("write_port.addr_reg", 4, 1),
    ("write_port.bw0_reg", 2, 1),
)


def datapath_faults(banks: int, scale: int):
    """Stuck-ats on distinct bits of the per-bank datapath registers
    (stride 7 is coprime to every width, so no bit repeats)."""
    from repro.fault.models import RtlStuckAt

    faults = []
    for bank in range(banks):
        for tail, width, count in _DATAPATH:
            path = f"la1_top.bank{bank}.{tail}"
            for k in range(min(count * scale, width)):
                faults.append(RtlStuckAt(path, (bank + k * 7) % width,
                                         (bank + k) % 2))
    return faults


# ---------------------------------------------------------------------------
# verdict summaries: JSON-ready, timing-free
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def stage_summary(stage) -> list:
    """Name, verdict and every number in a flow stage's detail line
    (counts only: the detail carries no timings)."""
    return [stage.name, bool(stage.ok), _NUMBER.findall(stage.detail)]


def flow_verdict(report) -> dict:
    return {"banks": report.config.banks, "ok": report.ok,
            "stages": [stage_summary(s) for s in report.stages]}


def zoo_verdict(report) -> dict:
    return {"design": report.design, "ok": report.ok,
            "fingerprint": report.fingerprint,
            "stages": [stage_summary(s) for s in report.stages]}


def signature_verdict(signature) -> dict:
    """A campaign signature as (outcome letters in fault order, digest
    of the whole signature including ``detected_by``)."""
    rows = [list(row[:2]) + [list(row[2])] for row in signature]
    text = json.dumps(rows, sort_keys=True)
    counts: dict = {}
    for row in rows:
        counts[row[1]] = counts.get(row[1], 0) + 1
    return {"outcomes": "".join(row[1][0] for row in rows),
            "digest": hashlib.sha256(text.encode()).hexdigest()[:32],
            "counts": counts}


def report_signature(report_dict: dict) -> list:
    """``CampaignReport.signature()`` rebuilt from its ``to_dict()``."""
    return sorted((v["fault_id"], v["outcome"], tuple(v["detected_by"]))
                  for v in report_dict["faults"])


# ---------------------------------------------------------------------------
# rounds (the timed calls; ``reference=True`` takes the golden path)
# ---------------------------------------------------------------------------

def la1_round(seed: int, reference: bool = False) -> list:
    from repro.core.flow import FlowConfig, run_flow

    extra = {"rtl_backend": "interp"} if reference else {}
    return [flow_verdict(run_flow(FlowConfig(banks=b, seed=seed, **extra)))
            for b in LA1_BANKS]


def zoo_round(seed: int, reference: bool = False) -> list:
    from repro.dsl.flow import run_dsl_flow

    extra = {"rtl_backend": "compiled"} if reference else {}
    return [zoo_verdict(run_dsl_flow(name, seed=seed, **extra))
            for name in ZOO_DESIGNS]


def smoke_campaign(seed: int, lanes: int = SMOKE_LANES):
    from repro.fault.campaign import CampaignConfig, FaultCampaign

    return FaultCampaign(CampaignConfig(banks=SMOKE_BANKS, seed=seed)).run(
        resume=False, lanes=lanes)


def sweep_campaign(seed: int, lanes: int = SWEEP_LANES):
    from repro.fault.campaign import CampaignConfig, FaultCampaign

    faults = datapath_faults(SWEEP_BANKS, SWEEP_SCALE)
    return FaultCampaign(CampaignConfig(banks=SWEEP_BANKS, seed=seed)).run(
        faults=faults, resume=False, lanes=lanes)


def fault_round(seed: int) -> list:
    smoke = smoke_campaign(seed)
    sweep = sweep_campaign(seed)
    return [dict(signature_verdict(smoke.signature()), campaign="smoke"),
            dict(signature_verdict(sweep.signature()), campaign="sweep")]


ROUNDS = {"la1_flow": la1_round, "zoo_flow": zoo_round,
          "fault_campaign": fault_round}

#: modules a round uses, imported before its timer starts
IMPORTS = {
    "la1_flow": ("repro.core.flow", "repro.lint", "repro.cover",
                 "repro.mc", "repro.core.rulebase"),
    "zoo_flow": ("repro.dsl.flow", "repro.sat.bmc", "repro.fault.campaign",
                 "repro.cover.functional", "repro.dsl.faults"),
    "fault_campaign": ("repro.fault.campaign", "repro.fault.ppsfp",
                       "repro.fault.models"),
    "serve_jobs": ("repro.serve.server", "repro.serve.jobs",
                   "repro.fault.campaign", "repro.par.supervise",
                   "repro.par.workers"),
}


def verdict_count(entry: dict) -> int:
    """Verdicts one summary stands for: a flow verdict is one, a
    campaign summary one per fault."""
    if "outcomes" in entry:
        return len(entry["outcomes"])
    return 1


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def load_goldens(path: str = GOLDENS) -> dict:
    with open(path) as handle:
        return json.load(handle)


def golden_for(goldens: dict, workload: str, seed: int):
    """The reference summaries of one round (``None`` when absent)."""
    smoke = goldens.get("smoke", {}).get(str(seed))
    if workload == "serve_jobs":
        return None if smoke is None else [smoke]
    if workload == "fault_campaign":
        sweep = goldens.get("sweep", {}).get(str(seed))
        if smoke is None or sweep is None:
            return None
        return [dict(smoke, campaign="smoke"),
                dict(sweep, campaign="sweep")]
    return goldens.get(workload, {}).get(str(seed))


def wrong_verdicts(got: dict, want: dict) -> int:
    """Verdicts in ``got`` that disagree with ``want``: per fault for a
    campaign summary, the whole entry otherwise."""
    if "outcomes" in got:
        if want is None or len(want.get("outcomes", "")) != len(
                got["outcomes"]):
            return max(len(got["outcomes"]), 1)
        wrong = sum(a != b for a, b in zip(got["outcomes"],
                                           want["outcomes"]))
        bad = sum(got["counts"].get(k, 0) for k in ("error", "truncated"))
        if got["digest"] != want["digest"]:
            wrong = max(wrong, 1)
        return max(wrong, bad)
    if want != got or not got.get("ok", False):
        return 1
    return 0


def check_round(goldens: dict, workload: str, seed: int,
                summaries: list) -> tuple:
    """(verdicts attempted, verdicts wrong) for one round."""
    want = golden_for(goldens, workload, seed)
    attempted = sum(verdict_count(s) for s in summaries)
    if want is None or len(want) != len(summaries):
        wrong = attempted
    else:
        wrong = sum(wrong_verdicts(got, ref)
                    for got, ref in zip(summaries, want))
    if workload == "serve_jobs":  # one verdict per completed job
        return 1, int(wrong > 0)
    return attempted, wrong
