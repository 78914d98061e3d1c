"""One-call LA-1 coverage collection across all four methodology levels.

:func:`collect_la1_coverage` runs the paper's verification vehicles with
every :mod:`repro.cover` collector attached and merges the harvests into
one :class:`CoverageDB`:

* **func** -- random host traffic on the kernel-level (SystemC) model
  with :class:`~repro.cover.functional.La1FunctionalCoverage` wrapping
  the transactor;
* **assert.psl** -- the read-mode PSL monitors of the same run, under
  :class:`~repro.cover.assertion.PslAssertionCoverage`;
* **rtl** + **assert.ovl** -- the same traffic on the OVL-instrumented
  RTL with :class:`~repro.cover.rtl_cov.ToggleCollector` and
  :class:`~repro.cover.assertion.OvlAssertionCoverage` (either backend);
* **asm** -- a seeded random walk of the ASM model under
  :class:`~repro.cover.asm_cov.AsmCoverage` with the LA-1 state
  predicates.

This is the engine behind ``python -m repro.cover`` and the flow's
coverage stage; the smoke invariant (two seeds merge losslessly) runs
over exactly these collections.
"""

from __future__ import annotations

from typing import Optional

from ..abv import summarize
from ..asm.testgen import random_walk
from ..core.asm_model import La1AsmConfig, build_la1_asm
from ..core.monitors import attach_read_mode_monitors
from ..core.ovl_bindings import build_la1_top_with_ovl
from ..core.rtl_testbench import RtlHost
from ..core.spec import La1Config
from ..core.sysc_model import build_la1_system
from ..core.traffic import queue_traffic
from ..rtl import RtlSimulator, elaborate
from .asm_cov import AsmCoverage, la1_state_predicates
from .assertion import OvlAssertionCoverage, PslAssertionCoverage
from .db import CoverageDB
from .functional import La1FunctionalCoverage
from .rtl_cov import ToggleCollector

__all__ = [
    "collect_sysc_coverage",
    "collect_rtl_coverage",
    "collect_asm_coverage",
    "collect_la1_coverage",
]


def _la1_config(banks: int) -> La1Config:
    return La1Config(banks=banks, beat_bits=16, addr_bits=4)


def collect_sysc_coverage(banks: int = 2, traffic: int = 24,
                          seed: int = 2004,
                          db: Optional[CoverageDB] = None) -> CoverageDB:
    """Kernel-level run: functional (``func.*``) + PSL assertion
    (``assert.psl.*``) coverage."""
    db = db if db is not None else CoverageDB()
    config = _la1_config(banks)
    sim, clocks, device, host = build_la1_system(config)
    monitors = attach_read_mode_monitors(sim, device, clocks)
    functional = La1FunctionalCoverage(host)
    assertion = PslAssertionCoverage(monitors)
    queue_traffic(host, config, traffic, seed)
    sim.run(traffic * 20 + 200)
    summarize(monitors).finish()
    functional.detach()
    assertion.detach()
    functional.harvest(db)
    assertion.harvest(db)
    return db


def collect_rtl_coverage(banks: int = 2, traffic: int = 24,
                         seed: int = 2004, backend: str = "compiled",
                         db: Optional[CoverageDB] = None,
                         lanes: int = 1) -> CoverageDB:
    """RTL run with OVL checkers loaded: toggle (``rtl.toggle.*``) +
    OVL assertion (``assert.ovl.*``) coverage.

    ``lanes > 1`` switches to the bit-parallel backend (``backend`` is
    then ignored) with the traffic broadcast into every lane and lane 0
    harvested -- the collected DB is bit-identical to a scalar run, which
    is exactly what lets campaigns and walk scoring swap the backends
    freely underneath the coverage arithmetic."""
    db = db if db is not None else CoverageDB()
    config = _la1_config(banks)
    if lanes > 1:
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                           backend="bitpar", lanes=lanes)
    else:
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                           backend=backend)
    host = RtlHost(sim, config)
    toggles = ToggleCollector(sim)
    ovl = OvlAssertionCoverage(sim)
    queue_traffic(host, config, traffic, seed)
    host.run_until_idle()
    toggles.detach()
    ovl.detach()
    toggles.harvest(db)
    ovl.harvest(db)
    return db


def collect_asm_coverage(banks: int = 2, steps: int = 64, seed: int = 2004,
                         db: Optional[CoverageDB] = None) -> CoverageDB:
    """ASM random walk: rule + state-predicate (``asm.*``) coverage."""
    db = db if db is not None else CoverageDB()
    machine = build_la1_asm(La1AsmConfig(banks=banks))
    collector = AsmCoverage(machine, la1_state_predicates(banks))
    random_walk(machine, steps, seed)
    collector.detach()
    collector.harvest(db)
    return db


def collect_la1_coverage(banks: int = 2, traffic: int = 24,
                         seed: int = 2004, backend: str = "compiled",
                         asm_steps: int = 64,
                         lanes: int = 1) -> CoverageDB:
    """Collect from all four levels into one merged DB.  ``lanes``
    applies to the RTL stage only (the SystemC and ASM vehicles have no
    lane-parallel encoding -- the documented degradation rule)."""
    db = CoverageDB(meta={
        "design": f"la1_{banks}banks",
        "banks": banks,
        "traffic": traffic,
        "seed": seed,
        "backend": backend,
    })
    collect_sysc_coverage(banks, traffic, seed, db=db)
    collect_rtl_coverage(banks, traffic, seed, backend, db=db, lanes=lanes)
    collect_asm_coverage(banks, asm_steps, seed, db=db)
    return db
