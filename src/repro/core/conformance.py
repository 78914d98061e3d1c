"""ASM <-> SystemC conformance for the LA-1 models.

"The tool executes the exploration algorithm in the same time on both the
ASM model and a binary executable generated from the SystemC design.  It
then verifies if for all the possible inputs, both models behave the
same" (paper, Section 5.1).

:class:`La1SyscImplementation` adapts the kernel-level LA-1 device to the
generic co-execution protocol of :mod:`repro.asm.conformance`: every ASM
edge rule replays as interface pin wiggles plus one half-cycle of
simulation, and the observation function projects the concrete device
state back onto the ASM vocabulary (pipeline stage tuples, commit
strobes, per-bank memory).

Abstraction mapping (documented divergences are *refinements*, not
mismatches):

* an abstract data word ``w`` is driven as first beat ``w`` with second
  beat 0, so the ASM's committed word equals the concrete word's low
  beat;
* abstract addresses index the same array words at both levels.
"""

from __future__ import annotations

from typing import Optional

from ..asm.conformance import (
    ConformanceResult,
    ReplayImplementation,
    check_conformance,
)
from .asm_model import La1AsmConfig, build_la1_asm
from .spec import La1Config
from .sysc_model import La1Device, build_la1_system

__all__ = ["La1SyscImplementation", "check_la1_conformance", "observables_for"]


def observables_for(banks: int) -> list[str]:
    """The ASM state variables compared during co-execution."""
    names = ["phase"]
    for b in range(banks):
        names.extend([f"rp{b}", f"wp{b}", f"mem{b}", f"wcommit{b}"])
    return names


class La1SyscImplementation(ReplayImplementation):
    """The SystemC-level LA-1 system as a conformance test subject.

    Its clock threads keep timed events pending, so the kernel cannot
    rewind: snapshots are action trails, restored by reset and replay.
    """

    def __init__(self, asm_config: La1AsmConfig):
        super().__init__()
        self.asm_config = asm_config
        banks = asm_config.banks
        # concrete scale chosen so abstract values embed directly: one
        # address bit covers the (small) ASM address domain, beats wide
        # enough for the data domain
        data_max = max(asm_config.data_values)
        addr_count = len(asm_config.addr_values)
        addr_bits = max(1, (addr_count - 1).bit_length())
        beat_bits = max(1, data_max.bit_length())
        self.la1_config = La1Config(
            banks=banks, beat_bits=beat_bits, addr_bits=addr_bits
        )
        self._sim = None
        self._device: Optional[La1Device] = None
        self._phase = 0
        self.reset()

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        sim, clocks, device, __ = build_la1_system(self.la1_config)
        self._sim = sim
        self._device = device
        self._clocks = clocks
        sim.initialize()
        # consume the K# edge at t=1 so the next edge is a rising K,
        # matching the ASM's phase-0 start
        sim.run(1)
        self._phase = 0

    def _addr_index(self, addr_value) -> int:
        return self.asm_config.addr_values.index(addr_value)

    def _apply(self, rule_name: str, args: dict) -> None:
        device = self._device
        sim = self._sim
        if rule_name == "EdgeK":
            rsel = args.get("rsel", -1)
            wsel = args.get("wsel", -1)
            if rsel >= 0:
                device.r_sel[rsel].write(True)
                device.addr_bus.write(self._addr_index(args["raddr"]))
            if wsel >= 0:
                device.w_sel[wsel].write(True)
            sim.run(1)  # the rising K edge
            for sig in device.r_sel:
                if sig.read():
                    sig.write(False)
            for sig in device.w_sel:
                if sig.read():
                    sig.write(False)
            self._phase = 1
        elif rule_name == "EdgeKSharp":
            # present the write address and the abstract word as beat 0
            device.addr_bus.write(self._addr_index(args["waddr"]))
            device.wdata_bus.write(int(args["wdata"]))
            device.bw_bus.write((1 << self.la1_config.byte_lanes) - 1)
            sim.run(1)  # the rising K# edge
            # beat 1 (sampled at the next K edge) is zero
            device.wdata_bus.write(0)
            self._phase = 0
        else:
            raise ValueError(f"unknown rule {rule_name}")

    # ------------------------------------------------------------------
    def observe(self) -> dict:
        device = self._device
        config = self.asm_config
        obs: dict = {"phase": self._phase}
        beat_mask = (1 << self.la1_config.beat_bits) - 1
        for b in range(config.banks):
            rport = device.banks[b].read_port
            wport = device.banks[b].write_port
            stage = rport._stage
            if stage == "idle":
                obs[f"rp{b}"] = ("idle",)
            elif stage == "req":
                obs[f"rp{b}"] = ("req", config.addr_values[rport._addr])
            else:
                obs[f"rp{b}"] = (
                    stage,
                    config.addr_values[rport._addr],
                    rport._word & beat_mask,
                )
            wstage = wport._stage
            if wstage == "idle":
                obs[f"wp{b}"] = ("idle",)
            elif wstage == "sel":
                obs[f"wp{b}"] = ("sel",)
            else:
                obs[f"wp{b}"] = (
                    "data",
                    config.addr_values[wport._addr],
                    wport._beat0,
                )
            obs[f"mem{b}"] = tuple(
                device.banks[b].memory.read(self._addr_index(a)) & beat_mask
                for a in config.addr_values
            )
            obs[f"wcommit{b}"] = bool(wport.stat_write_commit.read())
        return obs


def check_la1_conformance(
    asm_config: Optional[La1AsmConfig] = None,
    max_depth: int = 6,
    max_paths: int = 4000,
) -> ConformanceResult:
    """Co-execute the ASM and SystemC LA-1 models over all edge sequences
    up to ``max_depth`` half-cycles."""
    asm_config = asm_config or La1AsmConfig(banks=1)
    machine = build_la1_asm(asm_config)
    implementation = La1SyscImplementation(asm_config)
    return check_conformance(
        machine,
        implementation,
        observables_for(asm_config.banks),
        max_depth=max_depth,
        max_paths=max_paths,
    )
