"""RtlSimulator snapshot/restore round trips on all three backends.

A run that snapshots (with a driven input still unsettled), wanders off
along another stimulus suffix and restores must end exactly where the
straight-line run ends: slot array, edge count, monitor records and, on
bitpar, the accumulated lane fire words.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import La1Config
from repro.core.ovl_bindings import build_la1_top_with_ovl
from repro.dsl.zoo import build_elaborated
from repro.rtl import C, Mux, RtlModule, RtlSimulator, elaborate

BACKENDS = ("interp", "compiled", "bitpar")
LANES = 4


def _monitored() -> RtlModule:
    """An accumulator with monitors that random stimulus fires."""
    m = RtlModule("mon")
    a, b, d = m.input("a"), m.input("b"), m.input("d", 4)
    acc = m.reg("acc", 4)
    m.sync(acc, Mux(a.ref(), acc.ref() + d.ref(), acc.ref()))
    both = m.wire("both")
    m.assign(both, a.ref() & b.ref())
    m.monitors.append((both, "a and b together", "error", "both", "K"))
    full = m.wire("full")
    m.assign(full, acc.ref().eq(C(15, 4)))
    m.monitors.append((full, "acc saturated", "warning", "full", "K"))
    return m


@lru_cache(maxsize=None)
def _design(name):
    if name == "la1":
        # 16 SRAM words: enough read-mux depth for bitpar activity guards
        config = La1Config(banks=1, beat_bits=16, addr_bits=4)
        return elaborate(build_la1_top_with_ovl(config))
    if name == "monitored":
        return elaborate(_monitored())
    return build_elaborated(name).flat


@lru_cache(maxsize=None)
def _sim(name, backend):
    return RtlSimulator(_design(name), backend=backend, lanes=LANES)


def _edges(design):
    return sorted({reg.clock for reg in design.regs})


@st.composite
def _steps(draw, design, max_size):
    """Edges, each preceded by per-lane values for some free inputs."""
    edges = _edges(design)
    steps = []
    for __ in range(draw(st.integers(0, max_size))):
        drives = {}
        for net in design.inputs:
            if draw(st.booleans()):
                value = st.integers(0, (1 << net.width) - 1)
                drives[net.path] = draw(
                    st.lists(value, min_size=LANES, max_size=LANES))
        steps.append((drives, draw(st.sampled_from(edges))))
    return steps


def _drive(sim, drives):
    for path, lane_values in drives.items():
        if sim.backend == "bitpar":
            sim.set_input_lanes(path, lane_values)
        else:
            sim.set_input(path, lane_values[0])


def _run(sim, steps):
    for drives, edge in steps:
        _drive(sim, drives)
        sim.step(edge)


def _state(sim):
    sim.read(sim.design.inputs[0].path)  # settle any pending drive

    def records(items):
        return [(r.name, r.severity, r.time, r.edge) for r in items]

    lane_words = dict(sim._lane_fire_words) if sim.backend == "bitpar" else {}
    return (list(sim._v), sim.edge_count, records(sim.failures),
            records(sim.firings), lane_words)


def _pending_drive(sim, net):
    """Flip bit 0 of ``net`` in every lane, leaving the input dirty."""
    if sim.backend == "bitpar":
        sim.set_input_lanes(net.path, [v ^ 1 for v in sim.read_lanes(net.path)])
    else:
        sim.set_input(net.path, sim.read(net.path) ^ 1)
    assert sim._inputs_dirty


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["fifo", "la1", "monitored"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_round_trip_matches_straight_line(name, backend, data):
    design = _design(name)
    sim = _sim(name, backend)
    prefix = data.draw(_steps(design, 6), "prefix")
    pending = data.draw(st.sampled_from(design.inputs), "pending")
    detour = data.draw(_steps(design, 6), "detour")
    suffix = data.draw(_steps(design, 6), "suffix")

    sim.reset()
    _run(sim, prefix)
    _pending_drive(sim, pending)
    _run(sim, suffix)
    straight = _state(sim)

    sim.reset()
    _run(sim, prefix)
    _pending_drive(sim, pending)
    snapshot = sim.snapshot()
    _run(sim, detour)
    sim.step(_edges(design)[0])
    sim.restore(snapshot)
    assert sim._inputs_dirty
    _run(sim, suffix)
    assert _state(sim) == straight


@pytest.mark.parametrize("backend", BACKENDS)
def test_restore_keeps_the_values_view_live(backend):
    sim = _sim("fifo", backend)
    sim.reset()
    snapshot = sim.snapshot()
    net = sim.design.inputs[0]
    view = sim.values
    sim.set_input(net.path, 1)
    sim.step("K")
    sim.restore(snapshot)
    assert sim.values is view
    assert view[net] == 0


def test_restore_re_raises_pending_guard_flags():
    """A snapshot taken after an input drive, before the settle, must
    bring back the raised activity-guard flag with it: otherwise the
    next settle skips the guarded SRAM read mux and reads a stale word.
    """
    sim = _sim("la1", "bitpar")
    assert sim._bitpar.num_guards > 0
    mem = sim.design.net("la1_top.bank0.sram.mem")
    word_bits = mem.width // 16  # 16 words at addr_bits=4

    def preloaded():
        sim.reset()
        sim.values[mem] = sum((i + 1) << (word_bits * i) for i in range(16))
        sim.read("la1_top.addr")
        sim.set_input("la1_top.addr", 1)  # pending: raises the guard

    preloaded()
    sim.read("la1_top.addr")
    straight = list(sim._v)

    preloaded()
    snapshot = sim.snapshot()
    sim.read("la1_top.addr")  # settles, clearing the guard flag
    sim.set_input("la1_top.addr", 0)
    sim.read("la1_top.addr")
    sim.restore(snapshot)
    sim.read("la1_top.addr")
    assert list(sim._v) == straight
