"""Structural toggle coverage: the two simulator backends must produce
bit-identical toggle sets (the probe is codegen'd on the compiled
backend, a plain loop on the interpreter), and the normalized
``RtlSimulator.stats()`` contract must hold on both."""

import pytest

from repro.core import La1Config, RtlHost, build_la1_top_with_ovl
from repro.core.traffic import queue_traffic
from repro.cover import CoverageDB, ToggleCollector, compile_toggle_probe
from repro.rtl import RtlSimulator, elaborate


def _config(banks: int) -> La1Config:
    return La1Config(banks=banks, beat_bits=16, addr_bits=3)


def _collect(banks: int, backend: str, traffic: int = 24, seed: int = 2004,
             nets: str = "state"):
    """Table 3 workload (seeded random read/write traffic) with a toggle
    collector attached; returns (sim, collector)."""
    config = _config(banks)
    sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                       backend=backend)
    host = RtlHost(sim, config)
    collector = ToggleCollector(sim, nets=nets)
    queue_traffic(host, config, traffic, seed)
    host.run_until_idle()
    assert sim.ok, sim.failures[:3]
    return sim, collector


class TestBackendDifferential:
    @pytest.mark.parametrize("banks", [1, 2, 4])
    def test_toggle_sets_identical_across_backends(self, banks):
        __, interp = _collect(banks, "interp")
        __, compiled = _collect(banks, "compiled")
        assert interp.toggles() == compiled.toggles()

    def test_harvests_identical_across_backends(self):
        __, interp = _collect(2, "interp")
        __, compiled = _collect(2, "compiled")
        di, dc = interp.harvest(), compiled.harvest()
        assert set(di.points) == set(dc.points)
        assert di.covered_keys() == dc.covered_keys()
        assert di.coverage() == dc.coverage()

    def test_traffic_actually_toggles_nets(self):
        __, collector = _collect(2, "compiled")
        db = collector.harvest()
        covered, total = db.counts()
        assert total > 0
        assert 0 < covered < total  # real activity, real holes
        assert all(key.startswith("rtl.toggle.") for key in db.points)
        assert any(key.endswith(".rose") for key in db.covered_keys())
        assert any(key.endswith(".fell") for key in db.covered_keys())


class TestCollectorMechanics:
    def test_compiled_probe_accumulates_masks(self):
        design = elaborate(build_la1_top_with_ovl(_config(1)))
        sim = RtlSimulator(design, backend="compiled")
        tracked = list(design.regs)[:4]
        probe = compile_toggle_probe(tracked)
        n = design.num_slots
        prev, rose, fell = list(sim._v), [0] * n, [0] * n
        v = list(sim._v)
        slot = tracked[0].slot
        v[slot] = prev[slot] ^ 0b101
        probe(v, prev, rose, fell)
        assert rose[slot] | fell[slot] == 0b101
        assert prev[slot] == v[slot]

    def test_detach_stops_probing(self):
        config = _config(1)
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                           backend="compiled")
        host = RtlHost(sim, config)
        collector = ToggleCollector(sim)
        host.read(0, 0)
        host.run_until_idle()
        calls = collector.probe_calls
        assert calls > 0
        collector.detach()
        host.read(0, 1)
        host.run_until_idle()
        assert collector.probe_calls == calls

    def test_reset_forgets_toggles(self):
        __, collector = _collect(1, "compiled", traffic=8)
        assert any(r or f for r, f in collector.toggles().values())
        collector.reset()
        assert all(r == 0 and f == 0
                   for r, f in collector.toggles().values())
        assert collector.probe_calls == 0

    def test_explicit_net_selection(self):
        config = _config(1)
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                           backend="compiled")
        path = "la1_top.bank0.read_port.st_fetch"
        collector = ToggleCollector(sim, nets=[path])
        assert [flat.path for flat in collector.tracked] == [path]
        db = collector.harvest()
        assert set(db.points) == {f"rtl.toggle.{path}.0.rose",
                                  f"rtl.toggle.{path}.0.fell"}

    def test_shard_merge_losslessness(self):
        """Two independently collected shards merge to summed hits."""
        __, a = _collect(1, "compiled", seed=1, traffic=10)
        __, b = _collect(1, "compiled", seed=2, traffic=10)
        da, db_ = a.harvest(), b.harvest()
        merged = CoverageDB.merged([da, db_])
        assert merged.total_hits() == da.total_hits() + db_.total_hits()


class TestStatsNormalization:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_stats_keys_identical_across_backends(self, backend):
        sim, __ = _collect(1, backend, traffic=6)
        stats = sim.stats()
        assert set(stats) == set(RtlSimulator.STATS_KEYS)
        assert stats["backend"] == backend

    def test_probe_overhead_counters(self):
        config = _config(1)
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                           backend="compiled")
        host = RtlHost(sim, config)
        assert sim.stats()["cover_collectors"] == 0
        assert sim.stats()["cover_tracked_nets"] == 0
        collector = ToggleCollector(sim)
        stats = sim.stats()
        assert stats["cover_collectors"] == 1
        assert stats["cover_tracked_nets"] == len(collector.tracked)
        host.read(0, 0)
        host.run_until_idle()
        stats = sim.stats()
        assert stats["cover_probe_calls"] == collector.probe_calls > 0
        collector.detach()
        stats = sim.stats()
        assert stats["cover_collectors"] == 0
        assert stats["cover_tracked_nets"] == 0
