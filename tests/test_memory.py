"""Memory substrate: caches, DRAM, hierarchy latency composition."""

import pytest

from repro.memory.cache import (
    CacheDesign,
    FunctionalCache,
    MEMORY_300K,
    MEMORY_77K,
)
from repro.memory.dram import DRAM_300K, DRAM_77K, DramDesign
from repro.memory.hierarchy import MemoryHierarchy
from repro.noc.bus import CryoBusDesign
from repro.noc.latency import AnalyticNocModel, IdealNoc
from repro.noc.topology import Mesh
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import OP_NOC_77K, OP_ROOM


class TestCacheDesigns:
    def test_table4_latencies_300k(self):
        assert MEMORY_300K.l1.latency_cycles_at_4ghz == 4.0
        assert MEMORY_300K.l2.latency_cycles_at_4ghz == 12.0
        assert MEMORY_300K.l3.latency_cycles_at_4ghz == 20.0

    def test_77k_memory_twice_as_fast(self):
        assert MEMORY_77K.l1_latency_ns == pytest.approx(MEMORY_300K.l1_latency_ns / 2)
        assert MEMORY_77K.l3_latency_ns == pytest.approx(MEMORY_300K.l3_latency_ns / 2)

    def test_latency_in_ns(self):
        assert MEMORY_300K.l3_latency_ns == pytest.approx(5.0)


class TestFunctionalCache:
    def test_miss_then_hit(self):
        cache = FunctionalCache(32)
        assert cache.lookup(0x1000) is None
        cache.insert(0x1000, "payload")
        assert cache.lookup(0x1000) == "payload"

    def test_same_line_aliases(self):
        cache = FunctionalCache(32)
        cache.insert(0x1000, "p")
        assert cache.lookup(0x103F) == "p"  # same 64 B line
        assert cache.lookup(0x1040) is None

    def test_lru_eviction_order(self):
        cache = FunctionalCache(32, associativity=2)
        set_stride = cache.n_sets * FunctionalCache.LINE_BYTES
        a, b, c = 0, set_stride, 2 * set_stride  # same set
        cache.insert(a, "a")
        cache.insert(b, "b")
        cache.lookup(a)  # refresh a
        victim = cache.insert(c, "c")
        assert victim is not None
        assert victim[1] == "b"

    def test_invalidate(self):
        cache = FunctionalCache(32)
        cache.insert(0x40, "x")
        assert cache.invalidate(0x40) == "x"
        assert cache.lookup(0x40) is None
        assert cache.invalidate(0x40) is None

    def test_len_counts_lines(self):
        cache = FunctionalCache(32)
        for i in range(10):
            cache.insert(i * 64, i)
        assert len(cache) == 10

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            FunctionalCache(0)
        with pytest.raises(ValueError):
            FunctionalCache(32, associativity=7)  # does not divide lines


class TestDram:
    def test_table4_latencies(self):
        assert DRAM_300K.random_access_ns == pytest.approx(60.32)
        assert DRAM_77K.random_access_ns == pytest.approx(15.84)

    def test_cll_dram_3_8x_faster(self):
        assert DRAM_300K.random_access_ns / DRAM_77K.random_access_ns == pytest.approx(
            3.81, abs=0.05
        )

    def test_queueing_adds_latency(self):
        assert DRAM_77K.access_latency_ns(2.0) > DRAM_77K.access_latency_ns(0.0)

    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError):
            DRAM_77K.access_latency_ns(-1.0)

    def test_rejects_bad_design(self):
        with pytest.raises(ValueError):
            DramDesign("bad", random_access_ns=0.0)


def _mesh_hierarchy(temperature):
    noc = AnalyticNocModel(
        topology=Mesh(64), op=OP_NOC_77K if temperature < 200 else OP_ROOM
    )
    caches = MEMORY_77K if temperature < 200 else MEMORY_300K
    dram = DRAM_77K if temperature < 200 else DRAM_300K
    return MemoryHierarchy(caches, dram, noc, "directory")


def _cryobus_hierarchy():
    noc = AnalyticNocModel(
        bus=CryoBusDesign(64), op=OP_NOC_77K
    )
    return MemoryHierarchy(MEMORY_77K, DRAM_77K, noc, "snoop")


class TestHierarchy:
    def test_rejects_unknown_protocol(self):
        noc = IdealNoc()
        with pytest.raises(ValueError):
            MemoryHierarchy(MEMORY_77K, DRAM_77K, noc, "token")

    def test_snoop_rejects_router_fabric(self):
        noc = AnalyticNocModel(topology=Mesh(64), op=OP_ROOM)
        with pytest.raises(ValueError):
            MemoryHierarchy(MEMORY_300K, DRAM_300K, noc, "snoop")

    def test_snoop_accepts_ideal_fabric(self):
        MemoryHierarchy(MEMORY_77K, DRAM_77K, IdealNoc(), "snoop")

    def test_miss_costs_more_than_hit(self):
        hierarchy = _mesh_hierarchy(T_LN2)
        assert hierarchy.l3_miss().total_ns > hierarchy.l3_hit().total_ns

    def test_mesh77_hit_is_noc_dominated(self):
        """Fig. 16: NoC takes ~70 % of the 77 K mesh's L3 hit latency."""
        fraction = _mesh_hierarchy(T_LN2).l3_hit().noc_fraction
        assert fraction == pytest.approx(0.717, abs=0.08)

    def test_mesh77_miss_noc_fraction(self):
        fraction = _mesh_hierarchy(T_LN2).l3_miss().noc_fraction
        assert fraction == pytest.approx(0.404, abs=0.15)

    def test_cryobus_hit_beats_mesh(self):
        assert (
            _cryobus_hierarchy().l3_hit().total_ns
            < _mesh_hierarchy(T_LN2).l3_hit().total_ns
        )

    def test_snoop_c2c_avoids_indirection(self):
        """One broadcast vs three directory traversals."""
        mesh = _mesh_hierarchy(T_LN2).cache_to_cache()
        bus = _cryobus_hierarchy().cache_to_cache()
        assert bus.noc_ns < mesh.noc_ns / 2

    def test_barrier_far_cheaper_on_snooping_bus(self):
        mesh = _mesh_hierarchy(T_LN2).barrier_ns(64)
        bus = _cryobus_hierarchy().barrier_ns(64)
        assert bus < mesh / 5

    def test_barrier_zero_for_single_core(self):
        assert _cryobus_hierarchy().barrier_ns(1) == 0.0

    def test_lock_cheaper_on_snooping_bus(self):
        mesh = _mesh_hierarchy(T_LN2).lock_ns()
        bus = _cryobus_hierarchy().lock_ns()
        assert bus < mesh / 5

    def test_lock_rejects_bad_contenders(self):
        with pytest.raises(ValueError):
            _cryobus_hierarchy().lock_ns(contenders=0)

    def test_load_increases_latency(self):
        hierarchy = _cryobus_hierarchy()
        assert hierarchy.l3_hit(0.8).total_ns > hierarchy.l3_hit(0.0).total_ns

    def test_breakdown_addition(self):
        breakdown = _mesh_hierarchy(T_ROOM).l3_miss()
        assert breakdown.total_ns == pytest.approx(
            breakdown.noc_ns + breakdown.cache_ns + breakdown.dram_ns
        )
