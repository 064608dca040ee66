"""CACTI-like cache timing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cacti import CactiModel
from repro.memory.cache import MEMORY_300K
from repro.tech.operating_point import OP_NOC_300K, OP_NOC_77K, OperatingPoint


@pytest.fixture(scope="module")
def cacti():
    return CactiModel()


class TestGeometryTradeoff:
    def test_banking_shortens_bitlines(self, cacti):
        one = cacti.timing_with_banks(1024, 1)
        many = cacti.timing_with_banks(1024, 16)
        assert many.array_wire_ns < one.array_wire_ns

    def test_banking_lengthens_routing(self, cacti):
        one = cacti.timing_with_banks(1024, 1)
        many = cacti.timing_with_banks(1024, 16)
        assert many.routing_ns > one.routing_ns

    def test_optimum_beats_extremes(self, cacti):
        best = cacti.optimize(1024)
        assert best.access_ns <= cacti.timing_with_banks(1024, 1).access_ns
        assert best.access_ns <= cacti.timing_with_banks(1024, 64).access_ns

    def test_larger_caches_slower(self, cacti):
        sizes = (32, 256, 1024)
        accesses = [cacti.optimize(size).access_ns for size in sizes]
        assert accesses == sorted(accesses)

    def test_larger_caches_more_wire_bound(self, cacti):
        small = cacti.optimize(32).wire_fraction
        large = cacti.optimize(1024).wire_fraction
        assert large > small + 0.2

    def test_rejects_bad_banking(self, cacti):
        with pytest.raises(ValueError):
            cacti.timing_with_banks(1024, 3)
        with pytest.raises(ValueError):
            cacti.timing_with_banks(2, 8)
        with pytest.raises(ValueError):
            cacti.timing_with_banks(0, 1)


class TestTable4Emergence:
    """The 'caches are ~2x faster at 77 K' input of Table 4 emerges.

    Caches run in Table 4's voltage domains, shared with the NoC.
    """

    def test_l3_absolute_latency(self, cacti):
        timing = cacti.optimize(1024, OP_NOC_300K)
        assert timing.access_ns == pytest.approx(MEMORY_300K.l3_latency_ns, rel=0.30)

    def test_l2_absolute_latency(self, cacti):
        timing = cacti.optimize(256, OP_NOC_300K)
        assert timing.access_ns == pytest.approx(MEMORY_300K.l2_latency_ns, rel=0.35)

    def test_cryo_speedups_around_2x(self, cacti):
        speedups = []
        for size in (32, 256, 1024):
            warm = cacti.optimize(size, OP_NOC_300K).access_ns
            cold = cacti.optimize(size, OP_NOC_77K).access_ns
            speedups.append(warm / cold)
        assert 1.5 < speedups[0] < 2.2       # L1: logic-heavy
        assert 1.8 < speedups[1] < 2.8       # L2
        assert 2.0 < speedups[2] < 3.2       # L3 slice: wire-dominated
        mean = sum(speedups) / len(speedups)
        assert mean == pytest.approx(2.0, abs=0.5)

    def test_bigger_caches_gain_more_from_cooling(self, cacti):
        cold = OperatingPoint.at(77.0)
        assert cacti.speedup(1024, cold) > cacti.speedup(32, cold)

    def test_table4_check_helper(self, cacti):
        l1, l2, l3 = cacti.table4_check()
        assert l1 < l2 < l3


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        size=st.sampled_from([32, 64, 128, 256, 512, 1024]),
        temp=st.floats(min_value=77.0, max_value=300.0),
    )
    def test_cooling_never_slows_a_cache(self, cacti, size, temp):
        warm = cacti.optimize(size, OperatingPoint.at(300.0)).access_ns
        cold = cacti.optimize(size, OperatingPoint.at(temp)).access_ns
        assert cold <= warm + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(size=st.sampled_from([32, 128, 512]))
    def test_components_positive(self, cacti, size):
        timing = cacti.optimize(size)
        assert timing.decode_ns > 0
        assert timing.array_wire_ns > 0
        assert timing.sense_ns > 0
        assert timing.routing_ns >= 0
