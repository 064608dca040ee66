"""Cross-module property tests: invariants that must hold end to end."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cacti import CactiModel
from repro.memory.cll_dram import CllDramModel
from repro.pipeline.config import CoreConfig, OperatingPoint, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.power.mcpat import CorePowerModel
from repro.system.config import CHP_77K_CRYOBUS, CHP_77K_MESH
from repro.system.multicore import MulticoreSystem
from repro.workloads.profiles import PARSEC_2_1, WorkloadProfile

temperatures = st.floats(min_value=77.0, max_value=300.0)


@pytest.fixture(scope="module")
def model():
    return PipelineModel()


class TestThermodynamicMonotonicity:
    """Nothing in this repository may get slower when cooled."""

    @settings(max_examples=15, deadline=None)
    @given(t_cold=temperatures, delta=st.floats(min_value=1.0, max_value=200.0))
    def test_pipeline_frequency(self, model, t_cold, delta):
        t_warm = min(t_cold + delta, 300.0)
        op_cold = OperatingPoint("c", t_cold, 1.25, 0.47)
        op_warm = OperatingPoint("w", t_warm, 1.25, 0.47)
        cold = model.evaluate(SKYLAKE_CONFIG, op_cold).frequency_ghz
        warm = model.evaluate(SKYLAKE_CONFIG, op_warm).frequency_ghz
        assert cold >= warm - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(t_cold=temperatures)
    def test_cache_access(self, t_cold):
        cacti = CactiModel()
        assert cacti.optimize(256, OperatingPoint.at(t_cold)).access_ns <= (
            cacti.optimize(256, OperatingPoint.at(300.0)).access_ns + 1e-12
        )

    @settings(max_examples=10, deadline=None)
    @given(t_cold=temperatures)
    def test_dram_access(self, t_cold):
        dram = CllDramModel()
        cold = dram.timing(OperatingPoint.at(t_cold)).access_ns
        assert cold <= dram.timing(OperatingPoint.at(300.0)).access_ns + 1e-12


class TestStructuralMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(width=st.sampled_from([2, 4, 8]))
    def test_narrower_cores_clock_no_slower(self, model, width):
        """Smaller structures mean shorter wires and lighter logic."""
        config = CoreConfig(
            name=f"w{width}",
            issue_width=width,
            pipeline_depth=14,
            load_queue=72,
            store_queue=56,
            issue_queue=97,
            rob_size=224,
            int_regs=180,
            fp_regs=168,
        )
        op = OperatingPoint("77K", 77.0, 1.25, 0.47)
        narrow = model.evaluate(config, op).frequency_ghz
        wide = model.evaluate(SKYLAKE_CONFIG, op).frequency_ghz
        assert narrow >= wide - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(
        vdd=st.floats(min_value=0.7, max_value=1.25),
        freq=st.floats(min_value=1.0, max_value=8.0),
    )
    def test_power_monotone_in_vdd(self, vdd, freq):
        power = CorePowerModel()
        op_low = OperatingPoint("lo", 77.0, vdd, 0.25)
        op_high = OperatingPoint("hi", 77.0, min(vdd + 0.1, 1.35), 0.25)
        low = power.report(SKYLAKE_CONFIG, op_low, freq).device_rel
        high = power.report(SKYLAKE_CONFIG, op_high, freq).device_rel
        assert high >= low


class TestSystemModelSanity:
    @settings(max_examples=10, deadline=None)
    @given(profile=st.sampled_from(PARSEC_2_1))
    def test_snooping_bus_never_loses_to_mesh(self, profile):
        """At PARSEC rates CryoBus dominates the 77 K mesh everywhere."""
        mesh = MulticoreSystem(CHP_77K_MESH).evaluate(profile)
        bus = MulticoreSystem(CHP_77K_CRYOBUS).evaluate(profile)
        assert bus.performance >= mesh.performance

    @settings(max_examples=10, deadline=None)
    @given(
        profile=st.sampled_from(PARSEC_2_1),
        scale=st.floats(min_value=1.05, max_value=2.0),
    )
    def test_more_misses_never_help(self, profile, scale):
        heavier = WorkloadProfile(
            name=profile.name + "+",
            suite=profile.suite,
            base_cpi=profile.base_cpi,
            ilp=profile.ilp,
            restarts_pki=profile.restarts_pki,
            l1d_mpki=profile.l1d_mpki * scale,
            l2_mpki=profile.l2_mpki * scale,
            l3_mpki=profile.l3_mpki * scale,
            barrier_pki=profile.barrier_pki,
            lock_pki=profile.lock_pki,
            sharing_fraction=profile.sharing_fraction,
        )
        system = MulticoreSystem(CHP_77K_MESH)
        assert (
            system.evaluate(heavier).performance
            <= system.evaluate(profile).performance + 1e-9
        )

    @settings(max_examples=8, deadline=None)
    @given(profile=st.sampled_from(PARSEC_2_1))
    def test_injection_rate_consistent_with_ipc(self, profile):
        result = MulticoreSystem(CHP_77K_MESH).evaluate(profile)
        expected = profile.l2_mpki / 1000.0 * result.ipc
        assert result.injection_rate_per_core == pytest.approx(expected, rel=0.15)
