"""System-level simulator: Table 4 configs and the multicore CPI model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.system.config import (
    BASELINE_300K_MESH,
    CHP_77K_CRYOBUS,
    CHP_77K_IDEAL,
    CHP_77K_MESH,
    CRYOSP_77K_CRYOBUS,
    CRYOSP_77K_CRYOBUS_2WAY,
    CRYOSP_77K_MESH,
    EVALUATION_SYSTEMS,
    NocSpec,
    SYSTEMS_BY_NAME,
)
from repro.system.multicore import MulticoreSystem
from repro.workloads.prefetch import StridePrefetcher
from repro.workloads.profiles import ALL_SUITES, by_name, PARSEC_2_1

ALL_PROFILES = tuple(profile for suite in ALL_SUITES.values() for profile in suite)


def _demand(system, profile, prefetcher, load):
    """NoC load the cores inject when every access is priced at ``load``."""
    core = system.config.core.config
    split = system._miss_split(profile, prefetcher)
    stack = system._stack_at(
        load,
        profile,
        split,
        system.ipc_model.issue_cpi(core, profile),
        system.ipc_model.restart_cpi(core, profile),
    )
    return system._aggregate_rate(split["noc_requests_pki"] / 1000.0 / stack.total)


class TestTable4Configs:
    def test_five_evaluation_systems(self):
        assert len(EVALUATION_SYSTEMS) == 5

    def test_core_frequencies(self):
        assert BASELINE_300K_MESH.core.frequency_ghz == 4.0
        assert CHP_77K_MESH.core.frequency_ghz == 6.1
        assert CRYOSP_77K_CRYOBUS.core.frequency_ghz == 7.84

    def test_cryosp_is_deep_and_narrow(self):
        config = CRYOSP_77K_CRYOBUS.core.config
        assert config.pipeline_depth == 17
        assert config.issue_width == 4

    def test_protocols_match_fabrics(self):
        assert BASELINE_300K_MESH.noc.protocol == "directory"
        assert CRYOSP_77K_CRYOBUS.noc.protocol == "snoop"

    def test_noc_voltages(self):
        assert CHP_77K_MESH.noc.operating_point.vdd_v == pytest.approx(0.55)
        assert BASELINE_300K_MESH.noc.operating_point.vdd_v == pytest.approx(1.0)

    def test_memory_pairing(self):
        assert BASELINE_300K_MESH.dram.random_access_ns == pytest.approx(60.32)
        assert CHP_77K_MESH.dram.random_access_ns == pytest.approx(15.84)

    def test_with_noc_swaps_fabric(self):
        swapped = BASELINE_300K_MESH.with_noc(CRYOSP_77K_CRYOBUS.noc)
        assert swapped.noc.kind == "cryobus"
        assert swapped.core is BASELINE_300K_MESH.core

    def test_registry_contains_variants(self):
        assert "CryoSP (77K, CryoBus, 2-way)" in SYSTEMS_BY_NAME

    def test_nocspec_validation(self):
        with pytest.raises(ValueError):
            NocSpec("bad", "torus", BASELINE_300K_MESH.noc.operating_point, "directory")
        with pytest.raises(ValueError):
            NocSpec("bad", "mesh", BASELINE_300K_MESH.noc.operating_point, "mosi")


class TestMulticoreEvaluation:
    @pytest.fixture(scope="class")
    def chp_mesh(self):
        return MulticoreSystem(CHP_77K_MESH)

    def test_cpi_stack_components_non_negative(self, chp_mesh):
        stack = chp_mesh.evaluate(by_name("canneal")).cpi_stack
        for value in vars(stack).values():
            assert value >= 0.0

    def test_fractions_sum_to_one(self, chp_mesh):
        fractions = chp_mesh.evaluate(by_name("ferret")).cpi_stack.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        config=st.sampled_from(tuple(SYSTEMS_BY_NAME.values())),
        profile=st.sampled_from(ALL_PROFILES),
        prefetch=st.booleans(),
        fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_equilibrium_is_a_root_or_the_clamp(
        self, config, profile, prefetch, fractions
    ):
        """Demand never rises with load, so the solve lands on its root
        or, when demand at the 98 % clamp still reaches the clamp, on the
        clamp; the injection rate is the returned IPC's."""
        system = MulticoreSystem(config)
        prefetcher = StridePrefetcher() if prefetch else None
        clamp = 0.98 * system.noc.saturation_rate()
        top = clamp
        if not math.isfinite(clamp):  # the ideal NoC never saturates
            top = _demand(system, profile, prefetcher, 0.0)
        low, high = sorted(fraction * top for fraction in fractions)
        assert _demand(system, profile, prefetcher, high) <= _demand(
            system, profile, prefetcher, low
        )

        result = system.evaluate(profile, prefetcher)
        load = result.noc_aggregate_rate
        demand = _demand(system, profile, prefetcher, load)
        assert abs(demand - load) <= 1e-13 * load or (
            load == clamp and demand >= clamp
        )
        requests_pki = system._miss_split(profile, prefetcher)["noc_requests_pki"]
        assert result.injection_rate_per_core == requests_pki / 1000 * result.ipc

    def test_performance_inverse_of_time(self, chp_mesh):
        result = chp_mesh.evaluate(by_name("vips"))
        assert result.performance * result.time_per_kilo_instruction_ns == (
            pytest.approx(1000.0)
        )

    def test_memory_bound_workloads_inject_more(self, chp_mesh):
        heavy = chp_mesh.evaluate(by_name("canneal")).injection_rate_per_core
        light = chp_mesh.evaluate(by_name("blackscholes")).injection_rate_per_core
        assert heavy > light

    def test_rejects_bad_exposure(self):
        with pytest.raises(ValueError):
            MulticoreSystem(CHP_77K_MESH, exposure=0.0)


class TestSystemOrdering:
    """The paper's Fig. 23 ordering must hold for every workload."""

    @pytest.fixture(scope="class")
    def results(self):
        systems = (
            BASELINE_300K_MESH,
            CHP_77K_MESH,
            CRYOSP_77K_MESH,
            CHP_77K_CRYOBUS,
            CRYOSP_77K_CRYOBUS,
        )
        return {
            s.name: MulticoreSystem(s).evaluate_suite(PARSEC_2_1) for s in systems
        }

    def test_cryogenics_beats_300k_everywhere(self, results):
        for profile in PARSEC_2_1:
            assert (
                results["CHP-core (77K, Mesh)"][profile.name].performance
                > results["Baseline (300K, Mesh)"][profile.name].performance
            )

    def test_cryosp_beats_chp_everywhere(self, results):
        for profile in PARSEC_2_1:
            assert (
                results["CryoSP (77K, Mesh)"][profile.name].performance
                > results["CHP-core (77K, Mesh)"][profile.name].performance
            )

    def test_cryobus_beats_mesh_everywhere(self, results):
        for profile in PARSEC_2_1:
            assert (
                results["CHP-core (77K, CryoBus)"][profile.name].performance
                > results["CHP-core (77K, Mesh)"][profile.name].performance
            )

    def test_full_system_is_best_everywhere(self, results):
        for profile in PARSEC_2_1:
            best = results["CryoSP (77K, CryoBus)"][profile.name].performance
            for name, suite in results.items():
                if name != "CryoSP (77K, CryoBus)":
                    assert best >= suite[profile.name].performance

    def test_synergy_on_sync_heavy_workloads(self, results):
        """CryoSP+CryoBus exceeds the product-of-parts on streamcluster."""
        ref = results["CHP-core (77K, Mesh)"]["streamcluster"].performance
        combined = results["CryoSP (77K, CryoBus)"]["streamcluster"].performance / ref
        sp_only = results["CryoSP (77K, Mesh)"]["streamcluster"].performance / ref
        bus_only = results["CHP-core (77K, CryoBus)"]["streamcluster"].performance / ref
        assert combined > sp_only * bus_only


class TestIdealAndInterleaved:
    def test_ideal_noc_is_upper_bound(self):
        ideal = MulticoreSystem(CHP_77K_IDEAL)
        real = MulticoreSystem(CHP_77K_CRYOBUS)
        for profile in PARSEC_2_1[:4]:
            assert (
                ideal.evaluate(profile).performance
                >= real.evaluate(profile).performance
            )

    def test_interleaving_helps_under_prefetch_stress(self):
        prefetcher = StridePrefetcher()
        single = MulticoreSystem(CRYOSP_77K_CRYOBUS)
        double = MulticoreSystem(CRYOSP_77K_CRYOBUS_2WAY)
        profile = by_name("libquantum")
        assert (
            double.evaluate(profile, prefetcher).performance
            >= single.evaluate(profile, prefetcher).performance
        )


class TestConvergenceAndReferenceClock:
    def test_iterations_used_reported(self):
        result = MulticoreSystem(BASELINE_300K_MESH).evaluate(PARSEC_2_1[0])
        assert 1 <= result.iterations_used <= 40

    def test_ideal_noc_clock_derives_from_spec(self):
        from dataclasses import replace

        fast_spec = replace(CHP_77K_IDEAL.noc, reference_clock_ghz=8.0)
        fast = MulticoreSystem(CHP_77K_IDEAL.with_noc(fast_spec))
        default = MulticoreSystem(CHP_77K_IDEAL)
        assert default.noc.clock_ghz == 4.0
        assert fast.noc.clock_ghz == 8.0
        # A faster reference clock shortens multi-flit serialisation, so
        # the ideal fabric can only get better.
        profile = by_name("canneal")
        assert (
            fast.evaluate(profile).performance
            >= default.evaluate(profile).performance
        )

    def test_reference_clock_must_be_positive(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(CHP_77K_IDEAL.noc, reference_clock_ghz=0.0)
