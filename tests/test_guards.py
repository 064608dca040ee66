"""Physics guardrails: guard contexts, validators, degradation, watchdogs."""

import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.elmore import elmore_delay_ladder, elmore_t50_ladder
from repro.circuits.rc_line import RCLadder
from repro.circuits.simulator import CircuitSimulator
from repro.experiments.base import ExperimentResult
from repro.experiments.engine import ExecutionEngine, ExperimentExecutionError
from repro.experiments.registry import run_experiment
from repro.noc.bus import CryoBusDesign
from repro.noc.flitsim import FlitLevelSimulator
from repro.noc.simulator import NocSimulator
from repro.noc.topology import Mesh
from repro.noc.traffic import make_pattern
from repro.system.config import (
    BASELINE_300K_MESH,
    CHP_77K_CRYOBUS,
    CHP_77K_SHARED_BUS,
)
from repro.system.multicore import (
    CONVERGENCE_RTOL,
    ConvergenceInfo,
    CpiStack,
    MulticoreSystem,
)
from repro.tech import constants as tech_constants
from repro.tech import mosfet as tech_mosfet
from repro.tech.operating_point import OperatingPoint
from repro.util import guards as guards_module
from repro.util.guards import (
    ERROR,
    INFO,
    WARNING,
    GuardContext,
    ModelValidityError,
    ModelWarning,
    SimulationStalled,
    check_operating_point,
    get_guards,
    use_guards,
    validate_operating_point,
    validate_wire_geometry,
    validate_workload_profile,
    warn,
)
from repro.workloads.profiles import WorkloadProfile, by_name


# ---------------------------------------------------------------------------
# Guard context machinery
# ---------------------------------------------------------------------------


class TestGuardContext:
    def test_record_stores_and_counts(self):
        ctx = GuardContext()
        ctx.warn("site.a", "first", severity=WARNING)
        ctx.warn("site.a", "second", severity=ERROR)
        assert ctx.total == 2
        assert ctx.counts() == {INFO: 0, WARNING: 1, ERROR: 1}
        assert [w.message for w in ctx.warnings] == ["first", "second"]

    def test_identical_findings_dedup_in_storage_but_count(self):
        ctx = GuardContext()
        for _ in range(5):
            ctx.warn("site.loop", "same problem", op=(350.0, None, None))
        assert ctx.total == 5
        assert len(ctx.warnings) == 1  # one distinct finding stored

    def test_strict_escalates_non_info(self):
        ctx = GuardContext(strict=True)
        ctx.warn("site", "fyi", severity=INFO)  # info never escalates
        with pytest.raises(ModelValidityError) as excinfo:
            ctx.warn("site", "out of domain", severity=WARNING)
        assert excinfo.value.warning.site == "site"
        assert "out of domain" in str(excinfo.value)

    def test_bounded_storage_reports_dropped(self):
        ctx = GuardContext(max_records=2)
        for idx in range(4):
            ctx.warn("site", f"finding {idx}")
        assert ctx.total == 4
        assert len(ctx.warnings) == 2
        assert ctx.dropped == 2
        # The deque keeps the newest findings.
        assert [w.message for w in ctx.warnings] == ["finding 2", "finding 3"]

    def test_max_records_must_be_positive(self):
        with pytest.raises(ValueError):
            GuardContext(max_records=0)

    def test_use_guards_installs_and_restores(self):
        outer = get_guards()
        with use_guards() as inner:
            assert get_guards() is inner
            assert inner is not outer
            with use_guards(strict=True) as nested:
                assert get_guards() is nested
                assert nested.strict
            assert get_guards() is inner
        assert get_guards() is outer

    def test_module_warn_targets_active_context(self):
        with use_guards() as ctx:
            warn("site.module", "via module helper", op=300.0)
        assert [w.site for w in ctx.warnings] == ["site.module"]
        assert ctx.warnings[0].op == (300.0, None, None)
        # Nothing leaked into the ambient default.
        assert "site.module" not in {w.site for w in get_guards().warnings}

    def test_context_is_thread_local(self):
        with use_guards() as main_ctx:
            seen = {}

            def worker():
                with use_guards() as thread_ctx:
                    warn("site.thread", "from the worker")
                    seen["count"] = thread_ctx.total

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["count"] == 1
            assert main_ctx.total == 0  # the worker's finding stayed there


class TestModelWarning:
    def test_round_trips_through_dict(self):
        original = ModelWarning(
            site="s", message="m", severity=ERROR, op=(77.0, 0.55, 0.32), op_name="p"
        )
        assert ModelWarning.from_dict(original.to_dict()) == original

    def test_round_trips_without_point(self):
        original = ModelWarning(site="s", message="m")
        assert ModelWarning.from_dict(original.to_dict()) == original

    def test_render_mentions_severity_site_and_point(self):
        text = ModelWarning(
            site="metal.wire", message="too cold", op=(4.0, None, None)
        ).render()
        assert "[warning]" in text
        assert "metal.wire" in text
        assert "too cold" in text

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            ModelWarning(site="s", message="m", severity="fatal")


class TestConstantsMirrorTechLayer:
    """guards.py must not import the tech layer, so it mirrors its
    calibration constants; this pins the mirror against drift."""

    def test_hard_range_matches(self):
        assert guards_module.T_HARD_MIN_K == tech_constants.T_MODEL_MIN
        assert guards_module.T_HARD_MAX_K == tech_constants.T_MODEL_MAX

    def test_deep_cryo_floor_matches(self):
        assert guards_module.T_DEEP_CRYO_MIN_K == tech_constants.T_STAGE_MIN

    def test_calibration_anchors_match(self):
        assert guards_module.T_CALIBRATED_MIN_K == tech_constants.T_LN2
        assert guards_module.T_CALIBRATED_MAX_K == tech_constants.T_ROOM

    def test_overdrive_floor_matches(self):
        assert guards_module.MIN_OVERDRIVE_V == tech_mosfet.MIN_OVERDRIVE_V


# ---------------------------------------------------------------------------
# Domain validators
# ---------------------------------------------------------------------------


class TestValidateOperatingPoint:
    def test_clean_point_has_no_findings(self):
        with use_guards() as ctx:
            found = validate_operating_point(OperatingPoint.at(77.0, 0.55, 0.32))
        assert found == ()
        assert ctx.total == 0

    def test_out_of_hard_range_is_error(self):
        found = validate_operating_point((1.0, None, None), guards=GuardContext())
        assert [w.severity for w in found] == [ERROR]
        assert "hard model range" in found[0].message

    def test_deep_cryogenic_stage_domain_is_warning(self):
        """4 K is a modeled thermal stage, not an out-of-range error —
        but the silicon device models carry low calibration confidence
        there, so the guard describes it with a distinct warning tier."""
        found = validate_operating_point((4.0, None, None), guards=GuardContext())
        assert [w.severity for w in found] == [WARNING]
        assert "deep-cryogenic" in found[0].message
        assert "calibration confidence" in found[0].message

    def test_deep_cryo_tier_spans_2_to_60(self):
        for t in (2.0, 30.0, 59.999):
            found = validate_operating_point((t, None, None), guards=GuardContext())
            assert [w.severity for w in found] == [WARNING], t
            assert "deep-cryogenic" in found[0].message, t

    def test_vth_above_vdd_is_error(self):
        found = validate_operating_point((77.0, 0.4, 0.6), guards=GuardContext())
        assert any(w.severity == ERROR and "exceed Vth" in w.message for w in found)

    def test_extrapolation_is_warning(self):
        found = validate_operating_point(
            OperatingPoint.at(350.0), guards=GuardContext()
        )
        assert [w.severity for w in found] == [WARNING]
        assert "extrapolates" in found[0].message

    def test_thin_overdrive_is_warning(self):
        found = validate_operating_point((300.0, 0.50, 0.47), guards=GuardContext())
        assert [w.severity for w in found] == [WARNING]
        assert "overdrive" in found[0].message

    def test_nan_temperature_is_error(self):
        found = validate_operating_point(
            (float("nan"), None, None), guards=GuardContext()
        )
        assert [w.severity for w in found] == [ERROR]
        assert "not physical" in found[0].message

    def test_negative_rails_are_errors(self):
        found = validate_operating_point((77.0, -1.0, -0.3), guards=GuardContext())
        assert {w.severity for w in found} == {ERROR}
        assert len(found) == 2

    def test_bare_temperature_accepted(self):
        found = validate_operating_point(350.0, guards=GuardContext())
        assert found[0].op == (350.0, None, None)

    def test_none_is_a_type_error(self):
        with pytest.raises(TypeError):
            validate_operating_point(None, guards=GuardContext())

    def test_strict_context_raises_on_first_finding(self):
        with use_guards(strict=True):
            with pytest.raises(ModelValidityError):
                validate_operating_point((4.0, None, None))

    def test_check_operating_point_clean_path_records_nothing(self):
        op = OperatingPoint.at(135.0, 0.55, 0.32)
        with use_guards() as ctx:
            assert check_operating_point(op) is op
        assert ctx.total == 0

    def test_check_operating_point_records_extrapolation(self):
        op = OperatingPoint.at(350.0)
        with use_guards() as ctx:
            assert check_operating_point(op, "test.site") is op
        assert [w.site for w in ctx.warnings] == ["test.site"]


class TestValidateWireGeometry:
    def test_clean_length(self):
        assert validate_wire_geometry(6000.0, guards=GuardContext()) == ()

    def test_nonpositive_is_error(self):
        found = validate_wire_geometry(-1.0, guards=GuardContext())
        assert [w.severity for w in found] == [ERROR]

    def test_non_finite_is_error(self):
        found = validate_wire_geometry(float("nan"), guards=GuardContext())
        assert [w.severity for w in found] == [ERROR]

    def test_implausibly_long_is_warning(self):
        found = validate_wire_geometry(
            2e5, layer_name="global", guards=GuardContext()
        )
        assert [w.severity for w in found] == [WARNING]
        assert "global wire" in found[0].message


class TestValidateWorkloadProfile:
    def test_real_profile_is_clean(self):
        assert validate_workload_profile(by_name("canneal"), guards=GuardContext()) == ()

    def test_bad_rates_are_errors(self):
        fake = SimpleNamespace(
            name="bogus",
            base_cpi=0.0,
            ilp=-1.0,
            restarts_pki=-2.0,
            l1d_mpki=1.0,
            l2_mpki=1.0,
            l3_mpki=1.0,
            barrier_pki=0.0,
            lock_pki=0.0,
            sharing_fraction=1.5,
        )
        found = validate_workload_profile(fake, guards=GuardContext())
        severities = [w.severity for w in found]
        assert severities.count(ERROR) == 4  # base_cpi, ilp, restarts, sharing

    def test_non_monotone_miss_chain_is_warning(self):
        fake = SimpleNamespace(
            name="inverted",
            base_cpi=0.5,
            ilp=2.0,
            restarts_pki=1.0,
            l1d_mpki=1.0,
            l2_mpki=5.0,
            l3_mpki=0.5,
            barrier_pki=0.0,
            lock_pki=0.0,
            sharing_fraction=0.1,
        )
        found = validate_workload_profile(fake, guards=GuardContext())
        assert [w.severity for w in found] == [WARNING]
        assert "miss chain" in found[0].message


# ---------------------------------------------------------------------------
# Multicore convergence certificates
# ---------------------------------------------------------------------------


def _heavy_profile() -> WorkloadProfile:
    """Synthetic memory hog that drives a bus fabric past saturation."""
    return WorkloadProfile(
        name="synthetic_hog",
        suite="synthetic",
        base_cpi=0.3,
        ilp=4.0,
        restarts_pki=2.0,
        l1d_mpki=220.0,
        l2_mpki=180.0,
        l3_mpki=40.0,
        barrier_pki=0.0,
        lock_pki=0.0,
        sharing_fraction=0.2,
    )


class TestMulticoreCertificates:
    def test_normal_solve_carries_a_converged_certificate(self):
        result = MulticoreSystem(BASELINE_300K_MESH).evaluate(by_name("canneal"))
        cert = result.convergence
        assert isinstance(cert, ConvergenceInfo)
        assert cert.converged
        assert cert.residual <= 1e-13
        assert not cert.saturation_clamped
        assert result.iterations_used >= 1

    def test_truncated_solve_is_uncertified_and_warns(self, monkeypatch):
        """A demand that jumps across the diagonal has no root: the
        bracket closes on the jump, and the solve stops there with a
        large excess, uncertified."""
        system = MulticoreSystem(CHP_77K_SHARED_BUS)
        canneal = by_name("canneal")
        jump = system.evaluate(canneal).noc_aggregate_rate
        clamp = 0.98 * system.noc.saturation_rate()
        stack_at = system._stack_at
        monkeypatch.setattr(
            system,
            "_stack_at",
            lambda load, *rest: stack_at(0.0 if load < jump else clamp, *rest),
        )
        with use_guards() as ctx:
            result = system.evaluate(canneal)
        cert = result.convergence
        assert not cert.converged
        assert cert.residual > CONVERGENCE_RTOL
        assert not cert.saturation_clamped
        assert "multicore.convergence" in {w.site for w in ctx.warnings}

    def test_saturation_clamp_is_recorded_and_warns(self):
        system = MulticoreSystem(CHP_77K_CRYOBUS)
        with use_guards() as ctx:
            result = system.evaluate(_heavy_profile())
        assert result.convergence.saturation_clamped
        assert "multicore.saturation" in {w.site for w in ctx.warnings}

    def test_early_overshoot_left_behind_is_not_clamped(self):
        """canneal on the 77 K shared bus: its contention-free demand
        overshoots capacity, so the bracket ends on the clamp, but the
        solve settles at about 0.92 of capacity, so neither the
        certificate nor the warnings report saturation."""
        system = MulticoreSystem(CHP_77K_SHARED_BUS)
        canneal = by_name("canneal")
        with use_guards() as ctx:
            result = system.evaluate(canneal)
        assert result.noc_aggregate_rate < 0.98 * system.noc.saturation_rate()
        assert not result.convergence.saturation_clamped
        assert "multicore.saturation" not in {w.site for w in ctx.warnings}

    def test_strict_context_fails_the_saturated_solve(self):
        system = MulticoreSystem(CHP_77K_CRYOBUS)
        with use_guards(strict=True):
            with pytest.raises(ModelValidityError):
                system.evaluate(_heavy_profile())

    def test_zero_stack_fractions_are_zero_not_nan(self):
        stack = CpiStack(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        fractions = stack.fractions()
        assert set(fractions.values()) == {0.0}

    def test_miss_split_clamps_excess_sharing(self):
        system = MulticoreSystem(BASELINE_300K_MESH)
        fake = SimpleNamespace(l2_mpki=10.0, l3_mpki=5.0, sharing_fraction=1.5)
        split = system._miss_split(fake, None)
        assert split["c2c_pki"] == 10.0  # clamped to the misses themselves
        assert split["dram_pki"] == 0.0
        assert split["l3_hit_pki"] == 0.0


# ---------------------------------------------------------------------------
# RC solver degradation
# ---------------------------------------------------------------------------


def _sections(n=16, r=50.0, c=2e-15):
    return [(r, c)] * n


class TestRCLadderDegradation:
    def test_eigensolver_failure_degrades_to_elmore(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        with use_guards() as ctx:
            ladder = RCLadder(100.0, _sections(), load_c_f=1e-15)
            t50 = ladder.crossing_time(0.5)
        assert ladder.degraded
        assert "eigensolver failed" in ladder.degraded_reason
        assert "rc_ladder.degraded" in {w.site for w in ctx.warnings}
        # Single-pole fallback: t50 = ln2 * Elmore tau.
        tau = elmore_delay_ladder(100.0, _sections(), 1e-15)
        assert t50 == pytest.approx(math.log(2.0) * tau, rel=1e-12)

    def test_non_finite_eigenvalues_degrade(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def poisoned(matrix):
            eigvals, eigvecs = real_eigh(matrix)
            return eigvals * np.nan, eigvecs

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        ladder = RCLadder(100.0, _sections())
        ladder.crossing_time(0.5)
        assert ladder.degraded
        assert "non-finite" in ladder.degraded_reason

    def test_degraded_t50_close_to_healthy_solution(self, monkeypatch):
        healthy = RCLadder(100.0, _sections(), load_c_f=1e-15).crossing_time(0.5)
        monkeypatch.setattr(
            np.linalg,
            "eigh",
            lambda *a, **k: (_ for _ in ()).throw(np.linalg.LinAlgError("x")),
        )
        degraded = RCLadder(100.0, _sections(), load_c_f=1e-15).crossing_time(0.5)
        # The fallback is Elmore-accurate: within 15 % of the exact
        # multi-pole answer for a distributed line.
        assert degraded == pytest.approx(healthy, rel=0.15)

    def test_degraded_t50_matches_elmore_t50_estimate(self, monkeypatch):
        monkeypatch.setattr(
            np.linalg,
            "eigh",
            lambda *a, **k: (_ for _ in ()).throw(np.linalg.LinAlgError("x")),
        )
        ladder = RCLadder(100.0, _sections())
        # ln2 vs the 0.69 engineering constant: ~0.5 % apart.
        assert ladder.crossing_time(0.5) == pytest.approx(
            elmore_t50_ladder(100.0, _sections(), 0.0), rel=0.01
        )

    def test_transient_result_carries_the_flag(self, monkeypatch):
        assert not RCLadder(100.0, _sections()).transient().degraded
        monkeypatch.setattr(
            np.linalg,
            "eigh",
            lambda *a, **k: (_ for _ in ()).throw(np.linalg.LinAlgError("x")),
        )
        assert RCLadder(100.0, _sections()).transient().degraded

    def test_bracket_cap_raises_diagnostic(self):
        class Stuck(RCLadder):
            def output_voltage(self, t_s):
                return 0.0  # never crosses any threshold

        ladder = Stuck(100.0, _sections())
        with pytest.raises(RuntimeError, match="doubling"):
            ladder.crossing_time(0.5)

    def test_simulator_propagates_degraded_flag(self, monkeypatch):
        sim = CircuitSimulator()
        clean = sim.simulate_repeated_wire("global", 1000.0, 2, 40.0)
        assert not clean.degraded
        monkeypatch.setattr(
            np.linalg,
            "eigh",
            lambda *a, **k: (_ for _ in ()).throw(np.linalg.LinAlgError("x")),
        )
        degraded = sim.simulate_repeated_wire("global", 1000.0, 2, 40.0)
        assert degraded.degraded
        # The degraded answer is still Elmore-quality.
        assert degraded.delay_ns == pytest.approx(clean.delay_ns, rel=0.15)


# ---------------------------------------------------------------------------
# Simulation watchdogs
# ---------------------------------------------------------------------------


class _BounceMesh(Mesh):
    """Malicious routing: every route ping-pongs between routers 0 and 1,
    so packets destined anywhere else circulate forever (livelock)."""

    def route(self, src_router, dst_router):
        if src_router == 0:
            return [(0, 1, 2.0)]
        return [(src_router, 0, 2.0)]


class TestWatchdogs:
    def test_flit_livelock_raises_stalled_well_before_horizon(self):
        sim = FlitLevelSimulator(_BounceMesh(16))
        pattern = make_pattern("uniform", 16)
        with pytest.raises(SimulationStalled) as excinfo:
            sim.simulate(
                pattern,
                0.05,
                n_cycles=400,
                stall_cycles=256,
                drain_cycles=200_000,
            )
        snapshot = excinfo.value.snapshot
        assert snapshot["cycle"] < 10_000  # horizon is 200 400 cycles
        assert snapshot["stalled_for"] > 256
        assert snapshot["buffered_flits"] + snapshot["in_flight_flits"] > 0

    def test_healthy_mesh_never_trips_the_watchdog(self):
        sim = FlitLevelSimulator(Mesh(16))
        point = sim.simulate(make_pattern("uniform", 16), 0.02, n_cycles=1000)
        assert point.mean_latency_cycles > 0

    def test_stall_cycles_must_be_positive(self):
        sim = FlitLevelSimulator(Mesh(16))
        with pytest.raises(ValueError, match="stall_cycles"):
            sim.simulate(make_pattern("uniform", 16), 0.02, stall_cycles=0)

    def test_broken_bus_arbiter_raises_stalled(self, monkeypatch):
        import repro.noc.simulator as noc_sim

        class DeafArbiter:
            def __init__(self, n_inputs):
                pass

            def request(self, requester):
                pass

            def grant(self):
                return None  # never grants anything

        monkeypatch.setattr(noc_sim, "MatrixArbiter", DeafArbiter)
        sim = NocSimulator(n_cycles=500)
        with pytest.raises(SimulationStalled) as excinfo:
            sim.simulate_bus(
                CryoBusDesign(16), make_pattern("uniform", 16), 0.05,
                hops_per_cycle=12,
            )
        assert "winner" in excinfo.value.snapshot


# ---------------------------------------------------------------------------
# Engine / registry integration
# ---------------------------------------------------------------------------


def _warny() -> ExperimentResult:
    warn("test.extrapolation", "synthetic finding", op=(350.0, None, None))
    result = ExperimentResult("_guards_test_warny", "warny", ("k", "v"))
    result.add_row("a", 1)
    return result


class TestEngineWarningFlow:
    @pytest.fixture
    def warny(self, register_driver):
        register_driver("_guards_test_warny", _warny)

    def test_engine_attaches_warnings_to_results_and_manifest(self, tmp_path, warny):
        engine = ExecutionEngine(jobs=1, use_cache=False, cache_dir=tmp_path)
        outcome = engine.run(["_guards_test_warny"])
        result = outcome.results["_guards_test_warny"]
        assert [w["site"] for w in result.warnings] == ["test.extrapolation"]
        (record,) = outcome.manifest.records
        assert [w["site"] for w in record.warnings] == ["test.extrapolation"]
        assert outcome.manifest.n_model_warnings == 1
        assert "model warnings 1" in outcome.manifest.summary()

    def test_strict_engine_turns_warnings_into_failures(self, tmp_path, warny):
        engine = ExecutionEngine(
            jobs=1, use_cache=False, cache_dir=tmp_path, strict=True
        )
        with pytest.raises(ExperimentExecutionError) as excinfo:
            engine.run(["_guards_test_warny"])
        outcome = excinfo.value.outcome
        assert not outcome.results
        (record,) = outcome.failures
        assert "synthetic finding" in record.error
        assert [w["site"] for w in record.warnings] == ["test.extrapolation"]

    def test_run_experiment_attaches_warnings(self, warny):
        result = run_experiment("_guards_test_warny")
        assert [w["site"] for w in result.warnings] == ["test.extrapolation"]

    def test_clean_experiment_has_no_warnings(self, tmp_path):
        engine = ExecutionEngine(jobs=1, use_cache=False, cache_dir=tmp_path)
        outcome = engine.run(["fig20"])
        assert outcome.results["fig20"].warnings == []
        assert outcome.manifest.n_model_warnings == 0

    def test_experiment_result_warnings_round_trip(self):
        result = ExperimentResult("x", "t", ("a",), warnings=[{"site": "s"}])
        result.add_row(1)
        assert ExperimentResult.from_dict(result.to_dict()) == result
        assert ExperimentResult.from_json(result.to_json()) == result
