"""Pipeline package: configs, floorplan, stage model, critical paths."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.config import (
    CRYO_CORE_CONFIG,
    CoreConfig,
    OP_300K_NOMINAL,
    OP_77K_NOMINAL,
    OperatingPoint,
    SKYLAKE_CONFIG,
)
from repro.pipeline.floorplan import (
    ALU_GEOMETRY,
    REGFILE_GEOMETRY,
    SKYLAKE_FLOORPLAN,
    UnitGeometry,
)
from repro.pipeline.stages import (
    BOOM_STAGES,
    FIG2_STAGES,
    StageKind,
    SUPERPIPELINED_STAGES,
    stage_by_name,
)


class TestCoreConfig:
    def test_skylake_matches_table3(self):
        assert SKYLAKE_CONFIG.issue_width == 8
        assert SKYLAKE_CONFIG.pipeline_depth == 14
        assert SKYLAKE_CONFIG.rob_size == 224
        assert SKYLAKE_CONFIG.int_regs == 180

    def test_cryocore_halved(self):
        assert CRYO_CORE_CONFIG.issue_width == 4
        assert CRYO_CORE_CONFIG.rob_size == 96

    def test_ratios(self):
        assert CRYO_CORE_CONFIG.width_ratio == pytest.approx(0.5)
        assert SKYLAKE_CONFIG.width_ratio == pytest.approx(1.0)

    def test_deepened(self):
        deeper = SKYLAKE_CONFIG.deepened(3)
        assert deeper.pipeline_depth == 17
        assert deeper.issue_width == SKYLAKE_CONFIG.issue_width

    def test_deepened_rejects_negative(self):
        with pytest.raises(ValueError):
            SKYLAKE_CONFIG.deepened(-1)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            CoreConfig("bad", 0, 14, 72, 56, 97, 224, 180, 168)

    def test_operating_point_rejects_vdd_below_vth(self):
        with pytest.raises(ValueError):
            OperatingPoint("bad", 300.0, vdd_v=0.4, vth_v=0.5)

    def test_cryogenic_flag(self):
        assert OP_77K_NOMINAL.is_cryogenic
        assert not OP_300K_NOMINAL.is_cryogenic


class TestFloorplan:
    def test_table1_geometry(self):
        assert ALU_GEOMETRY.area_um2 == pytest.approx(25_757.0)
        assert REGFILE_GEOMETRY.height_um == pytest.approx(1090.0)

    def test_forwarding_wire_8wide_anchor(self):
        """Table 1: the forwarding wire is ~1686 um for the 8-wide core."""
        length = SKYLAKE_FLOORPLAN.forwarding_wire_length_um(SKYLAKE_CONFIG)
        assert length == pytest.approx(1686.0, abs=10.0)

    def test_forwarding_wire_shrinks_with_cryocore(self):
        length = SKYLAKE_FLOORPLAN.forwarding_wire_length_um(CRYO_CORE_CONFIG)
        assert 850.0 < length < 950.0

    def test_adjacency_is_symmetric(self):
        assert SKYLAKE_FLOORPLAN.are_adjacent("decoder", "rename")
        assert SKYLAKE_FLOORPLAN.are_adjacent("rename", "decoder")

    def test_non_adjacent_units(self):
        assert not SKYLAKE_FLOORPLAN.are_adjacent("alu", "btb")

    def test_unknown_unit_raises(self):
        with pytest.raises(KeyError):
            SKYLAKE_FLOORPLAN.unit("fpu")

    def test_geometry_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            UnitGeometry("bad", area_um2=100.0, width_um=100.0, height_um=100.0)


class TestStageCatalogue:
    def test_thirteen_stages(self):
        assert len(BOOM_STAGES) == 13

    def test_five_frontend_eight_backend(self):
        frontend = [s for s in BOOM_STAGES if s.kind is StageKind.FRONTEND]
        backend = [s for s in BOOM_STAGES if s.kind is StageKind.BACKEND]
        assert len(frontend) == 5
        assert len(backend) == 8

    def test_forwarding_stages_unpipelinable(self):
        for name in FIG2_STAGES:
            stage = stage_by_name(name)
            assert not stage.pipelinable
            assert stage.unpipelinable_reason

    def test_superpipelined_stages_carry_splits(self):
        for name in SUPERPIPELINED_STAGES:
            assert stage_by_name(name).split is not None

    def test_fetch2_has_no_split(self):
        """The I-cache array access cannot be split (SRAM macro)."""
        assert stage_by_name("fetch2").split is None

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            stage_by_name("retire")

    def test_width_scaling_shrinks_transistor_delay(self):
        stage = stage_by_name("execute_bypass")
        assert stage.transistor_delay_ps(CRYO_CORE_CONFIG) < stage.transistor_delay_ps(
            SKYLAKE_CONFIG
        )

    def test_wire_spec_scaling_modes(self):
        forwarding = stage_by_name("execute_bypass").wire
        assert forwarding.length_um(SKYLAKE_CONFIG, 1686.0) == pytest.approx(1686.0)
        issue = stage_by_name("issue_select").wire
        full = issue.length_um(SKYLAKE_CONFIG, 0.0)
        shrunk = issue.length_um(CRYO_CORE_CONFIG, 0.0)
        assert shrunk == pytest.approx(full * 72 / 97)


class TestCriticalPath300K:
    def test_baseline_clocks_4ghz(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        assert report.frequency_ghz == pytest.approx(4.0, rel=0.02)

    def test_backend_forwarding_stage_is_critical(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        assert report.critical_stage.name in FIG2_STAGES + ("execute_bypass",)
        assert not report.critical_stage.pipelinable

    def test_fig2_wire_fraction_anchor(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        fractions = [report.stage(n).wire_fraction for n in FIG2_STAGES]
        mean = sum(fractions) / len(fractions)
        assert mean == pytest.approx(0.576, abs=0.04)

    def test_frontend_wire_share_anchor(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        assert report.mean_wire_fraction(StageKind.FRONTEND) == pytest.approx(
            0.19, abs=0.04
        )

    def test_backend_wire_share_anchor(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        assert report.mean_wire_fraction(StageKind.BACKEND) == pytest.approx(
            0.45, abs=0.06
        )


class TestCriticalPath77K:
    def test_critical_moves_to_frontend(self, pipeline_model):
        """77K Observation #1: transistor-bound frontend limits frequency."""
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert report.critical_stage.kind is StageKind.FRONTEND

    def test_max_delay_reduction_anchor(self, pipeline_model):
        warm = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        cold = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        reduction = 1.0 - cold.max_delay_ps / warm.max_delay_ps
        assert reduction == pytest.approx(0.19, abs=0.03)

    def test_forwarding_stages_collapse(self, pipeline_model):
        """Backend forwarding stages shed far more delay than frontend."""
        warm = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        cold = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        backend_gain = warm.stage("execute_bypass").total_ps / cold.stage(
            "execute_bypass"
        ).total_ps
        frontend_gain = warm.stage("fetch1").total_ps / cold.stage("fetch1").total_ps
        assert backend_gain > frontend_gain + 0.3

    def test_every_stage_faster_cold(self, pipeline_model):
        warm = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        cold = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        for stage in warm.stages:
            assert cold.stage(stage.name).total_ps < stage.total_ps

    def test_unpipelinable_target(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        target = report.unpipelinable_backend_max_ps()
        assert target < report.max_delay_ps  # frontend above the target


class TestReportAccessors:
    def test_stage_lookup_raises_for_unknown(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        with pytest.raises(KeyError):
            report.stage("nonexistent")

    def test_wire_fraction_bounds(self, pipeline_model):
        report = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        for stage in report.stages:
            assert 0.0 <= stage.wire_fraction <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(temp=st.floats(min_value=77.0, max_value=300.0))
    def test_frequency_monotone_in_temperature(self, pipeline_model, temp):
        op = OperatingPoint("t", temp, 1.25, 0.47)
        warm = pipeline_model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        cold = pipeline_model.evaluate(SKYLAKE_CONFIG, op)
        assert cold.frequency_ghz >= warm.frequency_ghz - 1e-9


class TestBatchEvaluation:
    @settings(max_examples=20, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=77.0, max_value=300.0),
                st.floats(min_value=0.8, max_value=1.25),
                st.floats(min_value=0.25, max_value=0.47),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_batch_rows_equal_scalar_reports(self, pipeline_model, points):
        ops = [
            OperatingPoint(f"p{i}", t, vdd, vth) for i, (t, vdd, vth) in enumerate(points)
        ]
        batch = pipeline_model.evaluate_batch(CRYO_CORE_CONFIG, ops)
        assert len(batch) == len(ops)
        frequencies = batch.frequency_ghz.tolist()
        for i, op in enumerate(ops):
            scalar = pipeline_model.evaluate(CRYO_CORE_CONFIG, op)
            assert batch[i] == scalar  # bit-identical, names kept
            assert frequencies[i] == scalar.frequency_ghz

    def test_empty_batch(self, pipeline_model):
        batch = pipeline_model.evaluate_batch(SKYLAKE_CONFIG, [])
        assert len(batch) == 0
        assert batch.frequency_ghz.shape == (0,)
