"""Core package: superpipelining, IPC model, voltage optimiser, Table 3."""

import pytest

from repro.core.cryosp import CryoSPDesigner
from repro.core.ipc import IPCModel
from repro.core.voltage import VoltageOptimizer
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.pipeline.stages import StageKind, SUPERPIPELINED_STAGES
from repro.tech.constants import T_LN2
from repro.tech.operating_point import OP_300K_NOMINAL, OP_77K_NOMINAL
from repro.workloads.profiles import PARSEC_2_1


@pytest.fixture(scope="module")
def table3():
    return CryoSPDesigner().derive()


class TestSuperpipelinePlan:
    def test_plans_the_papers_three_stages(self, transform):
        plan = transform.plan(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert set(plan.split_stage_names) == set(SUPERPIPELINED_STAGES)

    def test_fetch2_is_residual(self, transform):
        plan = transform.plan(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert "fetch2" in plan.residual_stage_names

    def test_noop_at_300k(self, transform):
        """Frontend superpipelining is meaningless at room temperature."""
        plan = transform.plan(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        assert plan.is_noop

    def test_adds_three_stages(self, transform):
        plan = transform.plan(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert plan.extra_stages == 3
        assert len(plan.stages) == 13 + 3

    def test_children_are_pipelinable_leaves(self, transform):
        plan = transform.plan(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        for spec in plan.stages:
            if "." in spec.name:
                assert spec.pipelinable and spec.split is None

    def test_children_inherit_parent_kind(self, transform):
        plan = transform.plan(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        for spec in plan.stages:
            if spec.name.startswith("fetch1."):
                assert spec.kind is StageKind.FRONTEND


class TestSuperpipelineFrequency:
    def test_61_percent_gain_over_300k(self, transform):
        _, _, after = transform.apply(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert after.frequency_ghz == pytest.approx(6.4, rel=0.05)

    def test_gain_over_77k_baseline(self, transform):
        gain, _, _ = transform.frequency_gain(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert 1.25 < gain < 1.45

    def test_split_stages_meet_target(self, transform):
        plan, _, after = transform.apply(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        for stage in after.stages:
            if "." in stage.name:
                assert stage.total_ps <= plan.target_latency_ps * 1.05


class TestIPCModel:
    def test_superpipelining_cost_anchor(self):
        """Table 3: ~4.2 % IPC loss from the three extra stages."""
        ipc = IPCModel()
        relative = ipc.mean_relative_ipc(SKYLAKE_CONFIG.deepened(3), SKYLAKE_CONFIG)
        assert relative == pytest.approx(0.958, abs=0.015)

    def test_chp_ipc_anchor(self):
        relative = IPCModel().mean_relative_ipc(CRYO_CORE_CONFIG, SKYLAKE_CONFIG)
        assert relative == pytest.approx(0.93, abs=0.015)

    def test_cryosp_ipc_anchor(self):
        relative = IPCModel().mean_relative_ipc(
            CRYO_CORE_CONFIG.deepened(3), SKYLAKE_CONFIG
        )
        assert relative == pytest.approx(0.90, abs=0.015)

    def test_deeper_pipeline_never_raises_ipc(self):
        ipc = IPCModel()
        for profile in PARSEC_2_1:
            assert ipc.core_ipc(SKYLAKE_CONFIG.deepened(3), profile) <= ipc.core_ipc(
                SKYLAKE_CONFIG, profile
            )

    def test_branchy_workloads_pay_more_for_depth(self):
        ipc = IPCModel()
        by_restarts = sorted(PARSEC_2_1, key=lambda p: p.restarts_pki)
        tame, branchy = by_restarts[0], by_restarts[-1]
        deep = SKYLAKE_CONFIG.deepened(3)

        def cost(profile):
            return 1 - ipc.core_ipc(deep, profile) / ipc.core_ipc(SKYLAKE_CONFIG, profile)

        assert cost(branchy) > cost(tame)

    def test_empty_profile_list_raises(self):
        with pytest.raises(ValueError):
            IPCModel().mean_relative_ipc(SKYLAKE_CONFIG, SKYLAKE_CONFIG, profiles=())


class TestVoltageOptimizer:
    def test_respects_power_budget(self):
        optimizer = VoltageOptimizer(PipelineModel())
        result = optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, total_power_budget=1.0)
        assert result.power.total_rel <= 1.0

    def test_tighter_budget_means_lower_frequency(self):
        optimizer = VoltageOptimizer(PipelineModel())
        loose = optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, 1.0)
        tight = optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, 0.5)
        assert tight.frequency_ghz <= loose.frequency_ghz

    def test_rejects_nonpositive_budget(self):
        optimizer = VoltageOptimizer(PipelineModel())
        with pytest.raises(ValueError):
            optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, 0.0)

    def test_infeasible_budget_raises(self):
        optimizer = VoltageOptimizer(PipelineModel())
        with pytest.raises(RuntimeError, match="no feasible"):
            optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, 1e-6)

    def test_vth_floor_honoured(self):
        optimizer = VoltageOptimizer(PipelineModel())
        result = optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, 1.0)
        assert result.vth_v >= 0.25 - 1e-9


class TestTable3Chain:
    def test_five_designs_in_order(self, table3):
        names = [d.name for d in table3.designs()]
        assert names == [
            "300K Baseline",
            "77K Superpipeline",
            "77K Superpipeline+CryoCore",
            "77K CryoSP",
            "CHP-core",
        ]

    def test_baseline_anchors(self, table3):
        base = table3.baseline_300k
        assert base.frequency_ghz == pytest.approx(4.0, rel=0.02)
        assert base.power.total_rel == pytest.approx(1.0, abs=0.02)
        assert base.pipeline_depth == 14

    def test_superpipeline_anchors(self, table3):
        sp = table3.superpipeline_77k
        assert sp.frequency_ghz == pytest.approx(6.4, rel=0.05)
        assert sp.pipeline_depth == 17
        assert sp.power.device_rel == pytest.approx(1.61, rel=0.08)
        assert sp.power.total_rel == pytest.approx(17.15, rel=0.08)

    def test_cryocore_sizing_anchors(self, table3):
        sized = table3.superpipeline_cryocore_77k
        assert sized.config.issue_width == 4
        assert sized.power.device_rel == pytest.approx(0.3575, rel=0.10)

    def test_cryosp_anchors(self, table3):
        cryosp = table3.cryosp
        assert cryosp.frequency_ghz == pytest.approx(7.84, rel=0.05)
        assert cryosp.power.total_rel <= 1.0
        assert cryosp.operating_point.vdd_v == pytest.approx(0.64, abs=0.08)
        assert cryosp.operating_point.vth_v == pytest.approx(0.25, abs=0.01)

    def test_chp_anchors(self, table3):
        chp = table3.chp_core
        assert chp.frequency_ghz == pytest.approx(6.1, rel=0.05)
        assert chp.power.total_rel <= 1.0
        assert chp.pipeline_depth == 14

    def test_cryosp_28_percent_over_chp(self, table3):
        ratio = table3.cryosp.frequency_ghz / table3.chp_core.frequency_ghz
        assert ratio == pytest.approx(1.285, abs=0.07)

    def test_performance_proxy_improves_along_chain(self, table3):
        assert (
            table3.cryosp.performance_proxy
            > table3.chp_core.performance_proxy
            > table3.baseline_300k.performance_proxy
        )
