"""Ablation and extension studies."""

import pytest

from repro.experiments.ablations import run_exposure_sensitivity


class TestSuperpipelineAblation:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("ablation_superpipeline")

    def test_all_frontend_is_best(self, result):
        net = {row[0]: row[4] for row in result.rows}
        assert net["all_frontend"] == max(
            net[v] for v in ("none", "fetch1_only", "fetch1+fetch3", "all_frontend")
        )
        assert net["all_frontend"] > 1.2

    def test_partial_splits_gain_nothing(self, result):
        """The three bottleneck stages must all be split together."""
        net = {row[0]: row[4] for row in result.rows}
        assert net["fetch1_only"] < 1.05
        assert net["fetch1+fetch3"] < 1.05

    def test_backend_split_is_a_loss(self, result):
        """300 K Observation #2: pipelining the bypass loop hurts."""
        net = {row[0]: row[4] for row in result.rows}
        assert net["backend_split (hypothetical)"] < 1.0
        freq = {row[0]: row[2] for row in result.rows}
        assert freq["backend_split (hypothetical)"] >= freq["all_frontend"]


class TestCryoBusAblation:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("ablation_cryobus")

    def test_combined_beats_each_alone(self, result):
        rel = {row[1]: row[2] for row in result.rows}
        combined = rel["cooling + topology (CryoBus)"]
        assert combined > rel["cooling only (77 K linear bus)"]
        assert combined > rel["topology only (H-tree, 300 K wires)"]

    def test_each_ingredient_helps(self, result):
        rel = {row[1]: row[2] for row in result.rows}
        assert rel["cooling only (77 K linear bus)"] > 1.1
        assert rel["topology only (H-tree, 300 K wires)"] > 1.1

    def test_chain_is_monotone_through_cryosp(self, result):
        values = [row[2] for row in result.rows]
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == max(values)


class TestExposureSensitivity:
    def test_headline_stable_across_exposures(self):
        result = run_exposure_sensitivity((0.5, 0.6, 0.7))
        ratios = result.column("combined_vs_300k")
        assert max(ratios) - min(ratios) < 0.5
        for ratio in ratios:
            assert 3.0 < ratio < 4.5


class TestInterleavingSweep:
    def test_more_ways_never_hurt(self, experiment_result):
        means = experiment_result("ablation_interleaving").column("spec_mean_vs_300k")
        assert means == sorted(means)


class TestTechnologyOutlook:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("ext_nodes")

    def test_benefit_erodes_at_14nm(self, result):
        speedups = {row[0]: row[2] for row in result.rows}
        assert speedups["14nm"] < speedups["45nm"]

    def test_thick_wires_restore_the_benefit(self, result):
        speedups = {row[0]: row[2] for row in result.rows}
        assert speedups["14nm, critical wires drawn thick"] == pytest.approx(
            speedups["45nm"]
        )

    def test_speedups_stay_meaningful_everywhere(self, result):
        for row in result.rows:
            assert row[2] > 2.0  # forwarding wire still well worth cooling
            assert row[3] > 2.5  # NoC link too
