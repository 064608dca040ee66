"""Robustness study: headline results survive perturbed anchors."""

import pytest


@pytest.fixture(scope="module")
def result(experiment_result):
    return experiment_result("robustness")


class TestRobustness:
    def test_frontend_critical_in_every_variant(self, result):
        assert all(result.column("frontend_critical_at_77k"))

    def test_always_exactly_three_splits(self, result):
        assert set(result.column("stages_split")) == {3}

    def test_cryosp_band(self, result):
        for base, cryo in zip(
            result.column("baseline_ghz"), result.column("cryosp_ghz")
        ):
            assert 1.8 <= cryo / base <= 2.1

    def test_reduction_band(self, result):
        for reduction in result.column("reduction_77k"):
            assert 0.14 <= reduction <= 0.25

    def test_wire_anchor_barely_moves_the_frequency(self, result):
        """A +-10% wire-ratio error shifts CryoSP by ~1%, not 10%."""
        by_variant = {row[0]: row[6] for row in result.rows}
        spread = abs(by_variant["semi_ratio x0.9"] - by_variant["semi_ratio x1.1"])
        assert spread / by_variant["nominal"] < 0.05
