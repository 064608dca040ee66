"""Experiment drivers: every figure/table reproduces the paper's shape."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment


class TestFramework:
    def test_registry_covers_every_figure_and_table(self):
        expected = {
            "fig02", "fig03", "fig05", "fig09", "fig10", "fig12_14",
            "fig16", "fig17", "fig18", "fig20", "fig21", "fig22",
            "fig23", "fig24", "fig25", "fig26", "fig27",
            "table1", "table3", "table4",
            "ablation_superpipeline", "ablation_cryobus",
            "ablation_exposure", "ablation_interleaving", "ext_nodes",
            "robustness", "stage_assignment",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="available"):
            get_experiment("fig99")

    def test_result_row_width_checked(self):
        result = ExperimentResult("x", "t", ("a", "b"))
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_result_lookup(self):
        result = ExperimentResult("x", "t", ("k", "v"))
        result.add_row("one", 1.0)
        assert result.lookup("k", "one", "v") == 1.0
        with pytest.raises(KeyError):
            result.lookup("k", "two", "v")
        with pytest.raises(KeyError):
            result.column("w")

    def test_to_json_roundtrip(self):
        import json

        result = ExperimentResult("x", "t", ("k", "v"), paper_reference={"a": 1.0})
        result.add_row("one", 2.5)
        data = json.loads(result.to_json())
        assert data["experiment_id"] == "x"
        assert data["rows"] == [["one", 2.5]]
        assert data["paper_reference"] == {"a": 1.0}

    def test_to_csv(self):
        result = ExperimentResult("x", "t", ("k", "v"))
        result.add_row("one", 2.5)
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "k,v"
        assert lines[1] == "one,2.5"

    def test_to_text_renders(self):
        result = ExperimentResult("x", "title", ("k",), paper_reference={"r": 1.0})
        result.add_row("cell")
        text = result.to_text()
        assert "title" in text and "cell" in text and "r=1" in text


class TestFig02:
    def test_wire_fraction_anchor(self, experiment_result):
        """Wire, not transistors, dominates every forwarding stage."""
        result = experiment_result("fig02")
        for stage, transistor_ps, wire_ps, total_ps, _ in result.rows[:-1]:
            assert wire_ps > transistor_ps
            assert total_ps == transistor_ps + wire_ps


class TestFig03:
    def test_noc_fraction_anchors(self, experiment_result):
        result = experiment_result("fig03")
        stacks = [row for row in result.rows if row[0] != "mean"]
        for row in stacks:
            assert sum(row[1:8]) == pytest.approx(1.0)  # normalised CPI stack
            assert row[-1] == pytest.approx(row[4] + row[7])  # noc + sync
        mean = result.lookup("workload", "mean", "noc_plus_sync")
        assert mean == pytest.approx(sum(r[-1] for r in stacks) / len(stacks))


class TestFig05:
    def test_anchors(self, experiment_result):
        result = experiment_result("fig05")
        rows = [r for r in result.rows if r[0] == "semi_global_repeated"]
        semi = dict((r[1], r[2]) for r in rows)[900.0]
        rows = [r for r in result.rows if r[0] == "global_repeated"]
        glob = dict((r[1], r[2]) for r in rows)[6220.0]
        assert 1.0 < semi < glob

    def test_unrepeated_maxima(self, experiment_result):
        result = experiment_result("fig05")
        local = max(r[2] for r in result.rows if r[0] == "local_unrepeated")
        semi = max(r[2] for r in result.rows if r[0] == "semi_global_unrepeated")
        assert local <= 2.96
        assert semi <= 3.70


class TestFig09:
    def test_all_validations_within_6_percent(self, experiment_result):
        result = experiment_result("fig09")
        for error in result.column("error"):
            assert error < 0.06


class TestFig10:
    def test_link_validation(self, experiment_result):
        result = experiment_result("fig10")
        assert result.column("error")[0] < 0.05


class TestFig12_14:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("fig12_14")

    def test_300k_max_is_unity(self, result):
        totals = [r[5] for r in result.rows if r[0] == "fig12_300K"]
        assert max(totals) == pytest.approx(1.0)

    def test_77k_reduction(self, result):
        """Cooling shortens the critical path and moves it to the frontend."""
        warm = max((r for r in result.rows if r[0] == "fig12_300K"), key=lambda r: r[5])
        cold = max((r for r in result.rows if r[0] == "fig13_77K"), key=lambda r: r[5])
        assert cold[5] < warm[5]
        assert (warm[2], cold[2]) == ("backend", "frontend")

    def test_superpipelined_reduction(self, result):
        cold = [r[5] for r in result.rows if r[0] == "fig13_77K"]
        totals = [r[5] for r in result.rows if r[0] == "fig14_superpipelined_77K"]
        assert max(totals) < max(cold)

    def test_superpipelined_has_16_stages(self, result):
        rows = [r for r in result.rows if r[0] == "fig14_superpipelined_77K"]
        assert len(rows) == 16


class TestFig16:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("fig16")

    def test_mesh77_noc_dominates_hit(self, result):
        row = [r for r in result.rows if r[0] == "mesh" and r[1] == 77.0][0]
        assert row[5] > 0.5  # hit noc fraction

    def test_bus_nearly_reaches_zero_noc(self, result):
        bus = [r for r in result.rows if r[0] == "shared_bus" and r[1] == 77.0][0]
        mesh = [r for r in result.rows if r[0] == "mesh" and r[1] == 77.0][0]
        assert bus[2] < mesh[2] / 2  # hit NoC ns

    def test_77k_totals_below_300k(self, result):
        for name in ("mesh", "cmesh", "flattened_butterfly", "shared_bus"):
            warm = [r for r in result.rows if r[0] == name and r[1] == 300.0][0]
            cold = [r for r in result.rows if r[0] == name and r[1] == 77.0][0]
            assert cold[4] < warm[4]  # hit total
            assert cold[8] < warm[8]  # miss total


class TestFig17:
    def test_anchors(self, experiment_result):
        result = experiment_result("fig17")
        mesh = result.lookup("workload", "mean", "mesh_77k")
        bus = result.lookup("workload", "mean", "shared_bus_77k")
        assert mesh < bus < 1.0


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig18", n_cycles=4000)

    def test_300k_bus_saturates_within_parsec_band(self, result):
        parsec = result.row_by("series", "range_parsec")
        parsec_hi = parsec[2]
        saturated_rates = [
            r[1] for r in result.rows if r[0] == "bus_300K" and r[3]
        ]
        assert saturated_rates and min(saturated_rates) <= parsec_hi

    def test_77k_bus_covers_parsec_but_not_spec(self, result):
        parsec_hi = result.row_by("series", "range_parsec")[2]
        spec_hi = result.row_by("series", "range_spec2006")[2]
        ok_rates = [r[1] for r in result.rows if r[0] == "bus_77K" and not r[3]]
        sat_rates = [r[1] for r in result.rows if r[0] == "bus_77K" and r[3]]
        assert max(ok_rates) >= parsec_hi * 0.9
        assert sat_rates and min(sat_rates) < spec_hi

    def test_suite_bands_ordered(self, result):
        parsec = result.row_by("series", "range_parsec")
        spec = result.row_by("series", "range_spec2006")
        assert parsec[2] < spec[2]


class TestFig20:
    def test_only_cryobus_meets_target(self, experiment_result):
        result = experiment_result("fig20")
        meets = {row[0]: row[8] for row in result.rows if row[1] == 77.0 or row[0] != "shared_bus"}
        by_design = {(row[0], row[1]): row[6] for row in result.rows}
        assert by_design[("shared_bus", 300.0)] == 8
        assert by_design[("shared_bus", 77.0)] == 3
        assert by_design[("htree_bus", 300.0)] == 3
        assert by_design[("cryobus", 77.0)] == 1
        winners = [row[0] for row in result.rows if row[8]]
        assert winners == ["cryobus"]


class TestFig22:
    def test_anchors(self, experiment_result):
        result = experiment_result("fig22")
        assert result.lookup("design", "mesh_300K", "total") == pytest.approx(1.0)
        totals = [
            result.lookup("design", design, "total")
            for design in ("cryobus", "shared_bus_77K", "mesh_77K", "mesh_300K")
        ]
        assert totals == sorted(totals)


class TestFig23:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("fig23")

    def test_reference_column_is_unity(self, result):
        assert result.lookup(
            "workload", "mean", "CHP-core (77K, Mesh)"
        ) == pytest.approx(1.0)

    def test_full_system_mean(self, result):
        means = {c: result.lookup("workload", "mean", c) for c in result.headers[1:]}
        assert max(means, key=means.get) == "CryoSP (77K, CryoBus)"

    def test_vs_300k_baseline(self, result):
        baseline = result.lookup("workload", "mean", "Baseline (300K, Mesh)")
        assert baseline < 1.0  # so the gain over 300 K exceeds the gain over CHP

    def test_cryosp_core_gain(self, result):
        mean = result.lookup("workload", "mean", "CryoSP (77K, Mesh)")
        assert mean > 1.0

    def test_cryobus_gain(self, result):
        bus = result.lookup("workload", "mean", "CHP-core (77K, CryoBus)")
        core = result.lookup("workload", "mean", "CryoSP (77K, Mesh)")
        assert bus > core

    def test_streamcluster_extremes(self, result):
        combined = result.lookup(
            "workload", "streamcluster", "CryoSP (77K, CryoBus)"
        )
        bus_only = result.lookup(
            "workload", "streamcluster", "CHP-core (77K, CryoBus)"
        )
        assert combined > bus_only
        for column, value in (("CryoSP (77K, CryoBus)", combined),
                              ("CHP-core (77K, CryoBus)", bus_only)):
            assert value == max(
                result.lookup("workload", p, column)
                for p in result.column("workload")
                if p != "mean"
            )

    def test_memory_bound_cores_gain_least(self, result):
        """bodytrack and x264 see the smallest CryoSP-only gains."""
        gains = {
            p: result.lookup("workload", p, "CryoSP (77K, Mesh)")
            for p in result.column("workload")
            if p != "mean"
        }
        for name in ("bodytrack", "x264"):
            assert gains[name] == pytest.approx(1.08, abs=0.05)


class TestFig24:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("fig24")

    def test_cryobus_vs_300k(self, result):
        mean = result.lookup("workload", "mean", "CryoSP (77K, CryoBus)")
        chp = result.lookup("workload", "mean", "CHP-core (77K, Mesh)")
        assert mean > chp > 1.0

    def test_2way_strictly_better(self, result):
        for row in result.rows:
            assert row[5] >= row[4] - 1e-9

    def test_2way_mean(self, result):
        one_way = result.lookup("workload", "mean", "CryoSP (77K, CryoBus)")
        mean = result.lookup("workload", "mean", "CryoSP (77K, CryoBus, 2-way)")
        assert mean > one_way

    def test_contention_workloads_gain_from_interleaving(self, result):
        from repro.experiments.fig24 import CONTENTION_WORKLOADS

        for name in CONTENTION_WORKLOADS:
            single = result.lookup("workload", name, "CryoSP (77K, CryoBus)")
            double = result.lookup(
                "workload", name, "CryoSP (77K, CryoBus, 2-way)"
            )
            assert double > single * 1.02


class TestFig26:
    def test_hybrid_lowest_zero_load(self, experiment_result):
        result = experiment_result("fig26")
        first_rate = min(r[1] for r in result.rows)
        at_zero = {
            r[0]: r[2] for r in result.rows if r[1] == first_rate
        }
        hybrid = at_zero["hybrid_cryobus"]
        for name, latency in at_zero.items():
            if not name.startswith("hybrid"):
                assert hybrid < latency


class TestFig27:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("fig27")

    def test_100k_beats_77k_and_300k(self, result):
        """The paper's Section 7.4 claim."""
        at_100 = result.lookup("temperature_k", 100.0, "perf_per_power")
        at_77 = result.lookup("temperature_k", 77.0, "perf_per_power")
        at_300 = result.lookup("temperature_k", 300.0, "perf_per_power")
        assert at_100 > at_77 > at_300

    def test_cooling_overhead_grows_exponentially_cold(self, result):
        temps = result.column("temperature_k")
        overheads = result.column("cooling_overhead")
        paired = sorted(zip(temps, overheads))
        values = [o for _, o in paired]
        assert values == sorted(values, reverse=True)

    def test_performance_roughly_linear_in_temperature(self, result):
        perf_77 = result.lookup("temperature_k", 77.0, "performance_rel")
        perf_300 = result.lookup("temperature_k", 300.0, "performance_rel")
        assert perf_77 > 1.5 * perf_300


class TestTables:
    def test_table1_forwarding_wire(self, experiment_result):
        """CryoCore's narrower core shortens the forwarding wire."""
        result = experiment_result("table1")
        length = result.lookup("item", "forwarding_wire_8wide", "height_um")
        cryocore = result.lookup("item", "forwarding_wire_cryocore", "height_um")
        assert 0 < cryocore < length

    def test_table3_chain(self, experiment_result):
        result = experiment_result("table3")
        ladder = result.column("frequency_ghz")[:4]  # 300 K -> CryoSP
        assert ladder == sorted(ladder)
        assert result.lookup("design", "CHP-core", "frequency_ghz") < ladder[-1]
        assert result.lookup("design", "77K CryoSP", "total_power_rel") <= 1.0

    def test_table4_lists_all_systems(self, experiment_result):
        result = experiment_result("table4")
        assert len(result.rows) == 8


class TestStageAssignment:
    @pytest.fixture(scope="class")
    def result(self, experiment_result):
        return experiment_result("stage_assignment")

    def test_sweeps_every_placement_and_link_kind(self, result):
        # 3 components x 3 stages each, under 2 link technologies.
        assert len(result.rows) == 3 ** 3 * 2

    def test_rows_sorted_by_wall_plug_power(self, result):
        wall = result.column("wall_plug_w")
        assert wall == sorted(wall)

    def test_everything_warm_is_cheapest(self, result):
        """With 4 K watts ~7400x and 77 K watts ~10.65x, the ledger puts
        the all-300 K assignment first despite its higher device power."""
        best = result.rows[0]
        assert best[:3] == ("300K", "300K", "300K")

    def test_anything_at_4k_blows_the_envelope(self, result):
        for row in result.rows:
            if "4K" in row[:3]:
                assert not row[-1]

    def test_envelope_flag_matches_wall_plug(self, result):
        from repro.experiments.stage_assignment import DEFAULT_ENVELOPE_W

        for row in result.rows:
            assert row[-1] == (row[6] <= DEFAULT_ENVELOPE_W)

    def test_tco_never_below_wall_plug(self, result):
        for row in result.rows:
            assert row[7] >= row[6]

    def test_rejects_nonpositive_envelope(self):
        from repro.experiments.stage_assignment import run

        with pytest.raises(ValueError):
            run(envelope_w=0.0)
