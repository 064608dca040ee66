"""The voltage search, the pipeline model and the CPI stack do each
per-grid and per-load piece of work once.

Three batched paths replace loops of scalar calls: the search prices
its power check as one batch, a pipeline prices each metal layer's wires
as one column of lengths, and a CPI stack prices one NoC traversal per
load. Each must equal (``==``) what the scalar calls give, and each is
pinned to the work it does: a regression back to per-point or per-stage
calls fails here even when every value still matches.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, isfinite, log2

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.voltage import VoltageOptimizer
from repro.memory.hierarchy import (
    DATA_FLITS,
    HOME_SERVICE_CYCLES,
    LOCK_CONTENDERS,
    NI_CYCLES,
    L3AccessBreakdown,
)
from repro.noc.latency import AnalyticNocModel
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.pipeline.stages import BOOM_STAGES
from repro.power.mcpat import CorePowerModel
from repro.system.config import SYSTEMS_BY_NAME
from repro.system.multicore import MulticoreSystem
from repro.tech.batch import OperatingPointBatch
from repro.tech.constants import T_LN2
from repro.tech.metal import MetalLayer
from repro.tech.operating_point import OperatingPoint
from repro.tech.wire import CryoWireModel
from repro.workloads.profiles import PARSEC_2_1, SPEC2006

# Voltages: explicit or card-nominal (None), with drive to spare at
# either end of the temperature range.
_temperature = st.floats(77.0, 300.0)
_vdd = st.one_of(st.none(), st.floats(0.6, 1.3))
_vth = st.one_of(st.none(), st.floats(0.2, 0.4))


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestPowerBatchParity:
    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.tuples(_temperature, _vdd, _vth, st.floats(0.5, 10.0)),
            min_size=1,
            max_size=12,
        ),
        config=st.sampled_from((SKYLAKE_CONFIG, CRYO_CORE_CONFIG.deepened(3))),
    )
    def test_batch_element_is_the_scalar_report(self, points, config):
        ops = [OperatingPoint.at(t, vdd, vth) for t, vdd, vth, _ in points]
        frequencies = np.array([f for *_, f in points])
        model = CorePowerModel()
        batch = model.report_batch(config, ops, frequencies)
        for i, op in enumerate(ops):
            scalar = model.report(config, op, float(frequencies[i]))
            assert batch[i] == scalar
            assert batch.total_rel[i] == scalar.total_rel
            assert model.dynamic_rel(config, op, float(frequencies[i])) == scalar.dynamic_rel
            assert model.static_rel(config, op) == scalar.static_rel

    @pytest.mark.parametrize("budget", [0.05, 0.3, 1.0, 2.0])
    def test_search_keeps_the_point_the_scalar_loop_keeps(self, budget):
        """The search as it was: one named point and one scalar report
        per grid point, a later point winning only if strictly faster."""
        optimizer = VoltageOptimizer(
            PipelineModel(), vdd_grid_v=(0.5, 0.6, 0.7, 0.8, 1.0, 1.25),
            vth_grid_v=(0.25, 0.35, 0.45),
        )
        grid = [
            OperatingPoint(f"77K Vdd={vdd} Vth={vth}", T_LN2, vdd, vth)
            for vth in optimizer.vth_grid
            for vdd in optimizer.vdd_grid
            if vdd - vth >= 0.15
        ]
        best = None
        for op in grid:
            freq = optimizer.pipeline.evaluate(CRYO_CORE_CONFIG, op).frequency_ghz
            power = optimizer.power.report(CRYO_CORE_CONFIG, op, freq)
            if power.total_rel > budget:
                continue
            if best is None or freq > best[1]:
                best = (op, freq, power)
        if best is None:
            with pytest.raises(RuntimeError, match="no feasible operating point"):
                optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, budget)
            return
        found = optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, budget)
        assert (found.operating_point, found.frequency_ghz, found.power) == best
        assert found.operating_point.name == best[0].name
        assert found.evaluated_points == len(grid)

    def test_errors_are_kept(self):
        model = CorePowerModel()
        ops = [OperatingPoint.at(77.0, 0.7, 0.25), OperatingPoint.at(300.0)]
        with pytest.raises(ValueError, match="frequency must be positive"):
            model.report_batch(SKYLAKE_CONFIG, ops, np.array([4.0, 0.0]))
        with pytest.raises(ValueError, match="frequency must be positive"):
            model.report(SKYLAKE_CONFIG, ops[0], -1.0)


class TestWireColumnParity:
    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=6),
        points=st.lists(st.tuples(_temperature, _vdd, _vth), min_size=1, max_size=6),
        layer=st.sampled_from(("local", "semi_global", "global")),
    )
    def test_column_element_is_the_scalar_breakdown(self, lengths, points, layer):
        wires = CryoWireModel()
        ops = [OperatingPoint.at(t, vdd, vth) for t, vdd, vth in points]
        batch = OperatingPointBatch.from_points(ops)
        column = wires.unrepeated_breakdown_batch(
            layer, np.array(lengths)[:, None], batch
        )
        assert column.wire_ns.shape == column.transistor_ns.shape == (
            len(lengths), len(ops)
        )
        for i, length in enumerate(lengths):
            row = wires.unrepeated_breakdown_batch(layer, length, batch)
            assert np.array_equal(row.total_ns, column.total_ns[i])
            for j, op in enumerate(ops):
                assert column[i, j] == wires.unrepeated_breakdown(layer, length, op)


class _ReferenceHierarchy:
    """The memory hierarchy's five latency methods as they were before
    the one-load method: each prices its own NoC traversals."""

    def __init__(self, hierarchy):
        self.caches = hierarchy.caches
        self.dram = hierarchy.dram
        self.noc = hierarchy.noc
        self.protocol = hierarchy.protocol

    def _traversal_ns(self, load, flits=1):
        breakdown = self.noc.one_way(load)
        extra_cycles = float(flits - 1)
        if self.protocol == "directory" and breakdown.base_cycles > 0:
            extra_cycles += NI_CYCLES
        return breakdown.total_ns + extra_cycles / self.noc.clock_ghz

    def _home_service_ns(self):
        if self.protocol != "directory":
            return 0.0
        if self.noc.one_way(0.0).base_cycles == 0:
            return 0.0
        return HOME_SERVICE_CYCLES / self.noc.clock_ghz

    def _directory_lookup_ns(self):
        return 0.5 * self.caches.l3_latency_ns

    def l3_hit(self, load):
        request = self._traversal_ns(load)
        data = self._traversal_ns(load, DATA_FLITS)
        if self.protocol == "directory":
            noc = request + data + self._home_service_ns()
            cache = self._directory_lookup_ns() + self.caches.l3_latency_ns
        else:
            noc = request + data
            cache = self.caches.l3_latency_ns
        return L3AccessBreakdown(noc_ns=noc, cache_ns=cache)

    def l3_miss(self, load):
        request = self._traversal_ns(load)
        data = self._traversal_ns(load, DATA_FLITS)
        if self.protocol == "directory":
            noc = 2 * request + data + self._home_service_ns()
            cache = self._directory_lookup_ns()
        else:
            noc = request + data
            cache = 0.5 * self.caches.l3_latency_ns
        return L3AccessBreakdown(
            noc_ns=noc, cache_ns=cache, dram_ns=self.dram.random_access_ns
        )

    def cache_to_cache(self, load):
        request = self._traversal_ns(load)
        data = self._traversal_ns(load, DATA_FLITS)
        if self.protocol == "directory":
            noc = 2 * request + data + self._home_service_ns()
            cache = self._directory_lookup_ns() + self.caches.l2_latency_ns
        else:
            noc = request + data
            cache = self.caches.l2_latency_ns
        return L3AccessBreakdown(noc_ns=noc, cache_ns=cache)

    def barrier_ns(self, n_cores, load):
        if n_cores < 2:
            return 0.0
        fan = 2.0 * ceil(log2(n_cores)) * self._traversal_ns(load)
        if self.protocol == "directory":
            per_core = 0.75 * self.cache_to_cache(load).total_ns
        else:
            per_core = 0.5 * self._traversal_ns(load)
        return n_cores * per_core + fan

    def lock_ns(self, load, contenders=LOCK_CONTENDERS):
        if self.protocol == "directory":
            return contenders * self.cache_to_cache(load).total_ns
        return contenders * self._traversal_ns(load)


@lru_cache(maxsize=None)
def _hierarchy(name):
    return MulticoreSystem(SYSTEMS_BY_NAME[name]).hierarchy


class TestHierarchyParity:
    def test_every_protocol_is_covered(self):
        kinds = {
            (type(_hierarchy(name).noc).__name__, _hierarchy(name).protocol)
            for name in SYSTEMS_BY_NAME
        }
        assert kinds == {
            ("AnalyticNocModel", "directory"),
            ("AnalyticNocModel", "snoop"),
            ("IdealNoc", "snoop"),
        }

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(SYSTEMS_BY_NAME)),
        fraction=st.floats(0.0, 1.0),
        n_cores=st.sampled_from((1, 2, 16, 64)),
        contenders=st.integers(1, 8),
    )
    def test_one_load_matches_the_five_methods(self, name, fraction, n_cores, contenders):
        h = _hierarchy(name)
        reference = _ReferenceHierarchy(h)
        saturation = h.noc.saturation_rate()
        # The ideal fabric never saturates; any load prices the same.
        load = fraction * (0.98 * saturation if isfinite(saturation) else 1.0)
        at = h.at_load(load, n_cores, contenders)
        assert at.l3_hit == reference.l3_hit(load) == h.l3_hit(load)
        assert at.l3_miss == reference.l3_miss(load) == h.l3_miss(load)
        assert at.cache_to_cache == reference.cache_to_cache(load) == h.cache_to_cache(load)
        assert at.barrier_ns == reference.barrier_ns(n_cores, load) == h.barrier_ns(n_cores, load)
        assert at.lock_ns == reference.lock_ns(load, contenders) == h.lock_ns(load, contenders)


class TestWorkPins:
    def test_search_prices_one_scalar_report(self, monkeypatch):
        reports = _counting(monkeypatch, CorePowerModel, "report")
        found = VoltageOptimizer(PipelineModel()).optimize(CRYO_CORE_CONFIG, T_LN2, 1.0)
        assert found.evaluated_points == 720
        assert len(reports) == 1

    def test_pipeline_prices_each_layer_once(self, monkeypatch):
        resistance = _counting(monkeypatch, MetalLayer, "resistance_per_um_batch")
        breakdowns = _counting(monkeypatch, CryoWireModel, "unrepeated_breakdown_batch")
        grid = OperatingPointBatch.product([77.0, 300.0], [0.6, 1.25], [0.25, 0.47])
        PipelineModel().evaluate_batch(SKYLAKE_CONFIG, grid)
        layers = {spec.wire.layer for spec in BOOM_STAGES}
        assert len(layers) < len(BOOM_STAGES)
        assert len(resistance) == len(breakdowns) == len(layers)

    @pytest.mark.parametrize(
        "name", ["CryoSP (77K, Mesh)", "CryoSP (77K, CryoBus)"]
    )
    def test_stack_prices_one_traversal_per_load(self, monkeypatch, name):
        system = MulticoreSystem(SYSTEMS_BY_NAME[name])
        one_way = _counting(monkeypatch, AnalyticNocModel, "one_way")
        first = system.evaluate(PARSEC_2_1[0])
        # The home-service time costs one zero-load traversal per
        # hierarchy, and only a directory has one.
        home = 1 if system.hierarchy.protocol == "directory" else 0
        assert len(one_way) == first.iterations_used + home
        del one_way[:]
        second = system.evaluate(SPEC2006[0])
        assert len(one_way) == second.iterations_used
