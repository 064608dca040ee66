"""Exact outputs of the NoC engines and the V_dd/V_th search.

The values below were recorded from the straightforward engines (routes
recomputed per packet, traces regenerated per series, one scalar
pipeline evaluation per grid point). The memoized and batched engines
must reproduce them with ``==``, not approximately: every figure built
on them is pinned byte-for-byte.
"""

from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.superpipeline import SuperpipelineTransform
from repro.core.voltage import VoltageOptimizer
from repro.noc.arbiter import MatrixArbiter
from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.measure import LoadLatencyPoint
from repro.noc.simulator import NocSimulator
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh
from repro.noc.traffic import make_pattern
from repro.pipeline.config import (
    CRYO_CORE_CONFIG,
    OP_77K_NOMINAL,
    SKYLAKE_CONFIG,
    OperatingPoint,
)
from repro.pipeline.model import PipelineModel
from repro.power.mcpat import CorePowerModel, CorePowerReport
from repro.tech.constants import T_LN2
from repro.tech.mosfet import FREEPDK45_CARD
from repro.tech.wire import CryoWireModel

N_CYCLES = 1500

# (topology, pattern, rate, router_cycles, hops_per_cycle):
#     (mean, p95, delivered, offered, saturated)
ROUTER = {
    ('mesh_64', 'uniform', 0.006, 1, 4): (12.66304347826087, 22.0, 460, 460, False),
    ('mesh_64', 'uniform', 0.02, 3, 12): (23.33845126835781, 42.0, 1498, 1498, False),
    ('mesh_64', 'hotspot', 0.006, 1, 4): (13.227557411273487, 22.0, 479, 479, False),
    ('mesh_64', 'hotspot', 0.02, 3, 12): (24.560893098782138, 43.0, 1478, 1478, False),
    ('mesh_64', 'burst', 0.006, 1, 4): (12.349680170575693, 22.0, 469, 469, False),
    ('mesh_64', 'burst', 0.02, 3, 12): (23.533164876816173, 42.0, 1583, 1583, False),
    ('cmesh_64', 'uniform', 0.006, 1, 4): (7.082608695652174, 12.0, 460, 460, False),
    ('cmesh_64', 'uniform', 0.02, 3, 12): (12.12483311081442, 22.0, 1498, 1498, False),
    ('cmesh_64', 'hotspot', 0.006, 1, 4): (7.361169102296451, 12.0, 479, 479, False),
    ('cmesh_64', 'hotspot', 0.02, 3, 12): (12.502029769959405, 22.0, 1478, 1478, False),
    ('cmesh_64', 'burst', 0.006, 1, 4): (7.063965884861407, 12.0, 469, 469, False),
    ('cmesh_64', 'burst', 0.02, 3, 12): (12.189513581806697, 22.0, 1583, 1583, False),
    ('flattened_butterfly_64', 'uniform', 0.006, 1, 4): (5.306521739130435, 7.0, 460, 460, False),
    ('flattened_butterfly_64', 'uniform', 0.02, 3, 12): (8.08210947930574, 10.0, 1498, 1498, False),
    ('flattened_butterfly_64', 'hotspot', 0.006, 1, 4): (5.4258872651356995, 7.0, 479, 479, False),
    ('flattened_butterfly_64', 'hotspot', 0.02, 3, 12): (8.020297699594046, 10.0, 1478, 1478, False),
    ('flattened_butterfly_64', 'burst', 0.006, 1, 4): (5.315565031982943, 7.0, 469, 469, False),
    ('flattened_butterfly_64', 'burst', 0.02, 3, 12): (8.182564750473784, 10.0, 1583, 1583, False),
}

# (bus, pattern, rate, hops_per_cycle): (mean, p95, delivered, offered, saturated)
BUS = {
    ('shared_bus', 'uniform', 0.006, 12): (126.19406392694064, 412.0, 438, 438, True),
    ('shared_bus', 'uniform', 0.02, 4): (3859.0983146067415, 5226.0, 356, 1464, True),
    ('shared_bus', 'hotspot', 0.006, 12): (143.49103139013454, 497.0, 446, 446, True),
    ('shared_bus', 'hotspot', 0.02, 4): (3720.5688311688314, 5243.0, 385, 1559, True),
    ('shared_bus', 'burst', 0.006, 12): (93.97072072072072, 311.0, 444, 444, False),
    ('shared_bus', 'burst', 0.02, 4): (3432.5364583333335, 5183.0, 384, 1572, True),
    ('cryobus', 'uniform', 0.006, 12): (4.223744292237443, 5.0, 438, 438, False),
    ('cryobus', 'uniform', 0.02, 4): (2456.001366120219, 4031.0, 1464, 1464, True),
    ('cryobus', 'hotspot', 0.006, 12): (4.271300448430493, 5.0, 446, 446, False),
    ('cryobus', 'hotspot', 0.02, 4): (2508.482360487492, 4208.0, 1559, 1559, True),
    ('cryobus', 'burst', 0.006, 12): (4.34009009009009, 6.0, 444, 444, False),
    ('cryobus', 'burst', 0.02, 4): (2514.9872773536895, 4281.0, 1572, 1572, True),
    ('cryobus_2way', 'uniform', 0.006, 12): (4.093607305936073, 5.0, 438, 438, False),
    ('cryobus_2way', 'uniform', 0.02, 4): (778.5956284153006, 1459.0, 1464, 1464, True),
    ('cryobus_2way', 'hotspot', 0.006, 12): (4.145739910313901, 5.0, 446, 446, False),
    ('cryobus_2way', 'hotspot', 0.02, 4): (972.1161000641437, 2293.0, 1559, 1559, True),
    ('cryobus_2way', 'burst', 0.006, 12): (4.168918918918919, 5.0, 444, 444, False),
    ('cryobus_2way', 'burst', 0.02, 4): (805.6202290076336, 1585.0, 1572, 1572, True),
}

TOPOLOGIES = {t.name: t for t in (Mesh(64), CMesh(64), FlattenedButterfly(64))}
BUSES = {
    "shared_bus": SharedBusDesign(64),
    "cryobus": CryoBusDesign(64),
    "cryobus_2way": CryoBusDesign(64, interleave_ways=2),
}
PATTERNS = {name: make_pattern(name, 64) for name in ("uniform", "hotspot", "burst")}


def _point(rate, fields):
    mean, p95, delivered, offered, saturated = fields
    return LoadLatencyPoint(rate, mean, p95, delivered, offered, saturated)


class TestNocEnginesExact:
    @pytest.fixture(scope="class")
    def sim(self):
        # One simulator for every case, so traces and route tables are
        # shared across topologies, buses and series exactly as in fig21.
        return NocSimulator(n_cycles=N_CYCLES)

    @pytest.mark.parametrize("case", sorted(ROUTER), ids=str)
    def test_router_network(self, sim, case):
        topo, pattern, rate, router_cycles, hpc = case
        point = sim.simulate_router_network(
            TOPOLOGIES[topo], PATTERNS[pattern], rate,
            router_cycles=router_cycles, hops_per_cycle=hpc,
        )
        assert point == _point(rate, ROUTER[case])

    @pytest.mark.parametrize("case", sorted(BUS), ids=str)
    def test_bus(self, sim, case):
        bus, pattern, rate, hpc = case
        point = sim.simulate_bus(BUSES[bus], PATTERNS[pattern], rate, hops_per_cycle=hpc)
        assert point == _point(rate, BUS[case])

    def test_fresh_simulator_agrees_with_shared_one(self, sim):
        case = ('mesh_64', 'burst', 0.006, 1, 4)
        fresh = NocSimulator(n_cycles=N_CYCLES).simulate_router_network(
            TOPOLOGIES["mesh_64"], make_pattern("burst", 64), 0.006
        )
        assert fresh == _point(0.006, ROUTER[case])


def _power(name, dynamic, static, cooling):
    return CorePowerReport(name, dynamic, static, cooling)


def _op(vdd, vth):
    return OperatingPoint(f"77K Vdd={vdd} Vth={vth}", 77.0, vdd, vth)


class TestVoltageSearchExact:
    def _check(self, found, op, frequency, power):
        assert found.operating_point == op
        assert found.operating_point.name == op.name
        assert found.frequency_ghz == frequency
        assert found.power == power
        assert found.evaluated_points == 720

    def test_chp_search(self):
        found = VoltageOptimizer(PipelineModel(), CorePowerModel()).optimize(
            CRYO_CORE_CONFIG, T_LN2, 1.0
        )
        self._check(
            found, _op(0.72, 0.25), 6.251713562863932,
            _power("cryocore_4w@77K Vdd=0.72 Vth=0.25", 0.09227248923774527,
                   4.776320881407693e-09, 0.8904295672357384),
        )

    def test_cryosp_search(self):
        plan, sp_model, _ = SuperpipelineTransform(PipelineModel()).apply(
            SKYLAKE_CONFIG, OP_77K_NOMINAL
        )
        sized = CRYO_CORE_CONFIG.deepened(plan.extra_stages, "cryocore_4w_sp")
        found = VoltageOptimizer(sp_model, CorePowerModel()).optimize(sized, T_LN2, 1.0)
        self._check(
            found, _op(0.59, 0.25), 7.684170700625882,
            _power("cryocore_4w_sp@77K Vdd=0.59 Vth=0.25", 0.09374913137467347,
                   4.81804735132999e-09, 0.9046791642597559),
        )

    def test_perturbed_robustness_variant(self):
        card = dc_replace(FREEPDK45_CARD, drive_speedup_77=1.12)
        model = PipelineModel(wire_model=CryoWireModel(logic_card=card), logic_card=card)
        plan, sp_model, _ = SuperpipelineTransform(model).apply(
            SKYLAKE_CONFIG, OP_77K_NOMINAL
        )
        found = VoltageOptimizer(sp_model).optimize(
            CRYO_CORE_CONFIG.deepened(plan.extra_stages), T_LN2, 1.0
        )
        self._check(
            found, _op(0.58, 0.25), 7.897437959591315,
            _power("cryocore_4w+3stg@77K Vdd=0.58 Vth=0.25", 0.09311259604350365,
                   4.736385531815922e-09, 0.8985365975259306),
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    rounds=st.lists(st.sets(st.integers(0, 7), min_size=1), min_size=1, max_size=30),
)
def test_arbiter_priority_is_a_strict_total_order(n, rounds):
    arbiter = MatrixArbiter(n)
    for requests in rounds:
        requests = {r % n for r in requests}
        before = arbiter.priority_snapshot()
        winner = arbiter.grant(requests)
        # The winner beat every other requester under the old priorities.
        assert all(before[winner][other] for other in requests if other != winner)
        matrix = arbiter.priority_snapshot()
        for i in range(n):
            assert not matrix[i][i]
            for j in range(n):
                if i != j:
                    assert matrix[i][j] != matrix[j][i]  # total, antisymmetric
                    for k in range(n):
                        if matrix[i][j] and matrix[j][k]:
                            assert matrix[i][k]  # transitive
