"""Exact outputs of the NoC engines and the V_dd/V_th search.

The NoC values below were recorded on the block-drawn array traces of
:mod:`repro.noc.traffic`. On the stream before those traces, the
memoized engines reproduced the straightforward ones (routes recomputed
per packet, traces regenerated per series) exactly, so a difference here
is a change to an engine or to the trace stream. The search values were
recorded from one scalar pipeline evaluation per grid point, which the
batched search reproduces. All are compared with ``==``, not
approximately: every figure built on them is pinned byte-for-byte.
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
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.power.mcpat import CorePowerModel, CorePowerReport
from repro.tech.constants import T_LN2
from repro.tech.mosfet import FREEPDK45_CARD
from repro.tech.operating_point import OP_77K_NOMINAL, OperatingPoint
from repro.tech.wire import CryoWireModel

N_CYCLES = 1500

# (topology, pattern, rate, router_cycles, hops_per_cycle):
#     (mean, p95, delivered, offered, saturated)
ROUTER = {
    ('mesh_64', 'uniform', 0.006, 1, 4): (12.88888888888889, 24.0, 459, 459, False),
    ('mesh_64', 'uniform', 0.02, 3, 12): (23.593457943925234, 42.0, 1498, 1498, False),
    ('mesh_64', 'hotspot', 0.006, 1, 4): (12.841666666666667, 22.0, 480, 480, False),
    ('mesh_64', 'hotspot', 0.02, 3, 12): (24.13124583610926, 43.0, 1501, 1501, False),
    ('mesh_64', 'burst', 0.006, 1, 4): (12.717241379310344, 22.0, 435, 435, False),
    ('mesh_64', 'burst', 0.02, 3, 12): (22.993780234968902, 42.0, 1447, 1447, False),
    ('cmesh_64', 'uniform', 0.006, 1, 4): (7.169934640522876, 12.0, 459, 459, False),
    ('cmesh_64', 'uniform', 0.02, 3, 12): (12.427903871829105, 22.0, 1498, 1498, False),
    ('cmesh_64', 'hotspot', 0.006, 1, 4): (7.052083333333333, 12.0, 480, 480, False),
    ('cmesh_64', 'hotspot', 0.02, 3, 12): (12.387741505662891, 22.0, 1501, 1501, False),
    ('cmesh_64', 'burst', 0.006, 1, 4): (6.954022988505747, 12.0, 435, 435, False),
    ('cmesh_64', 'burst', 0.02, 3, 12): (12.097442985487215, 22.0, 1447, 1447, False),
    ('flattened_butterfly_64', 'uniform', 0.006, 1, 4): (5.350762527233115, 7.0, 459, 459, False),
    ('flattened_butterfly_64', 'uniform', 0.02, 3, 12): (8.152870493991989, 10.0, 1498, 1498, False),
    ('flattened_butterfly_64', 'hotspot', 0.006, 1, 4): (5.225, 7.0, 480, 480, False),
    ('flattened_butterfly_64', 'hotspot', 0.02, 3, 12): (8.084610259826782, 10.0, 1501, 1501, False),
    ('flattened_butterfly_64', 'burst', 0.006, 1, 4): (5.273563218390804, 7.0, 435, 435, False),
    ('flattened_butterfly_64', 'burst', 0.02, 3, 12): (8.110573600552868, 10.0, 1447, 1447, False),
}

# (bus, pattern, rate, hops_per_cycle): (mean, p95, delivered, offered, saturated)
BUS = {
    ('shared_bus', 'uniform', 0.006, 12): (128.53986332574033, 395.0, 439, 439, True),
    ('shared_bus', 'uniform', 0.02, 4): (3824.8429752066118, 5264.0, 363, 1469, True),
    ('shared_bus', 'hotspot', 0.006, 12): (153.21123595505617, 460.0, 445, 445, True),
    ('shared_bus', 'hotspot', 0.02, 4): (3699.0280612244896, 5182.0, 392, 1560, True),
    ('shared_bus', 'burst', 0.006, 12): (146.14855875831486, 441.0, 451, 451, True),
    ('shared_bus', 'burst', 0.02, 4): (3425.9659367396594, 5185.0, 411, 1499, True),
    ('cryobus', 'uniform', 0.006, 12): (4.20501138952164, 5.0, 439, 439, False),
    ('cryobus', 'uniform', 0.02, 4): (2450.584751531654, 4042.0, 1469, 1469, True),
    ('cryobus', 'hotspot', 0.006, 12): (4.265168539325843, 5.0, 445, 445, False),
    ('cryobus', 'hotspot', 0.02, 4): (2490.24358974359, 4206.0, 1560, 1560, True),
    ('cryobus', 'burst', 0.006, 12): (4.365853658536586, 6.0, 451, 451, False),
    ('cryobus', 'burst', 0.02, 4): (2372.2908605737157, 4044.0, 1499, 1499, True),
    ('cryobus_2way', 'uniform', 0.006, 12): (4.0842824601366745, 5.0, 439, 439, False),
    ('cryobus_2way', 'uniform', 0.02, 4): (771.9584751531654, 1454.0, 1469, 1469, True),
    ('cryobus_2way', 'hotspot', 0.006, 12): (4.116853932584269, 5.0, 445, 445, False),
    ('cryobus_2way', 'hotspot', 0.02, 4): (940.9974358974359, 2247.0, 1560, 1560, True),
    ('cryobus_2way', 'burst', 0.006, 12): (4.11529933481153, 5.0, 451, 451, False),
    ('cryobus_2way', 'burst', 0.02, 4): (752.2034689793195, 1511.0, 1499, 1499, True),
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
    raised = set()  # request lines stay raised until granted
    for requests in rounds:
        for requester in requests:
            arbiter.request(requester % n)
            raised.add(requester % n)
        before = arbiter.priority_snapshot()
        winner = arbiter.grant()
        # The winner beat every other requester under the old priorities.
        assert winner in raised
        assert all(before[winner][other] for other in raised if other != winner)
        raised.discard(winner)
        matrix = arbiter.priority_snapshot()
        for i in range(n):
            assert not matrix[i][i]
            for j in range(n):
                if i != j:
                    assert matrix[i][j] != matrix[j][i]  # total, antisymmetric
                    for k in range(n):
                        if matrix[i][j] and matrix[j][k]:
                            assert matrix[i][k]  # transitive
