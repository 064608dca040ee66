"""NoC building blocks: link model, routers, topologies, arbiter, buses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.arbiter import MatrixArbiter
from repro.noc.bus import CryoBusDesign, HTree, HTreeBus300K, SharedBusDesign
from repro.noc.link import WireLinkModel
from repro.noc.router import RouterModel
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh, RouterTopology
from repro.tech.constants import T_LN2
from repro.tech.operating_point import OP_CRYO, OP_ROOM, OperatingPoint


@pytest.fixture(scope="module")
def links():
    return WireLinkModel()


class TestWireLink:
    def test_4_hops_per_cycle_at_300k(self, links):
        assert links.hops_per_cycle(OP_ROOM) == 4

    def test_12_hops_per_cycle_at_77k(self, links):
        assert links.hops_per_cycle(OP_CRYO) == 12

    def test_2mm_hop_anchor(self, links):
        assert links.hop_delay_ns(OP_ROOM) == pytest.approx(0.064, abs=0.010)

    def test_6mm_link_speedup_anchor(self, links):
        """Fig. 10: the CryoBus link gains ~3.05x at 77 K."""
        assert links.speedup(6.0, OP_CRYO) == pytest.approx(3.05, abs=0.20)

    def test_rejects_nonpositive_length(self, links):
        with pytest.raises(ValueError):
            links.timing(0.0)

    def test_timing_hops_per_cycle_rejects_bad_clock(self, links):
        timing = links.timing(2.0)
        with pytest.raises(ValueError):
            timing.hops_per_cycle(0.0)


class TestRouter:
    def test_marginal_speedup_at_77k(self):
        """Routers are transistor-bound: ~9 % gain at 77 K (Section 5.1)."""
        assert RouterModel().speedup(OP_CRYO) == pytest.approx(1.093, abs=0.02)

    def test_table4_mesh_frequency(self):
        """77 K mesh at NoC voltage clocks ~5.44 GHz (Table 4)."""
        freq = RouterModel().frequency_ghz(OperatingPoint.at(T_LN2, 0.55, 0.225))
        assert freq == pytest.approx(5.44, rel=0.05)

    def test_three_cycle_router_traversal(self):
        slow = RouterModel(pipeline_cycles=3)
        fast = RouterModel(pipeline_cycles=1)
        assert slow.traversal_ns() == pytest.approx(3 * fast.traversal_ns())

    def test_rejects_bad_pipeline(self):
        with pytest.raises(ValueError):
            RouterModel(pipeline_cycles=0)


class TestMesh:
    def test_8x8_average_hops(self):
        """Uniform-random mean hops on an 8x8 mesh is ~5.25-5.4."""
        assert Mesh(64).average_hops() == pytest.approx(5.33, abs=0.15)

    def test_max_hops_is_diameter(self):
        assert Mesh(64).max_hops() == 14

    def test_xy_route_is_dimension_ordered(self):
        mesh = Mesh(64)
        route = mesh.route(0, 63)
        # X moves (stride 1) must precede Y moves (stride 8).
        strides = [abs(b - a) for a, b, _ in route]
        first_y = strides.index(8)
        assert all(s == 8 for s in strides[first_y:])

    def test_route_reaches_destination(self):
        mesh = Mesh(64)
        route = mesh.route(3, 60)
        assert route[0][0] == 3 and route[-1][1] == 60

    def test_hop_length_is_2mm(self):
        assert Mesh(64).hop_length_mm == pytest.approx(2.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Mesh(60)

    @pytest.mark.parametrize("concentration", (1, 2, 4, 16))
    def test_closed_form_route_stats_match_the_generic_pass(self, concentration):
        for side in range(1, 9):
            n_nodes = concentration * side * side
            if n_nodes < 2:
                continue
            for mesh in (
                Mesh(n_nodes, concentration),
                CMesh(n_nodes, concentration),
            ):
                stats = mesh._route_stats
                assert stats == RouterTopology._route_stats.func(mesh)
                assert [type(v) for v in stats] == [float, int, int]

    @pytest.mark.parametrize("concentration", (1, 4))
    def test_closed_form_link_mean_matches_the_sampled_pass(self, concentration):
        for side in range(1, 7):
            n_nodes = concentration * side * side
            if n_nodes < 2:
                continue
            mesh = Mesh(n_nodes, concentration)
            for hops_per_cycle in (0.3, 1, 4, 12):
                mean = mesh.mean_link_cycles(hops_per_cycle)
                assert mean == RouterTopology.mean_link_cycles(mesh, hops_per_cycle)
                assert type(mean) is float

    @settings(max_examples=40, deadline=None)
    @given(src=st.integers(0, 63), dst=st.integers(0, 63))
    def test_route_length_is_manhattan(self, src, dst):
        mesh = Mesh(64)
        sx, sy = src % 8, src // 8
        dx, dy = dst % 8, dst // 8
        assert len(mesh.route(src, dst)) == abs(sx - dx) + abs(sy - dy)


class TestConcentratedTopologies:
    def test_cmesh_fewer_routers(self):
        cmesh = CMesh(64)
        assert cmesh.n_routers == 16
        assert cmesh.router_of(0) == cmesh.router_of(3)

    def test_cmesh_fewer_average_hops(self):
        assert CMesh(64).average_hops() < Mesh(64).average_hops()

    def test_fb_at_most_two_hops(self):
        assert FlattenedButterfly(64).max_hops() == 2

    def test_fb_pays_physical_distance(self):
        fb = FlattenedButterfly(64)
        assert fb.max_distance_mm() == pytest.approx(24.0)

    def test_fb_same_router_zero_hops(self):
        fb = FlattenedButterfly(64)
        assert fb.route(fb.router_of(0), fb.router_of(1)) == []


def _round(arbiter, requests):
    """Raise every line in ``requests`` (raised lines stay raised) and
    grant once."""
    for requester in requests:
        arbiter.request(requester)
    return arbiter.grant()


class TestMatrixArbiter:
    def test_single_requester_wins(self):
        assert _round(MatrixArbiter(4), [2]) == 2

    def test_empty_grant_is_none(self):
        arbiter = MatrixArbiter(4)
        assert arbiter.grant() is None
        assert _round(arbiter, [1]) == 1
        assert arbiter.grant() is None  # the winner's line dropped

    def test_round_robin_like_rotation(self):
        arbiter = MatrixArbiter(3)
        winners = [_round(arbiter, [0, 1, 2]) for _ in range(3)]
        assert sorted(winners) == [0, 1, 2]

    def test_starvation_freedom_under_full_load(self):
        """Every requester is served within n rounds of continuous load."""
        n = 8
        arbiter = MatrixArbiter(n)
        winners = [_round(arbiter, range(n)) for _ in range(n)]
        assert sorted(winners) == list(range(n))

    def test_winner_yields_priority(self):
        arbiter = MatrixArbiter(2)
        first = _round(arbiter, [0, 1])
        second = _round(arbiter, [0, 1])
        assert {first, second} == {0, 1}

    def test_raised_line_is_granted_once(self):
        arbiter = MatrixArbiter(3)
        arbiter.request(1)
        arbiter.request(1)
        assert arbiter.grant() == 1
        assert arbiter.grant() is None

    def test_out_of_range_requester_raises(self):
        with pytest.raises(ValueError):
            MatrixArbiter(2).request(5)
        with pytest.raises(ValueError):
            MatrixArbiter(2).request(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sets(st.integers(0, 7), min_size=1), min_size=1, max_size=40))
    def test_winner_always_among_requesters(self, rounds):
        arbiter = MatrixArbiter(8)
        raised = set()
        for requests in rounds:
            raised |= requests
            winner = _round(arbiter, requests)
            assert winner in raised
            raised.discard(winner)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10))
    def test_no_starvation_property(self, n):
        arbiter = MatrixArbiter(n)
        served = set()
        for _ in range(n):
            served.add(_round(arbiter, range(n)))
        assert served == set(range(n))


class TestHTree:
    @pytest.fixture(scope="class")
    def tree(self):
        return HTree(64)

    def test_worst_broadcast_is_12_hops(self, tree):
        """The paper's headline: 12 hops vs 30 on the linear bus."""
        assert tree.worst_broadcast_hops() == 12

    def test_total_wire_less_than_linear_bus(self, tree):
        assert tree.total_wire_hops() < SharedBusDesign(64).total_wire_hops

    def test_every_core_has_a_tap(self, tree):
        for core in range(64):
            assert tree.tap_of(core) in tree._adjacency

    def test_distance_symmetric(self, tree):
        assert tree.distance_hops(0, 63) == tree.distance_hops(63, 0)

    def test_distance_zero_for_shared_tap(self, tree):
        assert tree.distance_hops(0, 1) == 0  # first cores share a tap

    def test_rejects_out_of_range_core(self, tree):
        with pytest.raises(ValueError):
            tree.tap_of(64)

    @settings(max_examples=30, deadline=None)
    @given(source=st.integers(0, 63))
    def test_link_directions_cover_tree(self, tree, source):
        """Dynamic link connection: every segment oriented, all taps
        reachable, no segment driven from both ends."""
        directions = tree.link_directions(source)
        assert len(directions) == len(tree.edges)
        # Follow the directed edges from the source: must reach all taps.
        reached = {tree.tap_of(source)}
        frontier = [tree.tap_of(source)]
        adjacency = {}
        for (frm, to) in directions.values():
            adjacency.setdefault(frm, []).append(to)
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, []):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        for core in range(64):
            assert tree.tap_of(core) in reached

    @settings(max_examples=20, deadline=None)
    @given(source=st.integers(0, 63))
    def test_broadcast_within_worst_case(self, tree, source):
        assert tree.broadcast_hops(source) <= tree.worst_broadcast_hops()


class TestBusDesigns:
    def test_fig20_broadcast_cycles(self):
        """The Fig. 20 ladder: 8 / 3 / 3 / 1 cycles."""
        bus, cryo, htree = SharedBusDesign(64), CryoBusDesign(64), HTreeBus300K(64)
        assert bus.broadcast_cycles(4) == 8
        assert bus.broadcast_cycles(12) == 3
        assert htree.broadcast_cycles(4) == 3
        assert cryo.broadcast_cycles(12) == 1

    def test_cryobus_control_cycle(self):
        assert CryoBusDesign(64).control_cycles == 1
        assert SharedBusDesign(64).control_cycles == 0

    def test_cryobus_zero_load_latency(self):
        """arb(2) + control(1) + broadcast(1) = 4 cycles."""
        assert CryoBusDesign(64).zero_load_latency_cycles(12) == 4

    def test_interleaving_multiplies_bandwidth(self):
        single = CryoBusDesign(64)
        double = CryoBusDesign(64, interleave_ways=2)
        assert double.saturation_rate(12) == pytest.approx(
            2 * single.saturation_rate(12)
        )

    def test_interleaved_keeps_geometry(self):
        double = SharedBusDesign(64).interleaved(2)
        assert double.broadcast_hops_worst == 30
        assert double.interleave_ways == 2

    def test_worst_case_shared_bus_is_30_hops(self):
        assert SharedBusDesign(64).broadcast_hops_worst == 30

    def test_rejects_bad_hops_per_cycle(self):
        with pytest.raises(ValueError):
            SharedBusDesign(64).broadcast_cycles(0)

    def test_rejects_bad_interleave(self):
        with pytest.raises(ValueError):
            SharedBusDesign(64).interleaved(0)
