"""Shared-bus designs: the conventional bidirectional bus and CryoBus.

CryoBus (Section 5.2) is an H-tree-shaped snooping bus: the worst-case
core-to-core path drops from 30 hops (linear spine) to 12 hops, which a
77 K wire link crosses in a single 4 GHz cycle. Because an H-tree cannot
be driven as a simple bidirectional bus, CryoBus adds *dynamic link
connection*: cross-link switches at every wire junction, steered by a
central controller next to the matrix arbiter, orient every segment away
from the granted source before it broadcasts. :class:`HTree` implements
that mechanism functionally (orientation = BFS from the source tap), so
the property tests can prove every grant yields a complete, conflict-free
broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

from repro.noc.topology import Topology

#: Physical length of one hop (mm), shared with the link model.
HOP_LENGTH_MM = 2.0

Node = Tuple[str, int, int]
Edge = FrozenSet[Node]


class HTree:
    """The CryoBus H-tree for 64 cores (Fig. 19).

    Geometry: four vertical spines (seven tap points, six 1-hop
    segments each) whose midpoints hang off a horizontal trunk (three
    2-hop segments). Worst-case tap-to-tap distance is 3 + 6 + 3 = 12
    hops; total wire is 4*6 + 6 = 30 hops (60 mm) -- slightly less metal
    than the 64 mm linear spine it replaces, with 2.5x shorter worst-case
    paths.
    """

    N_SPINES = 4
    TAPS_PER_SPINE = 7
    JUNCTION_TAP = 3  # middle tap carries the trunk junction
    TRUNK_SEGMENT_HOPS = 2

    def __init__(self, n_cores: int = 64):
        if n_cores % self.N_SPINES:
            raise ValueError("core count must divide evenly across spines")
        self.n_cores = n_cores
        self.cores_per_spine = n_cores // self.N_SPINES
        self._adjacency: Dict[Node, Dict[Node, int]] = {}
        self._build()

    # ------------------------------------------------------------------
    def _add_edge(self, a: Node, b: Node, hops: int) -> None:
        self._adjacency.setdefault(a, {})[b] = hops
        self._adjacency.setdefault(b, {})[a] = hops

    def _build(self) -> None:
        for spine in range(self.N_SPINES):
            for i in range(self.TAPS_PER_SPINE - 1):
                self._add_edge(("tap", spine, i), ("tap", spine, i + 1), 1)
        for spine in range(self.N_SPINES - 1):
            self._add_edge(
                ("tap", spine, self.JUNCTION_TAP),
                ("tap", spine + 1, self.JUNCTION_TAP),
                self.TRUNK_SEGMENT_HOPS,
            )

    def tap_of(self, core: int) -> Node:
        """Tap node a core connects to (cores share taps round-robin)."""
        if not (0 <= core < self.n_cores):
            raise ValueError(f"core {core} out of range")
        spine = core // self.cores_per_spine
        within = core % self.cores_per_spine
        tap = within * self.TAPS_PER_SPINE // self.cores_per_spine
        return ("tap", spine, tap)

    @property
    def nodes(self) -> List[Node]:
        return list(self._adjacency)

    @property
    def edges(self) -> List[Tuple[Node, Node, int]]:
        seen = set()
        out = []
        for a, nbrs in self._adjacency.items():
            for b, hops in nbrs.items():
                key = frozenset((a, b))
                if key not in seen:
                    seen.add(key)
                    out.append((a, b, hops))
        return out

    def total_wire_hops(self) -> int:
        return sum(hops for _, _, hops in self.edges)

    # ------------------------------------------------------------------
    def _distances_from(self, start: Node) -> Dict[Node, int]:
        """Hop distance from ``start`` to every node (BFS on a tree)."""
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nbr, hops in self._adjacency[node].items():
                    if nbr not in dist:
                        dist[nbr] = dist[node] + hops
                        nxt.append(nbr)
            frontier = nxt
        return dist

    def distance_hops(self, core_a: int, core_b: int) -> int:
        return self._distances_from(self.tap_of(core_a))[self.tap_of(core_b)]

    def broadcast_hops(self, source_core: int) -> int:
        """Hops until the farthest core hears a broadcast from source."""
        dist = self._distances_from(self.tap_of(source_core))
        return max(dist[self.tap_of(c)] for c in range(self.n_cores))

    def worst_broadcast_hops(self) -> int:
        return max(self.broadcast_hops(core) for core in range(self.n_cores))

    def longest_segment_run_hops(self) -> int:
        """Longest switch-to-switch wire run (the Fig. 10 link length).

        Cross-link switches sit at the spine/trunk junctions, so the
        longest continuously driven wire is half a spine: 3 hops = 6 mm,
        which is exactly the wire-link length the paper validates in
        Fig. 10 ('the wire-link length of our final network design ...
        is 6 mm from our model').
        """
        half_spine = (self.TAPS_PER_SPINE - 1) - self.JUNCTION_TAP
        half_spine = max(half_spine, self.JUNCTION_TAP)
        trunk = self.TRUNK_SEGMENT_HOPS
        return max(half_spine, trunk)

    def average_distance_hops(self) -> float:
        total = count = 0
        for a in range(self.n_cores):
            dist = self._distances_from(self.tap_of(a))
            for b in range(self.n_cores):
                if a != b:
                    total += dist[self.tap_of(b)]
                    count += 1
        return total / count

    # ------------------------------------------------------------------
    def link_directions(self, source_core: int) -> Dict[Edge, Tuple[Node, Node]]:
        """Cross-link switch settings for a broadcast from ``source_core``.

        Every tree segment is oriented away from the source tap; the
        returned mapping is what the cross-link controller ships to the
        switches in step (3) of the Fig. 19 mechanism.
        """
        start = self.tap_of(source_core)
        directions: Dict[Edge, Tuple[Node, Node]] = {}
        visited = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nbr in self._adjacency[node]:
                    if nbr not in visited:
                        visited.add(nbr)
                        directions[frozenset((node, nbr))] = (node, nbr)
                        nxt.append(nbr)
            frontier = nxt
        return directions


@dataclass(frozen=True)
class BusDesign(Topology):
    """A snooping shared bus as a latency/occupancy recipe.

    ``broadcast_hops`` is the worst-case wire distance a broadcast must
    cover; dividing by the link model's hops/cycle gives the bus
    occupancy per transaction, which bounds bandwidth.
    """

    name: str
    n_nodes: int
    broadcast_hops_worst: int
    total_wire_hops: int
    average_path_hops: float
    #: Request + arbitration + grant signalling latency (cycles). This
    #: pipeline overlaps with the previous broadcast, so it adds latency
    #: but not occupancy.
    arbitration_cycles: int = 2
    #: CryoBus's extra cycle for cross-link control generation (step 3).
    control_cycles: int = 0
    #: Address-interleaved ways (Section 7.1): ways independent buses.
    interleave_ways: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or self.broadcast_hops_worst < 1:
            raise ValueError(f"{self.name}: invalid bus geometry")
        if self.interleave_ways < 1:
            raise ValueError(f"{self.name}: interleave_ways must be >= 1")

    def broadcast_cycles(self, hops_per_cycle: int) -> int:
        """Cycles the bus is occupied per broadcast."""
        if hops_per_cycle < 1:
            raise ValueError("hops_per_cycle must be >= 1")
        return max(1, math.ceil(self.broadcast_hops_worst / hops_per_cycle))

    def zero_load_latency_cycles(self, hops_per_cycle: int) -> int:
        """Latency of an uncontended transaction (arb + control + wire)."""
        return (
            self.arbitration_cycles
            + self.control_cycles
            + self.broadcast_cycles(hops_per_cycle)
        )

    def saturation_rate(self, hops_per_cycle: int) -> float:
        """Aggregate accepted packets/cycle at saturation."""
        return self.interleave_ways / self.broadcast_cycles(hops_per_cycle)

    def interleaved(self, ways: int) -> "BusDesign":
        """This design with ``ways``-way address interleaving."""
        return BusDesign(
            name=f"{self.name}_{ways}way",
            n_nodes=self.n_nodes,
            broadcast_hops_worst=self.broadcast_hops_worst,
            total_wire_hops=self.total_wire_hops,
            average_path_hops=self.average_path_hops,
            arbitration_cycles=self.arbitration_cycles,
            control_cycles=self.control_cycles,
            interleave_ways=ways,
        )

    # Topology interface -------------------------------------------------
    def average_distance_mm(self) -> float:
        return self.average_path_hops * HOP_LENGTH_MM

    def max_distance_mm(self) -> float:
        return self.broadcast_hops_worst * HOP_LENGTH_MM


def SharedBusDesign(n_nodes: int = 64) -> BusDesign:
    """The conventional bidirectional shared bus (Fig. 15(d)).

    A 64 mm centre-fed spine with 64 taps: worst-case end-to-end travel
    is 30 hops and every transfer drives the full spine.
    """
    return BusDesign(
        name=f"shared_bus_{n_nodes}",
        n_nodes=n_nodes,
        broadcast_hops_worst=30,
        total_wire_hops=32,
        average_path_hops=32 / 3.0,  # mean |x - y| over a uniform spine
        arbitration_cycles=2,
    )


@lru_cache(maxsize=None)
def _htree_geometry(n_nodes: int) -> Tuple[int, int, float]:
    """(worst broadcast hops, total wire hops, average path hops) of the
    ``n_nodes``-core H-tree, derived once per core count."""
    tree = HTree(n_nodes)
    return (
        tree.worst_broadcast_hops(),
        tree.total_wire_hops(),
        tree.average_distance_hops(),
    )


def CryoBusDesign(n_nodes: int = 64, interleave_ways: int = 1) -> BusDesign:
    """CryoBus: H-tree topology + dynamic link connection (Fig. 19)."""
    worst, total, average = _htree_geometry(n_nodes)
    design = BusDesign(
        name=f"cryobus_{n_nodes}",
        n_nodes=n_nodes,
        broadcast_hops_worst=worst,
        total_wire_hops=total,
        average_path_hops=average,
        arbitration_cycles=2,
        control_cycles=1,
    )
    if interleave_ways > 1:
        design = design.interleaved(interleave_ways)
    return design


def HTreeBus300K(n_nodes: int = 64) -> BusDesign:
    """The Fig. 20 ablation: H-tree topology *without* cryogenic links.

    Same geometry and switching as CryoBus but meant to be evaluated at
    300 K wire speed -- topology optimisation alone cannot reach the
    1-cycle broadcast target.
    """
    worst, total, average = _htree_geometry(n_nodes)
    return BusDesign(
        name=f"htree_bus_{n_nodes}",
        n_nodes=n_nodes,
        broadcast_hops_worst=worst,
        total_wire_hops=total,
        average_path_hops=average,
        arbitration_cycles=2,
        control_cycles=1,
    )
