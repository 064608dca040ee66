"""Router-based NoC topologies of Fig. 15: Mesh, CMesh, Flattened Butterfly.

Each topology knows its router graph, a deterministic deadlock-free
routing function, and its physical geometry (hop lengths in mm on the
16 mm x 16 mm 64-core die), which is what couples it to the wire-link
model. Bus topologies live in :mod:`repro.noc.bus`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Core tile pitch (mm): the 64-core CPU is a 16 mm x 16 mm die with an
#: 8x8 grid of 2 mm tiles; larger core counts grow the die accordingly.
TILE_PITCH_MM = 2.0

#: Physical hop granularity of the link model (mm).
LINK_HOP_MM = 2.0

def die_edge_mm(n_nodes: int) -> float:
    """Die edge for ``n_nodes`` cores at the standard tile pitch."""
    return TILE_PITCH_MM * math.sqrt(n_nodes)


def link_cycles(length_mm: float, hops_per_cycle: float) -> int:
    """Cycles to traverse a link of ``length_mm`` when a signal covers
    ``hops_per_cycle`` link hops per cycle (at least one cycle)."""
    hops = max(length_mm / LINK_HOP_MM, 1.0)
    return max(1, math.ceil(hops / hops_per_cycle))


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Every node-to-node route as flat ``int32`` arrays.

    The route from node ``src`` to node ``dst`` is hops
    ``offset[k] .. offset[k] + count[k] - 1`` of ``port`` and ``link``,
    with ``k = src * n_nodes + dst``; a route inside one router has no
    hops. ``port`` numbers the directed links the routing uses, ``0 ..
    n_ports - 1``, and ``link`` is the hop's :func:`link_cycles`. Node
    pairs on the same two routers share one run of hops.
    """

    offset: np.ndarray
    count: np.ndarray
    port: np.ndarray
    link: np.ndarray
    n_ports: int


class Topology(ABC):
    """Common interface of every NoC fabric (router-based or bus)."""

    name: str
    n_nodes: int

    @abstractmethod
    def average_distance_mm(self) -> float:
        """Mean source-destination wire distance under uniform traffic."""

    @abstractmethod
    def max_distance_mm(self) -> float:
        """Worst-case source-destination wire distance."""


class RouterTopology(Topology):
    """A topology built from routers and point-to-point links.

    Concrete classes define the router grid, the node->router mapping
    (concentration) and the route between routers as a list of hops,
    each hop carrying its physical length.
    """

    def __init__(self, name: str, n_nodes: int):
        if n_nodes < 2:
            raise ValueError("topology needs at least two nodes")
        self.name = name
        self.n_nodes = n_nodes

    # -- router graph -------------------------------------------------
    @property
    @abstractmethod
    def n_routers(self) -> int: ...

    @abstractmethod
    def router_of(self, node: int) -> int:
        """Router a node (core) is attached to."""

    @abstractmethod
    def route(self, src_router: int, dst_router: int) -> List[Tuple[int, int, float]]:
        """Hops (from_router, to_router, length_mm) along the route."""

    # -- derived geometry ----------------------------------------------
    # A topology's routing is fixed at construction, so the derived
    # metrics are memoized on the instance. Only the simulator's link
    # table keeps routes; the statistics stream over them, since a large
    # mesh has far more routes than its statistics need memory for.
    def hops(self, src: int, dst: int) -> int:
        """Router-to-router hop count between two nodes."""
        return len(self.route(self.router_of(src), self.router_of(dst)))

    def distance_mm(self, src: int, dst: int) -> float:
        return sum(
            length for _, _, length in self.route(self.router_of(src), self.router_of(dst))
        )

    def _pairs(self) -> Iterator[Tuple[int, int]]:
        for src in range(self.n_nodes):
            for dst in range(self.n_nodes):
                if src != dst:
                    yield src, dst

    @cached_property
    def _route_stats(self) -> Tuple[float, int, int]:
        """(average hops, max hops, directed links used) over all node
        pairs, in one pass over the router pairs: a router pair stands
        for every node pair it connects."""
        n = self.n_routers
        members = [0] * n
        for node in range(self.n_nodes):
            members[self.router_of(node)] += 1
        total = longest = 0
        links = set()
        for src in range(n):
            for dst in range(n):
                route = self.route(src, dst)
                if src != dst:
                    links.update((frm, to) for frm, to, _ in route)
                    weight = members[src] * members[dst]
                else:
                    weight = members[src] * (members[src] - 1)
                if weight:
                    total += len(route) * weight
                    longest = max(longest, len(route))
        return total / (self.n_nodes * (self.n_nodes - 1)), longest, len(links)

    def average_hops(self) -> float:
        return self._route_stats[0]

    def max_hops(self) -> int:
        return self._route_stats[1]

    def n_directed_links(self) -> int:
        """Directed router-to-router links actually used by the routing."""
        return self._route_stats[2]

    @cached_property
    def _link_tables(self) -> Dict[float, LinkTable]:
        return {}

    def link_table(self, hops_per_cycle: float) -> LinkTable:
        """The routes between nodes with their link cycles at
        ``hops_per_cycle``, memoized per ``hops_per_cycle``."""
        table = self._link_tables.get(hops_per_cycle)
        if table is None:
            n = self.n_routers
            cycles: Dict[float, int] = {}  # link cycles per hop length
            port_of: Dict[Tuple[int, int], int] = {}  # directed link -> port
            ports: List[int] = []
            links: List[int] = []
            counts: List[int] = []
            for src in range(n):
                for dst in range(n):
                    route = self.route(src, dst)
                    counts.append(len(route))
                    for frm, to, length in route:
                        found = cycles.get(length)
                        if found is None:
                            found = cycles[length] = link_cycles(length, hops_per_cycle)
                        ports.append(port_of.setdefault((frm, to), len(port_of)))
                        links.append(found)
            count = np.array(counts, dtype=np.int32)
            offset = np.cumsum(count, dtype=np.int32) - count
            routers = np.array(
                [self.router_of(node) for node in range(self.n_nodes)], dtype=np.int32
            )
            pair = (routers[:, None] * n + routers[None, :]).ravel()
            table = LinkTable(
                offset=offset[pair],
                count=count[pair],
                port=np.array(ports, dtype=np.int32),
                link=np.array(links, dtype=np.int32),
                n_ports=len(port_of),
            )
            self._link_tables[hops_per_cycle] = table
        return table

    def mean_link_cycles(self, hops_per_cycle: float) -> float:
        """Mean link cycles per hop over the routes from every 7th node
        (a sample of the routes), or 1.0 when none leaves its router."""
        total = count = 0
        for src in range(0, self.n_nodes, 7):
            for dst in range(self.n_nodes):
                if src == dst:
                    continue
                for _, _, length in self.route(self.router_of(src), self.router_of(dst)):
                    total += link_cycles(length, hops_per_cycle)
                    count += 1
        return total / count if count else 1.0

    def average_distance_mm(self) -> float:
        total = count = 0.0
        for src, dst in self._pairs():
            total += self.distance_mm(src, dst)
            count += 1
        return total / count

    def max_distance_mm(self) -> float:
        return max(self.distance_mm(src, dst) for src, dst in self._pairs())


def _grid_side(n_routers: int) -> int:
    side = int(round(math.sqrt(n_routers)))
    if side * side != n_routers:
        raise ValueError(f"router count {n_routers} is not a perfect square")
    return side


class Mesh(RouterTopology):
    """k x k 2D mesh with XY dimension-order routing (Fig. 15(a))."""

    @property
    def router_radix(self) -> int:
        """Ports per router: four mesh directions plus local ejection."""
        return 4 + self.concentration


    def __init__(self, n_nodes: int = 64, concentration: int = 1, name: str = ""):
        super().__init__(name or f"mesh_{n_nodes}", n_nodes)
        if n_nodes % concentration:
            raise ValueError("concentration must divide node count")
        self.concentration = concentration
        self.side = _grid_side(n_nodes // concentration)
        #: Physical link length between adjacent routers.
        self.hop_length_mm = die_edge_mm(n_nodes) / self.side

    @property
    def n_routers(self) -> int:
        return self.side * self.side

    def router_of(self, node: int) -> int:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range")
        return node // self.concentration

    def _coords(self, router: int) -> Tuple[int, int]:
        return router % self.side, router // self.side

    @cached_property
    def _route_stats(self) -> Tuple[float, int, int]:
        """The generic pass's values in closed form: an XY route takes
        |dx| + |dy| hops, and every node of another router weighs in
        ``concentration`` times at each end."""
        side, conc = self.side, self.concentration
        # sum of |a - b| over ordered pairs of coordinates on one axis
        axis = (side - 1) * side * (side + 1) // 3
        total = 2 * side * side * axis * conc * conc
        return (
            total / (self.n_nodes * (self.n_nodes - 1)),
            2 * (side - 1),
            4 * side * (side - 1),
        )

    def mean_link_cycles(self, hops_per_cycle: float) -> float:
        """The sampled pass's value in closed form: every XY hop is one
        ``hop_length_mm`` link, so the pass divides an integer multiple of
        that link's cycles by its hop count."""
        if self.n_routers == 1:
            return 1.0
        return float(link_cycles(self.hop_length_mm, hops_per_cycle))

    def route(self, src_router: int, dst_router: int) -> List[Tuple[int, int, float]]:
        sx, sy = self._coords(src_router)
        dx, dy = self._coords(dst_router)
        hops: List[Tuple[int, int, float]] = []
        x, y = sx, sy
        while x != dx:  # X first (deadlock-free dimension order)
            nx = x + (1 if dx > x else -1)
            hops.append((y * self.side + x, y * self.side + nx, self.hop_length_mm))
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            hops.append((y * self.side + x, ny * self.side + x, self.hop_length_mm))
            y = ny
        return hops


class CMesh(Mesh):
    """Concentrated mesh: 4 cores per router on a 4x4 grid (Fig. 15(c))."""

    def __init__(self, n_nodes: int = 64, concentration: int = 4):
        super().__init__(n_nodes, concentration, name=f"cmesh_{n_nodes}")


class FlattenedButterfly(RouterTopology):
    """Flattened butterfly (Fig. 15(b)): 4x4 concentrated routers with
    full connectivity inside each row and column, giving at most two
    router-to-router hops; long express links pay physical distance.
    """

    def __init__(self, n_nodes: int = 64, concentration: int = 4):
        super().__init__(f"flattened_butterfly_{n_nodes}", n_nodes)
        if n_nodes % concentration:
            raise ValueError("concentration must divide node count")
        self.concentration = concentration
        self.side = _grid_side(n_nodes // concentration)
        self.router_pitch_mm = die_edge_mm(n_nodes) / self.side

    @property
    def n_routers(self) -> int:
        return self.side * self.side

    @property
    def router_radix(self) -> int:
        """Ports per router: full row + column connectivity + locals."""
        return 2 * (self.side - 1) + self.concentration

    def router_of(self, node: int) -> int:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range")
        return node // self.concentration

    def _coords(self, router: int) -> Tuple[int, int]:
        return router % self.side, router // self.side

    def route(self, src_router: int, dst_router: int) -> List[Tuple[int, int, float]]:
        sx, sy = self._coords(src_router)
        dx, dy = self._coords(dst_router)
        hops: List[Tuple[int, int, float]] = []
        if sx != dx:  # single express hop within the row
            mid = sy * self.side + dx
            hops.append(
                (sy * self.side + sx, mid, abs(dx - sx) * self.router_pitch_mm)
            )
            sx = dx
        if sy != dy:  # single express hop within the column
            hops.append(
                (
                    sy * self.side + sx,
                    dy * self.side + sx,
                    abs(dy - sy) * self.router_pitch_mm,
                )
            )
        return hops
