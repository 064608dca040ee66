"""Fig. 21: load-latency of all fabrics at 77 K (uniform random).

Router-based NoCs are shown with both the conservative 1-cycle and the
realistic 3-cycle router; CryoBus reaches a far lower zero-load latency
while tolerating contention comparably to CMesh / FB with 3-cycle
routers.

Sweeps are saturation-aware: once a fabric saturates, higher injection
rates are synthesised as saturated points (latency capped at
``LATENCY_CAP``) instead of being simulated -- past the knee the
measured value is a drain-cap artefact, and skipping it is where most of
the sweep time goes.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.link import WireLinkModel
from repro.noc.measure import load_latency_curve
from repro.noc.simulator import NocSimulator
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh, RouterTopology
from repro.noc.traffic import make_pattern
from repro.tech.operating_point import OP_CRYO

DEFAULT_RATES = (0.001, 0.002, 0.004, 0.006, 0.008, 0.012)


@lru_cache(maxsize=None)
def _router_topologies() -> Tuple[RouterTopology, ...]:
    """One of each router topology, shared by every series and call (Fig.
    25 calls :func:`run` once per pattern): each memoizes its route
    table per ``hops_per_cycle``."""
    return (Mesh(64), CMesh(64), FlattenedButterfly(64))


def run(
    rates: Sequence[float] = DEFAULT_RATES,
    n_cycles: int = 5000,
    pattern_name: str = "uniform",
    include_routers: Optional[Sequence[int]] = (1, 3),
    stop_on_saturation: bool = True,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig21",
        title=f"Load-latency at 77 K, {pattern_name} traffic",
        headers=("series", "rate_per_node", "latency_cycles", "saturated"),
        paper_reference={"cryobus_zero_load_cycles": 4},
    )
    links = WireLinkModel()
    hpc = links.hops_per_cycle(OP_CRYO)
    sim = NocSimulator(n_cycles=n_cycles)
    pattern = make_pattern(pattern_name, 64)

    def add_series(label: str, simulate, **kwargs) -> None:
        points = load_latency_curve(
            simulate, rates, stop_on_saturation=stop_on_saturation, **kwargs
        )
        for point in points:
            result.add_row(
                label,
                point.injection_rate,
                point.capped_latency_cycles,
                point.saturated,
            )

    for router_cycles in include_routers or ():
        for topo in _router_topologies():
            add_series(
                f"{topo.name}_{router_cycles}cyc",
                partial(
                    sim.simulate_router_network,
                    topo,
                    pattern,
                    router_cycles=router_cycles,
                    hops_per_cycle=hpc,
                ),
            )

    for label, bus in (
        ("shared_bus_77K", SharedBusDesign(64)),
        ("cryobus", CryoBusDesign(64)),
        ("cryobus_2way", CryoBusDesign(64, interleave_ways=2)),
    ):
        add_series(label, partial(sim.simulate_bus, bus, pattern, hops_per_cycle=hpc))
    return result
