"""Orion-like NoC power model with cryo leakage scaling (Fig. 22).

Power per NoC design is built from *activity*: each L2-miss transaction
(request + response) activates a design-specific amount of wire and a
number of router traversals. Dynamic power scales with that energy,
V_dd^2 and the traffic rate; static power is router-dominated at 300 K
("the 300K-dominant static power") and collapses at 77 K through the
cryo-MOSFET leakage factor; cooling is added per Eq. (2).

The activated-resource accounting is what reproduces the paper's Fig. 22
ordering: a conventional shared bus drives its whole spine for *every*
transfer, while CryoBus's dynamic link connection broadcasts requests
over the (shorter) H-tree and steers responses down a single
source-to-destination path -- "avoiding wasteful broadcasting when the
destination of the packet is specified".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.cooling import CoolingModel
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD, MOSFETCard
from repro.tech.operating_point import OP_NOC_300K, OperatingPoint

#: Energy of one router traversal, in units of 1 mm of activated link
#: wire. Wide 4-VC routers cost roughly a dozen mm-equivalents (Orion's
#: buffer + crossbar + arbitration energies vs. repeated-wire energy).
ROUTER_ENERGY_PER_HOP_MM_EQ = 12.0

#: Dynamic share of the 300 K reference mesh's power (static dominates
#: at room temperature for buffered routers).
MESH_300K_DYNAMIC_FRACTION = 0.22


@dataclass(frozen=True)
class NocEnergyProfile:
    """Activated resources per transaction (request + response)."""

    name: str
    #: Millimetres of link wire driven per transaction.
    activated_wire_mm: float
    #: Router traversals per transaction.
    router_hops: float
    #: Leaky router count relative to the 8x8 mesh (static scaling).
    router_static_rel: float

    def transaction_energy(self) -> float:
        """Energy per transaction in mm-of-wire equivalents."""
        return self.activated_wire_mm + self.router_hops * ROUTER_ENERGY_PER_HOP_MM_EQ


#: 8x8 mesh: request and response each traverse ~5.33 hops of 2 mm links.
MESH_64_PROFILE = NocEnergyProfile(
    name="mesh_8x8",
    activated_wire_mm=2 * 5.33 * 2.0,
    router_hops=2 * 5.33,
    router_static_rel=1.0,
)

#: Conventional bidirectional shared bus: every transfer (both request
#: and response are broadcasts) drives the full ~64 mm spine.
SHARED_BUS_64_PROFILE = NocEnergyProfile(
    name="shared_bus_64",
    activated_wire_mm=2 * 64.0,
    router_hops=0.0,
    router_static_rel=0.05,  # bus repeaters/arbiter only
)

#: CryoBus: request broadcast over the 60 mm H-tree, response steered
#: down a ~11 mm average source-to-destination path (the dynamic link
#: connection avoids broadcasting when the destination is known), plus
#: the arbiter's control distribution to the cross-link switches and the
#: request/grant signalling.
CRYOBUS_64_PROFILE = NocEnergyProfile(
    name="cryobus_64",
    activated_wire_mm=60.0 + 11.4 + 12.0 + 2.0,
    router_hops=0.0,
    router_static_rel=0.06,  # cross-link switches + matrix arbiter
)


def profile_from_mesh(topology) -> NocEnergyProfile:
    """Derive an energy profile from a router topology's geometry.

    A transaction is one request plus one response, each travelling the
    topology's average hop count and wire distance.
    """
    avg_hops = topology.average_hops()
    avg_mm = topology.average_distance_mm()
    return NocEnergyProfile(
        name=topology.name,
        activated_wire_mm=2.0 * avg_mm,
        router_hops=2.0 * avg_hops,
        router_static_rel=topology.n_routers / 64.0,
    )


def profile_from_bus(bus, *, dynamic_links: bool = False) -> NocEnergyProfile:
    """Derive an energy profile from a bus design's geometry.

    A conventional bus drives its whole spine for both request and
    response; with dynamic link connection the response only energises
    the source-to-destination path, plus the control distribution
    to the cross-link switches (~a fifth of the tree) and the
    request/grant signalling.
    """
    from repro.noc.bus import HOP_LENGTH_MM

    total_mm = bus.total_wire_hops * HOP_LENGTH_MM
    if dynamic_links:
        response_mm = bus.average_path_hops * HOP_LENGTH_MM
        control_mm = 0.2 * total_mm
        activated = total_mm + response_mm + control_mm + 2.0
        static = 0.06
    else:
        activated = 2.0 * total_mm
        static = 0.05
    return NocEnergyProfile(
        name=bus.name,
        activated_wire_mm=activated,
        router_hops=0.0,
        router_static_rel=static,
    )


@dataclass(frozen=True)
class NocPowerReport:
    """Power of one NoC design, relative to the 300 K mesh's total."""

    design_name: str
    dynamic_rel: float
    static_rel: float
    cooling_rel: float

    @property
    def device_rel(self) -> float:
        return self.dynamic_rel + self.static_rel

    @property
    def total_rel(self) -> float:
        return self.device_rel + self.cooling_rel


class NocPowerModel:
    """Relative NoC power at arbitrary (profile, operating point)."""

    def __init__(self, logic_card: MOSFETCard = FREEPDK45_CARD):
        self.mosfet = CryoMOSFET(logic_card)
        self._ref_energy = MESH_64_PROFILE.transaction_energy()
        self._ref_leak = self.mosfet.leakage_factor(OP_NOC_300K)

    def report(
        self,
        profile: NocEnergyProfile,
        op: OperatingPoint,
        traffic_rel: float = 1.0,
    ) -> NocPowerReport:
        """Power relative to the 300 K mesh at the same traffic.

        ``traffic_rel`` scales dynamic power with the transaction rate
        (1.0 = the reference workload mix).
        """
        if traffic_rel < 0:
            raise ValueError("traffic must be non-negative")
        v_ratio = op.vdd_v / OP_NOC_300K.vdd_v
        dynamic = (
            MESH_300K_DYNAMIC_FRACTION
            * (profile.transaction_energy() / self._ref_energy)
            * v_ratio**2
            * traffic_rel
        )
        leak = self.mosfet.leakage_factor(op) / self._ref_leak
        static = (1.0 - MESH_300K_DYNAMIC_FRACTION) * profile.router_static_rel * leak
        cooling = CoolingModel(op.temperature_k).cooling_power(dynamic + static)
        return NocPowerReport(
            design_name=f"{profile.name}@{op.name}",
            dynamic_rel=dynamic,
            static_rel=static,
            cooling_rel=cooling,
        )
