"""Cryostat: an ordered stage stack with placements and a heat ledger.

A :class:`Cryostat` is the whole thermal system: stages ordered warm to
cold, the inter-stage links crossing their boundaries, and the component
placements saying where each heat source lives. Its product is the
:class:`CryostatLedger` — one :class:`StageLedger` per stage answering
"how much heat must this stage's cooler lift, and what does that cost at
the wall":

* ``device_w`` — power dissipated *at* the stage: placed components plus
  the hot-side drive power of links departing from it;
* ``link_heat_w`` — heat *arriving* at the stage down links landing on
  it (conduction plus cold-side dissipation);
* ``lifted_w = device_w + link_heat_w`` — what the cooler must remove;
* ``cooling_w = lifted_w * CO`` — the cooler's wall-plug input (Eq. 1);
* ``wall_plug_w = device_w * (1 + CO) + link_heat_w * CO`` — the stage's
  total wall draw. Conducted heat costs cooling but not device power:
  the electricity that became that heat was already billed to the
  warmer stage it came from.

**Degenerate two-stage guarantee.** ``wall_plug_w`` is deliberately
written in the Eq. (2) form ``device * (1 + CO) + link_heat * CO`` so a
linkless cold stage reproduces the classic ``P_total = (1 + CO) *
P_dev`` *bit-identically* — :class:`repro.power.tco.TemperaturePoint`
evaluates through :meth:`Cryostat.two_stage` and its TCO curve is
test-enforced equal to the historic two-endpoint closed form
(``tests/test_thermal.py``, ``tests/test_tco_cryostat.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.tech.constants import T_ROOM
from repro.thermal.stage import InterStageLink, ThermalStage


@dataclass(frozen=True)
class ComponentPlacement:
    """One heat source living at one stage."""

    component: str
    stage: str
    device_power_w: float

    def __post_init__(self) -> None:
        if not self.component:
            raise ValueError("placement needs a component name")
        if self.device_power_w < 0.0:
            raise ValueError(
                f"{self.component}: device_power_w must be >= 0, "
                f"got {self.device_power_w!r}"
            )


@dataclass(frozen=True)
class StageLedger:
    """Heat and wall-plug accounting of one stage."""

    stage: str
    temperature_k: float
    cooling_overhead: float
    device_w: float
    link_heat_w: float

    @property
    def lifted_w(self) -> float:
        """Heat the stage's cooler must lift (W)."""
        return self.device_w + self.link_heat_w

    @property
    def cooling_w(self) -> float:
        """Cooler wall-plug input: lifted heat times CO (Eq. 1)."""
        return self.lifted_w * self.cooling_overhead

    @property
    def wall_plug_w(self) -> float:
        """Stage wall draw: device electricity plus the cooling bill.

        Written as ``device * (1 + CO) + link_heat * CO`` (algebraically
        ``device + lifted * CO``) so the linkless case reproduces
        Eq. (2)'s ``(1 + CO) * P_dev`` bit-identically.
        """
        return (
            self.device_w * (1.0 + self.cooling_overhead)
            + self.link_heat_w * self.cooling_overhead
        )

    def to_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "temperature_k": self.temperature_k,
            "cooling_overhead": self.cooling_overhead,
            "device_w": self.device_w,
            "link_heat_w": self.link_heat_w,
            "lifted_w": self.lifted_w,
            "cooling_w": self.cooling_w,
            "wall_plug_w": self.wall_plug_w,
        }


@dataclass(frozen=True)
class CryostatLedger:
    """Per-stage ledgers plus system totals."""

    stages: Tuple[StageLedger, ...]

    def stage(self, name: str) -> StageLedger:
        for ledger in self.stages:
            if ledger.stage == name:
                return ledger
        raise KeyError(f"no stage {name!r} in the ledger")

    @property
    def device_w(self) -> float:
        return sum(s.device_w for s in self.stages)

    @property
    def cooling_w(self) -> float:
        return sum(s.cooling_w for s in self.stages)

    @property
    def wall_plug_w(self) -> float:
        return sum(s.wall_plug_w for s in self.stages)

    def to_dict(self) -> Dict:
        return {
            "stages": [s.to_dict() for s in self.stages],
            "totals": {
                "device_w": self.device_w,
                "cooling_w": self.cooling_w,
                "wall_plug_w": self.wall_plug_w,
            },
        }


class Cryostat:
    """An ordered stage stack with links and component placements."""

    def __init__(
        self,
        stages: Sequence[ThermalStage],
        links: Iterable[InterStageLink] = (),
        placements: Iterable[ComponentPlacement] = (),
    ) -> None:
        stages = tuple(stages)
        if not stages:
            raise ValueError("cryostat needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        for warm, cold in zip(stages, stages[1:]):
            if not (warm.temperature_k > cold.temperature_k):
                raise ValueError(
                    "stages must be ordered warm to cold with strictly "
                    f"decreasing temperatures ({warm.name} at "
                    f"{warm.temperature_k:g} K before {cold.name} at "
                    f"{cold.temperature_k:g} K)"
                )
        self.stages: Tuple[ThermalStage, ...] = stages
        self._by_name: Dict[str, ThermalStage] = {s.name: s for s in stages}

        links = tuple(links)
        for link in links:
            hot = self._stage(link.hot_stage, f"link {link.name}")
            cold = self._stage(link.cold_stage, f"link {link.name}")
            if not (hot.temperature_k > cold.temperature_k):
                raise ValueError(
                    f"link {link.name}: hot stage {hot.name} "
                    f"({hot.temperature_k:g} K) must be warmer than "
                    f"{cold.name} ({cold.temperature_k:g} K)"
                )
        self.links: Tuple[InterStageLink, ...] = links

        placements = tuple(placements)
        seen = set()
        for placement in placements:
            self._stage(placement.stage, f"component {placement.component}")
            if placement.component in seen:
                raise ValueError(
                    f"component {placement.component!r} placed twice"
                )
            seen.add(placement.component)
        self.placements: Tuple[ComponentPlacement, ...] = placements

    def _stage(self, name: str, who: str) -> ThermalStage:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(
                f"{who} references unknown stage {name!r}; "
                f"stages: {', '.join(self._by_name)}"
            ) from None

    # -- introspection ------------------------------------------------------

    @property
    def coldest(self) -> ThermalStage:
        return self.stages[-1]

    def stage(self, name: str) -> ThermalStage:
        return self._stage(name, "caller")

    def placement(self, component: str) -> ComponentPlacement:
        for placement in self.placements:
            if placement.component == component:
                return placement
        raise KeyError(f"no component {component!r} placed in this cryostat")

    # -- editing ------------------------------------------------------------

    def with_placement(self, component: str, stage: str) -> "Cryostat":
        """A copy with ``component`` moved to ``stage`` (same power)."""
        current = self.placement(component)
        moved = ComponentPlacement(component, stage, current.device_power_w)
        return Cryostat(
            self.stages,
            self.links,
            tuple(moved if p.component == component else p for p in self.placements),
        )

    # -- the ledger ---------------------------------------------------------

    def ledger(self) -> CryostatLedger:
        """Per-stage heat accounting and the total wall-plug bill."""
        device: Dict[str, float] = {name: 0.0 for name in self._by_name}
        link_heat: Dict[str, float] = {name: 0.0 for name in self._by_name}
        for placement in self.placements:
            device[placement.stage] += placement.device_power_w
        for link in self.links:
            device[link.hot_stage] += link.hot_side_w
            link_heat[link.cold_stage] += link.cold_heatload_w
        return CryostatLedger(
            stages=tuple(
                StageLedger(
                    stage=stage.name,
                    temperature_k=stage.temperature_k,
                    cooling_overhead=stage.cooling_overhead,
                    device_w=device[stage.name],
                    link_heat_w=link_heat[stage.name],
                )
                for stage in self.stages
            )
        )

    def wall_plug_w(self) -> float:
        """Total wall draw of the system (the envelope quantity)."""
        return self.ledger().wall_plug_w

    # -- canonical constructions -------------------------------------------

    @classmethod
    def two_stage(
        cls,
        temperature_k: float,
        device_power_w: float,
        *,
        carnot_fraction: float = 0.30,
        overhead: Optional[float] = None,
        t_ambient_k: float = T_ROOM,
    ) -> "Cryostat":
        """The paper's world: everything on one cold plate under ambient.

        This is the degenerate case the historic two-temperature model
        priced: a single load at ``temperature_k`` whose stage overhead
        is ``overhead`` if given (e.g. an externally computed CO), else
        the per-stage provider's value. At or above ambient it collapses
        to a single uncooled stage, so ``wall_plug_w`` is exactly
        ``device_power_w``.
        """
        load = ComponentPlacement("device", "cold", device_power_w)
        if temperature_k >= t_ambient_k:
            ambient = ThermalStage(
                "cold", temperature_k, t_ambient_k=t_ambient_k
            )
            return cls([ambient], placements=[load])
        cold = ThermalStage(
            "cold",
            temperature_k,
            carnot_fraction=carnot_fraction,
            overhead_override=overhead,
            t_ambient_k=t_ambient_k,
        )
        ambient = ThermalStage("ambient", t_ambient_k, t_ambient_k=t_ambient_k)
        return cls([ambient, cold], placements=[load])


def standard_stack(include_4k: bool = True) -> Tuple[ThermalStage, ...]:
    """The reference 300 K / 77 K (/ 4 K) stack of the scenario pack."""
    from repro.thermal.stage import STAGE_300K, STAGE_4K, STAGE_77K

    stages: List[ThermalStage] = [STAGE_300K, STAGE_77K]
    if include_4k:
        stages.append(STAGE_4K)
    return tuple(stages)
