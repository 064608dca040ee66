"""Stage assignment: where should each component live in the cryostat?

The two-temperature paper answers "300 K or 77 K" per design; the
multi-stage thermal layer turns that into a placement problem. This
experiment sweeps the memory-system components (core+L2 co-located,
DRAM, and the quantum-controller DSP) over the standard 300/77/4 K
stack, with electrical or optical links carrying the traffic across
every stage boundary the placement creates, and prices each assignment
through the :class:`~repro.thermal.cryostat.Cryostat` heat ledger.

Device power follows the stage: parking silicon on a colder plate buys
the paper's voltage-scaling saving (CryoSP-style at 77 K, marginally
more at 4 K), but every lifted watt is multiplied by that stage's
cooling overhead — ~9.65x at 77 K and ~7400x at 4 K — so the ledger,
not the device saving, decides the winner. Rows are sorted by total
wall-plug power, and each is checked against a wall-plug envelope (the
facility's power budget) for feasibility.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.base import ExperimentResult
from repro.power.tco import cryostat_tco_w
from repro.thermal.cryostat import ComponentPlacement, Cryostat, standard_stack
from repro.thermal.stage import InterStageLink, electrical_link, optical_link

#: 300 K device power of each placed component (W). Core+L2 are one
#: co-located block (they share a clock domain and a die); the
#: controller is the quantum-readout DSP that must talk to the 4 K
#: wiring regardless of where its digital logic sits.
DEVICE_POWER_300K_W: Dict[str, float] = {
    "core_l2": 12.0,
    "dram": 20.0,
    "controller": 1.5,
}

#: Device-power scale factor by stage: voltage scaling shrinks switching
#: power on colder plates (0.64x at 77 K per the CryoSP operating point;
#: a further sliver at 4 K where leakage is gone but Vdd has no more
#: headroom).
STAGE_POWER_SCALE: Dict[str, float] = {
    "300K": 1.0,
    "77K": 0.64,
    "4K": 0.60,
}

#: Signal lanes between component pairs (drives link heatload when the
#: pair ends up on different stages).
TRAFFIC_LANES: Dict[Tuple[str, str], int] = {
    ("core_l2", "dram"): 64,
    ("core_l2", "controller"): 16,
    ("controller", "qubit_plate"): 8,
}

#: Default facility wall-plug envelope (W) an assignment must fit.
DEFAULT_ENVELOPE_W = 400.0

_STAGE_NAMES = ("300K", "77K", "4K")


def _build(
    core_stage: str, dram_stage: str, ctrl_stage: str, link_kind: str
) -> Cryostat:
    """The cryostat realising one placement under one link technology."""
    stages = standard_stack(include_4k=True)
    order = {s.name: i for i, s in enumerate(stages)}
    placed = {
        "core_l2": core_stage,
        "dram": dram_stage,
        "controller": ctrl_stage,
        # The qubit wiring terminates at 4 K no matter what; it is a
        # link endpoint, not a powered component.
        "qubit_plate": "4K",
    }
    make_link = electrical_link if link_kind == "electrical" else optical_link
    links: List[InterStageLink] = []
    for (a, b), lanes in sorted(TRAFFIC_LANES.items()):
        stage_a, stage_b = placed[a], placed[b]
        if stage_a == stage_b:
            continue
        hot, cold = sorted((stage_a, stage_b), key=order.__getitem__)
        links.append(make_link(hot, cold, lanes=lanes, name=f"{a}-{b}"))
    placements = [
        ComponentPlacement(
            component,
            stage,
            DEVICE_POWER_300K_W[component] * STAGE_POWER_SCALE[stage],
        )
        for component, stage in placed.items()
        if component in DEVICE_POWER_300K_W
    ]
    return Cryostat(stages, links=links, placements=placements)


def run(envelope_w: float = DEFAULT_ENVELOPE_W) -> ExperimentResult:
    """Sweep every placement x link-kind pair through the heat ledger."""
    if envelope_w <= 0.0:
        raise ValueError(f"envelope_w must be positive, got {envelope_w!r}")
    result = ExperimentResult(
        experiment_id="stage_assignment",
        title="Component stage assignment over the 300/77/4 K cryostat",
        headers=(
            "core_l2_stage",
            "dram_stage",
            "controller_stage",
            "link_kind",
            "device_w",
            "cooling_w",
            "wall_plug_w",
            "tco_w",
            "fits_envelope",
        ),
        paper_reference={"cooling_overhead_77k": 9.65},
        notes=(
            "Device power scales with the stage's voltage headroom; the "
            "heat ledger charges every conducted and dissipated link "
            "watt to the stage it lands on. Rows sorted by wall-plug "
            f"power; envelope {envelope_w:g} W."
        ),
    )
    rows = []
    for core_stage in _STAGE_NAMES:
        for dram_stage in _STAGE_NAMES:
            for ctrl_stage in _STAGE_NAMES:
                for link_kind in ("electrical", "optical"):
                    cryostat = _build(
                        core_stage, dram_stage, ctrl_stage, link_kind
                    )
                    ledger = cryostat.ledger()
                    rows.append(
                        (
                            core_stage,
                            dram_stage,
                            ctrl_stage,
                            link_kind,
                            ledger.device_w,
                            ledger.cooling_w,
                            ledger.wall_plug_w,
                            cryostat_tco_w(cryostat),
                            ledger.wall_plug_w <= envelope_w,
                        )
                    )
    rows.sort(key=lambda row: (row[6], row[0], row[1], row[2], row[3]))
    for row in rows:
        result.add_row(*row)
    return result
