#!/usr/bin/env python
"""Quickstart: the CryoWire story in five steps.

Walks the paper's argument end to end with the public API:

1. wires get much faster at 77 K, transistors barely do;
2. that moves the pipeline's critical path from the wire-bound backend
   to the transistor-bound frontend;
3. superpipelining the frontend (CryoSP) recovers the frequency;
4. router NoCs can't use fast wires, a broadcast bus can (CryoBus);
5. the combined system beats the 300 K baseline ~3.8x.

Run:  python examples/quickstart.py
"""

from repro.core.cryosp import CryoSPDesigner
from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.latency import AnalyticNocModel
from repro.noc.link import WireLinkModel
from repro.noc.topology import Mesh
from repro.pipeline.config import SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.system.config import BASELINE_300K_MESH, CRYOSP_77K_CRYOBUS
from repro.system.multicore import MulticoreSystem
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD
from repro.tech.operating_point import (
    OP_300K_NOMINAL,
    OP_77K_NOMINAL,
    OP_CRYO,
    OP_NOC_77K,
)
from repro.tech.wire import CryoWireModel
from repro.workloads.profiles import PARSEC_2_1


def step1_devices() -> None:
    print("=== 1. Devices at 77 K ===")
    wires = CryoWireModel()
    logic = CryoMOSFET(FREEPDK45_CARD)
    print(f"transistors speed up        : {logic.delay_speedup(OP_CRYO):.2f}x")
    print(
        "forwarding wire (1686 um)   : "
        f"{wires.unrepeated_speedup('semi_global', 1686, OP_CRYO):.2f}x"
    )
    print(f"global wire, repeated (6 mm): {wires.repeated_speedup('global', 6000, OP_CRYO):.2f}x")
    print()


def step2_critical_path() -> None:
    print("=== 2. Critical path moves to the frontend ===")
    model = PipelineModel()
    warm = model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
    cold = model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
    print(f"300 K critical stage: {warm.critical_stage.name:15s} "
          f"({warm.frequency_ghz:.2f} GHz, wire {warm.critical_stage.wire_fraction:.0%})")
    print(f" 77 K critical stage: {cold.critical_stage.name:15s} "
          f"({cold.frequency_ghz:.2f} GHz, wire {cold.critical_stage.wire_fraction:.0%})")
    print()


def step3_cryosp() -> None:
    print("=== 3. CryoSP derivation (Table 3) ===")
    table = CryoSPDesigner().derive()
    for design in table.designs():
        print(f"{design.name:28s} {design.frequency_ghz:5.2f} GHz  "
              f"IPC {design.ipc_relative:.2f}  total power {design.power.total_rel:5.2f}")
    print()


def step4_cryobus() -> None:
    print("=== 4. NoC latency at 77 K ===")
    links = WireLinkModel()
    hpc = links.hops_per_cycle(OP_CRYO)
    mesh = AnalyticNocModel(topology=Mesh(64), op=OP_NOC_77K)
    bus = AnalyticNocModel(bus=SharedBusDesign(64), op=OP_CRYO)
    cryo = AnalyticNocModel(bus=CryoBusDesign(64), op=OP_CRYO)
    print(f"77 K wire links cover {hpc} hops per 4 GHz cycle")
    for name, model in (("mesh", mesh), ("shared bus", bus), ("CryoBus", cryo)):
        print(f"{name:12s}: {model.one_way_ns(0.0):.2f} ns one-way at zero load")
    print()


def step5_system() -> None:
    print("=== 5. System-level result (Fig. 23 headline) ===")
    baseline = MulticoreSystem(BASELINE_300K_MESH).evaluate_suite(PARSEC_2_1)
    cryowire = MulticoreSystem(CRYOSP_77K_CRYOBUS).evaluate_suite(PARSEC_2_1)
    gains = [
        cryowire[p.name].performance / baseline[p.name].performance
        for p in PARSEC_2_1
    ]
    print(f"CryoSP + CryoBus vs 300 K baseline: {sum(gains) / len(gains):.2f}x "
          f"average over PARSEC (paper: 3.82x)")


if __name__ == "__main__":
    step1_devices()
    step2_critical_path()
    step3_cryosp()
    step4_cryobus()
    step5_system()
