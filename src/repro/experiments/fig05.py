"""Fig. 5: 77 K wire speed-up versus length, with and without repeaters.

(a) unrepeated local and semi-global wires approach their resistivity
    ratios (2.95x and 3.69x) at long lengths;
(b) repeated wires at their average lengths: 900 um semi-global and
    6.22 mm global reach ~2.25x and ~3.38x.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.tech.operating_point import OP_CRYO
from repro.tech.wire import CryoWireModel

UNREPEATED_LENGTHS_UM = (100.0, 250.0, 500.0, 1000.0, 2000.0, 3000.0, 5000.0)
REPEATED_LENGTHS_UM = (500.0, 900.0, 2000.0, 4000.0, 6220.0, 10000.0)


def run(
    unrepeated_lengths: Sequence[float] = UNREPEATED_LENGTHS_UM,
    repeated_lengths: Sequence[float] = REPEATED_LENGTHS_UM,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig05",
        title="77 K wire speed-up vs length (a: unrepeated, b: repeated)",
        headers=("series", "length_um", "speedup_77k"),
        paper_reference={
            "local_unrepeated_max": 2.95,
            "semi_global_unrepeated_max": 3.69,
            "semi_global_repeated_900um": 2.25,
            "global_repeated_6220um": 3.38,
        },
    )
    wires = CryoWireModel()
    for layer in ("local", "semi_global"):
        for length, speedup in wires.speedup_sweep(
            layer, unrepeated_lengths, OP_CRYO, repeated=False
        ).items():
            result.add_row(f"{layer}_unrepeated", length, speedup)
    for layer in ("semi_global", "global"):
        for length, speedup in wires.speedup_sweep(
            layer, repeated_lengths, OP_CRYO, repeated=True
        ).items():
            result.add_row(f"{layer}_repeated", length, speedup)
    result.notes = (
        "Semi-global repeaters are logic-library cells (FreePDK45 card); "
        "global repeaters use the industry 2z-nm card, as in Section 2.3."
    )
    return result
