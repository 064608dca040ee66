#!/usr/bin/env python
"""Batch evaluation: dense operating-point sweeps without Python loops.

The batch layer (`repro.tech.batch.OperatingPointBatch`) prices a whole
grid of (T, V_dd, V_th) points in one vectorized call per kernel —
bit-identical to the scalar entry points, tens to hundreds of times
faster on dense grids. Three sweeps:

1. a dense V_th exploration at the CryoSP supply point (the device-card
   workload behind the Table 3 voltage optimisation);
2. a temperature sweep of wire delay across the metal stack;
3. a batch repeater optimisation over a length grid, re-priced with the
   circuit simulator's closed-form batch estimator.

Run:  python examples/batch_sweep.py
"""

from __future__ import annotations

import numpy as np

from repro.circuits.simulator import CircuitSimulator
from repro.tech.batch import OperatingPointBatch
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD
from repro.tech.wire import CryoWireModel


def sweep1_vth_exploration() -> None:
    print("=== 1. Dense V_th sweep at 77 K, Vdd = 0.64 V ===")
    vths = np.linspace(0.18, 0.36, 500)
    grid = OperatingPointBatch.product([77.0], vdds=[0.64], vths=vths)
    mosfet = CryoMOSFET(FREEPDK45_CARD)

    delay = mosfet.gate_delay_factor_batch(grid)   # one call: 500 points
    leak = mosfet.leakage_factor_batch(grid)

    # The classic drive/leakage trade-off, read straight off the arrays.
    fastest = int(np.argmin(delay))
    frugal = int(np.argmin(leak))
    print(f"points priced               : {len(grid)}")
    print(f"fastest gate at V_th        : {vths[fastest]:.3f} V "
          f"(delay factor {delay[fastest]:.3f})")
    print(f"lowest leakage at V_th      : {vths[frugal]:.3f} V "
          f"({leak[frugal]:.2e} of nominal)")
    # grid[i] is an ordinary OperatingPoint — batch and scalar interop.
    assert mosfet.gate_delay_factor(grid[fastest]) == delay[fastest]
    print()


def sweep2_wire_delay_vs_temperature() -> None:
    print("=== 2. Wire delay vs temperature, per metal layer ===")
    temps = np.linspace(77.0, 300.0, 80)
    batch = OperatingPointBatch.from_grid(temps)
    wires = CryoWireModel()
    for layer in ("local", "semi_global", "global"):
        delays = wires.unrepeated_delay_batch(layer, [1000.0], batch)
        speedup = delays[-1] / delays[0]  # 300 K vs 77 K
        print(f"{layer:12s}: 1 mm unrepeated, 77 K gains {speedup:.2f}x "
              f"({delays[0]:.3f} -> {delays[-1]:.3f} ns)")
    print()


def sweep3_batch_repeater_designs() -> None:
    print("=== 3. Batch repeater optimisation + circuit re-estimate ===")
    lengths = np.linspace(500.0, 8000.0, 16)
    cold = OperatingPointBatch.from_grid([77.0])
    wires = CryoWireModel()

    designs = wires.optimizer("global").optimize_batch(lengths, cold)
    estimates = CircuitSimulator().simulate_design_batch(designs, cold)
    print(f"{'length_um':>10s} {'n_rep':>6s} {'size':>7s} "
          f"{'analytic_ns':>12s} {'elmore_ns':>10s}")
    for design, estimate in zip(designs, estimates):  # scalar dataclasses
        print(f"{design.length_um:10.0f} {design.n_repeaters:6d} "
              f"{design.repeater_size:7.1f} {design.delay_ns:12.4f} "
              f"{estimate.delay_ns:10.4f}")
    print()


def main() -> None:
    sweep1_vth_exploration()
    sweep2_wire_delay_vs_temperature()
    sweep3_batch_repeater_designs()


if __name__ == "__main__":
    main()
