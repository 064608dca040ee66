"""Batch-vs-scalar physics kernel benchmark (the tentpole speedup pin).

One audit-sized dense operating-point grid is priced twice:

* **scalar loop** — the pre-batch hot path: one memoized scalar call per
  point (every point is fresh, so each call is a memo miss plus the
  length-1 batch wrapper overhead);
* **batch** — one vectorized ``*_batch`` call per kernel.

The Bloch–Grüneisen integral (scipy quad, ``lru_cache``'d per unique
temperature) is primed before either path is timed, so the comparison
measures the evaluation machinery, not the shared one-off physics
derivations. The batch path must be at least 50x faster. The test
records nothing: the repository's one recorded benchmark is
``python -m benchmarks.e2e``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.tech import (
    CryoMOSFET,
    FREEPDK45_CARD,
    FREEPDK45_STACK,
    OperatingPoint,
    OperatingPointBatch,
    TechContext,
    use_context,
)
from repro.tech.repeater import RepeaterOptimizer
from repro.tech.resistivity import bloch_gruneisen_ratio

#: Floor pinned by the issue: vectorized batch vs memoized scalar loop.
MIN_SPEEDUP = 50.0

#: The dense audit-sized sweep: 150 temperatures x 4 Vdd x 2 Vth.
TEMPERATURES = np.linspace(77.0, 300.0, 150)
VDDS = (0.8, 1.0, 1.1, 1.25)
VTHS = (0.25, 0.35)

WIRE_LENGTH_UM = 2000.0


def _grid() -> OperatingPointBatch:
    return OperatingPointBatch.product(TEMPERATURES, vdds=VDDS, vths=VTHS)


def _scalar_loop(points, mosfet, layer, optimizer) -> np.ndarray:
    out = np.empty((len(points), 4))
    for i, op in enumerate(points):
        out[i, 0] = mosfet.gate_delay_factor(op)
        out[i, 1] = mosfet.leakage_factor(op)
        out[i, 2] = layer.resistance_per_um(op)
        out[i, 3] = optimizer.optimize(WIRE_LENGTH_UM, op).delay_ns
    return out


def _batch_pass(batch, mosfet, layer, optimizer) -> np.ndarray:
    return np.column_stack(
        [
            mosfet.gate_delay_factor_batch(batch),
            mosfet.leakage_factor_batch(batch),
            layer.resistance_per_um_batch(batch),
            optimizer.optimize_batch([WIRE_LENGTH_UM], batch).delay_ns,
        ]
    )


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_kernels_beat_memoized_scalar_loop(benchmark):
    batch = _grid()
    points = batch.to_points()
    mosfet = CryoMOSFET(FREEPDK45_CARD)
    layer = FREEPDK45_STACK.layer("semi_global")
    optimizer = RepeaterOptimizer(layer)

    # Prime the per-temperature scipy-quad derivations both paths share.
    for t in np.unique(batch.temperature_k):
        bloch_gruneisen_ratio(float(t))

    # Both paths run under a *fresh* memoized context per round: every
    # point is new, so the scalar loop pays one memo miss per point per
    # kernel — the honest pre-batch cost of a dense sweep, not a
    # warm-cache replay — and the batch path pays its vectorized
    # evaluation, not a whole-batch memo hit.
    def fresh_scalar_loop():
        with use_context(TechContext()):
            return _scalar_loop(points, mosfet, layer, optimizer)

    def fresh_batch_pass():
        with use_context(TechContext()):
            return _batch_pass(batch, mosfet, layer, optimizer)

    scalar_values = fresh_scalar_loop()
    scalar_s = _best_of(fresh_scalar_loop, rounds=1)
    batch_values = fresh_batch_pass()
    batch_s = _best_of(fresh_batch_pass)
    benchmark.pedantic(fresh_batch_pass, rounds=1, iterations=1)

    speedup = scalar_s / batch_s
    print()
    print(
        f"grid: {len(batch)} points | scalar loop: {scalar_s * 1e3:.1f} ms | "
        f"batch: {batch_s * 1e3:.2f} ms | speedup: {speedup:.0f}x"
    )

    # The two paths are the same formulas: bit-identical, not approx.
    assert np.array_equal(scalar_values, batch_values)
    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster than the scalar loop "
        f"(pinned floor: {MIN_SPEEDUP:g}x)"
    )
