"""The batch evaluation layer: OperatingPointBatch and the _batch kernels.

The contract under test is the "scalar vs batch surface" convention of
``docs/ARCHITECTURE.md``: every ``*_batch`` entry point is the single
implementation of its formula, the scalar sibling is a thin wrapper over
the length-1 batch, and ``batch_kernel(batch)[i]`` is bit-identical
(``==``, not approx) to ``scalar_kernel(batch[i])``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.simulator import CircuitSimulator, WireSimResult
from repro.tech.batch import (
    OperatingPointBatch,
    as_operating_point_batch,
    broadcast_lengths,
)
from repro.tech.context import TechContext, use_context
from repro.tech.metal import FREEPDK45_STACK
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD
from repro.tech.operating_point import (
    OP_CRYO,
    OP_ROOM,
    OperatingPoint,
)
from repro.tech.repeater import RepeaterDesign, RepeaterOptimizer
from repro.tech.wire import CryoWireModel
from repro.util.guards import (
    GuardContext,
    use_guards,
    validate_operating_point,
    validate_operating_point_batch,
)

temperatures = st.floats(77.0, 300.0)
vdds = st.floats(0.9, 1.25)
vths = st.floats(0.2, 0.4)


# ----------------------------------------------------------------------
# the batch container itself
# ----------------------------------------------------------------------
class TestOperatingPointBatch:
    def test_from_points_round_trips_elementwise(self):
        points = [
            OperatingPoint.at(77.0),
            OperatingPoint.at(135.0, 0.64, 0.25),
            OperatingPoint.at(300.0, 1.25),
        ]
        batch = OperatingPointBatch.from_points(points)
        assert len(batch) == 3
        for i, point in enumerate(points):
            assert batch[i].key == point.key

    def test_nan_encodes_none(self):
        batch = OperatingPointBatch.from_grid([77.0, 300.0])
        assert np.isnan(batch.vdd_v).all()
        assert batch[0].vdd_v is None
        assert batch[0].vth_v is None

    def test_product_is_temperature_major(self):
        batch = OperatingPointBatch.product(
            [77.0, 300.0], vdds=[0.9, 1.1], vths=[0.25]
        )
        assert len(batch) == 4
        assert list(batch.temperature_k) == [77.0, 77.0, 300.0, 300.0]
        assert list(batch.vdd_v) == [0.9, 1.1, 0.9, 1.1]

    def test_rejects_vdd_below_vth_like_the_scalar(self):
        with pytest.raises(ValueError, match="exceed Vth"):
            OperatingPointBatch.from_grid([77.0], vdd_v=[0.2], vth_v=[0.4])

    def test_columns_are_frozen(self):
        batch = OperatingPointBatch.from_grid([77.0, 300.0])
        with pytest.raises(ValueError):
            batch.temperature_k[0] = 4.0

    def test_slicing_yields_a_batch(self):
        batch = OperatingPointBatch.from_grid([77.0, 135.0, 300.0])
        head = batch[:2]
        assert isinstance(head, OperatingPointBatch)
        assert len(head) == 2

    def test_broadcast_rules(self):
        one = OperatingPointBatch.from_grid([77.0])
        lengths, widened = broadcast_lengths([100.0, 200.0, 300.0], one)
        assert len(widened) == 3
        assert lengths.shape == (3,)
        three = OperatingPointBatch.from_grid([77.0, 135.0, 300.0])
        with pytest.raises(ValueError, match="broadcast"):
            broadcast_lengths([100.0, 200.0], three)

    def test_coercion_accepts_points_and_rejects_bare_numbers(self):
        assert len(as_operating_point_batch(OP_ROOM)) == 1
        assert len(as_operating_point_batch([OP_ROOM, OP_CRYO])) == 2
        assert len(as_operating_point_batch(None)) == 1
        with pytest.raises(TypeError):
            as_operating_point_batch(77.0)

    def test_empty_batch_is_legal_and_kernels_return_empty(self):
        empty = OperatingPointBatch.from_grid(np.array([], dtype=float))
        assert len(empty) == 0
        mosfet = CryoMOSFET(FREEPDK45_CARD)
        assert mosfet.gate_delay_factor_batch(empty).shape == (0,)


# ----------------------------------------------------------------------
# bit-compatibility: batch[i] == scalar(point_i)
# ----------------------------------------------------------------------
class TestBitCompatibility:
    @given(t=temperatures, vdd=vdds, vth=vths)
    @settings(max_examples=40, deadline=None)
    def test_mosfet_kernels_match_scalar_to_the_ulp(self, t, vdd, vth):
        op = OperatingPoint.at(t, vdd, vth)
        batch = OperatingPointBatch.from_points([op, OP_ROOM])
        mosfet = CryoMOSFET(FREEPDK45_CARD)
        with use_context(TechContext()):
            assert mosfet.gate_delay_factor_batch(batch)[0] == \
                mosfet.gate_delay_factor(op)
            assert mosfet.leakage_factor_batch(batch)[0] == \
                mosfet.leakage_factor(op)
            assert mosfet.effective_vth_batch(batch)[0] == \
                mosfet.effective_vth(op)

    @given(t=temperatures)
    @settings(max_examples=40, deadline=None)
    def test_metal_resistance_matches_scalar_to_the_ulp(self, t):
        op = OperatingPoint.at(t)
        batch = OperatingPointBatch.from_points([op])
        with use_context(TechContext()):
            for layer in FREEPDK45_STACK.layers.values():
                assert layer.resistance_per_um_batch(batch)[0] == \
                    layer.resistance_per_um(op)

    @given(t=temperatures, length=st.floats(50.0, 8000.0))
    @settings(max_examples=25, deadline=None)
    def test_repeater_optimize_matches_scalar_exactly(self, t, length):
        op = OperatingPoint.at(t)
        optimizer = RepeaterOptimizer(FREEPDK45_STACK.layer("global"))
        with use_context(TechContext()):
            scalar = optimizer.optimize(length, op)
            batched = optimizer.optimize_batch(
                [length], OperatingPointBatch.from_points([op])
            )[0]
        assert isinstance(batched, RepeaterDesign)
        assert batched == scalar  # dataclass equality: every field identical

    @given(t=temperatures, length=st.floats(50.0, 8000.0))
    @settings(max_examples=25, deadline=None)
    def test_wire_breakdown_matches_scalar_to_the_ulp(self, t, length):
        op = OperatingPoint.at(t)
        model = CryoWireModel()
        with use_context(TechContext()):
            scalar = model.unrepeated_breakdown("semi_global", length, op)
            batched = model.unrepeated_breakdown_batch(
                "semi_global", [length], OperatingPointBatch.from_points([op])
            )[0]
        assert batched == scalar

    def test_simulator_estimate_matches_batch_exactly(self):
        simulator = CircuitSimulator()
        batch = OperatingPointBatch.from_grid([77.0, 200.0, 300.0])
        with use_context(TechContext()):
            results = simulator.simulate_batch("global", [2000.0], 4, 40.0, batch)
            for i in range(3):
                alone = simulator.simulate_batch(
                    "global", [2000.0], 4, 40.0, batch[i : i + 1]
                )
                assert isinstance(results[i], WireSimResult)
                assert results[i] == alone[0]

    def test_dense_product_grid_matches_scalar_loop(self):
        batch = OperatingPointBatch.product(
            [77.0, 135.0, 300.0], vdds=[0.64, 1.25], vths=[0.25]
        )
        mosfet = CryoMOSFET(FREEPDK45_CARD)
        with use_context(TechContext()):
            factors = mosfet.gate_delay_factor_batch(batch)
            for i, point in enumerate(batch):
                assert factors[i] == mosfet.gate_delay_factor(point)

    def test_length_one_batch_is_the_scalar_path(self):
        model = CryoWireModel()
        with use_context(TechContext()):
            single = model.unrepeated_delay_batch("local", [250.0], OP_CRYO)
            assert single.shape == (1,)
            assert single[0] == model.unrepeated_delay("local", 250.0, OP_CRYO)


# ----------------------------------------------------------------------
# guard parity: batch validation mirrors the scalar validator
# ----------------------------------------------------------------------
class TestGuardParity:
    def _findings(self, fn, *args, **kwargs):
        with use_guards(GuardContext()) as guards:
            fn(*args, guards=guards, **kwargs)
            return guards.warnings

    @pytest.mark.parametrize(
        "point",
        [
            (40.0, None, None),  # below the hard range -> ERROR
            (500.0, None, None),  # above the hard range -> ERROR
            (350.0, None, None),  # extrapolation -> WARNING
            (77.0, -1.0, None),  # non-positive Vdd -> ERROR
            (77.0, 1.0, -0.1),  # non-positive Vth -> ERROR
            (77.0, 0.28, 0.25),  # thin overdrive -> WARNING
        ],
    )
    def test_out_of_domain_severities_match_the_scalar_validator(self, point):
        t, vdd, vth = point
        scalar = self._findings(
            validate_operating_point, (t, vdd, vth), site="parity"
        )
        batched = self._findings(
            validate_operating_point_batch,
            OperatingPointBatch.from_grid([t], [vdd], [vth]),
            site="parity",
        )
        assert [w.severity for w in batched] == [w.severity for w in scalar]

    def test_one_deduplicated_record_per_violating_region(self):
        batch = OperatingPointBatch.from_grid([40.0, 50.0, 77.0, 350.0, 390.0])
        findings = self._findings(
            validate_operating_point_batch, batch, site="parity"
        )
        # 2 sub-range points -> one ERROR; 2 extrapolating -> one WARNING.
        assert len(findings) == 2
        messages = " / ".join(w.message for w in findings)
        assert "2 of 5" in messages
        assert "first at index 0" in messages

    def test_clean_batch_emits_nothing(self):
        batch = OperatingPointBatch.from_grid([77.0, 135.0, 300.0])
        assert self._findings(
            validate_operating_point_batch, batch, site="parity"
        ) == ()


# ----------------------------------------------------------------------
# the payoff: one vectorized pass vs the memoized scalar loop
# ----------------------------------------------------------------------
class TestAuditGridSpeedup:
    """The 1200-point audit grid (150 temperatures x 4 Vdd x 2 Vth),
    priced through 4 kernels once point by point and once as batches.

    Both paths run under a fresh context, so the scalar loop pays one
    memo miss per point per kernel (the pre-batch cost of a dense sweep);
    the batch kernels never reach the context. The floor is 50x; a
    2-vCPU host reads 170-200x."""

    MIN_SPEEDUP = 50.0
    LENGTH_UM = 2000.0

    def test_batch_is_bit_identical_and_50x_faster(self):
        batch = OperatingPointBatch.product(
            np.linspace(77.0, 300.0, 150), vdds=(0.8, 1.0, 1.1, 1.25),
            vths=(0.25, 0.35),
        )
        points = batch.to_points()
        mosfet = CryoMOSFET(FREEPDK45_CARD)
        layer = FREEPDK45_STACK.layer("semi_global")
        optimizer = RepeaterOptimizer(layer)

        def scalar_loop():
            with use_context(TechContext()):
                return np.array([
                    (mosfet.gate_delay_factor(op), mosfet.leakage_factor(op),
                     layer.resistance_per_um(op),
                     optimizer.optimize(self.LENGTH_UM, op).delay_ns)
                    for op in points
                ])

        def batch_pass():
            with use_context(TechContext()):
                return np.column_stack([
                    mosfet.gate_delay_factor_batch(batch),
                    mosfet.leakage_factor_batch(batch),
                    layer.resistance_per_um_batch(batch),
                    optimizer.optimize_batch([self.LENGTH_UM], batch).delay_ns,
                ])

        def timed(fn):
            start = time.perf_counter()
            values = fn()
            return values, time.perf_counter() - start

        scalar_values, scalar_s = timed(scalar_loop)
        batch_values, batch_s = min((timed(batch_pass) for _ in range(3)),
                                    key=lambda pair: pair[1])
        assert len(batch) == 1200
        assert np.array_equal(scalar_values, batch_values)
        assert scalar_s / batch_s >= self.MIN_SPEEDUP, (
            f"batch only {scalar_s / batch_s:.0f}x faster than the scalar loop"
        )
