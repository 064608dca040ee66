"""The stage-wise critical-path engine (modified CC-Model, Fig. 6).

:class:`PipelineModel` resolves every :class:`StageSpec` against a core
configuration (structure -> wire lengths, logic sizes) and an operating
point (temperature/voltage -> device speed), yielding a
:class:`PipelineReport` with per-stage transistor/wire delay decomposition
-- the raw material for Figs. 2, 12, 13 and 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.config import CoreConfig
from repro.pipeline.floorplan import SKYLAKE_FLOORPLAN, Floorplan
from repro.pipeline.stages import (
    BOOM_STAGES,
    NODE_SCALE,
    StageKind,
    StageSpec,
)
from repro.tech.batch import OperatingPointBatchLike, as_operating_point_batch
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD, MOSFETCard
from repro.tech.operating_point import OperatingPoint
from repro.tech.wire import CryoWireModel


@dataclass(frozen=True)
class StageDelay:
    """Resolved delay of one stage at one (config, operating point)."""

    name: str
    kind: StageKind
    transistor_ps: float
    wire_ps: float
    pipelinable: bool

    @property
    def total_ps(self) -> float:
        return self.transistor_ps + self.wire_ps

    @property
    def wire_fraction(self) -> float:
        total = self.total_ps
        return self.wire_ps / total if total > 0 else 0.0


@dataclass(frozen=True)
class PipelineReport:
    """Critical-path analysis of a full pipeline."""

    config_name: str
    operating_point: OperatingPoint
    stages: Tuple[StageDelay, ...]

    def stage(self, name: str) -> StageDelay:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r} in report")

    @property
    def critical_stage(self) -> StageDelay:
        return max(self.stages, key=lambda s: s.total_ps)

    @property
    def max_delay_ps(self) -> float:
        return self.critical_stage.total_ps

    @property
    def frequency_ghz(self) -> float:
        """Maximum clock frequency implied by the critical path.

        Delays are in Skylake-equivalent picoseconds where 250 ps == 4 GHz,
        so frequency is simply 1000 / delay.
        """
        return 1000.0 / self.max_delay_ps

    def stages_of(self, kind: StageKind) -> Tuple[StageDelay, ...]:
        return tuple(s for s in self.stages if s.kind is kind)

    def mean_wire_fraction(self, kind: Optional[StageKind] = None) -> float:
        stages = self.stages if kind is None else self.stages_of(kind)
        if not stages:
            raise ValueError("no stages to average over")
        return sum(s.wire_fraction for s in stages) / len(stages)

    def unpipelinable_backend_max_ps(self) -> float:
        """Target latency for superpipelining (Section 4.4, step 1)."""
        delays = [
            s.total_ps
            for s in self.stages
            if s.kind is StageKind.BACKEND and not s.pipelinable
        ]
        if not delays:
            raise ValueError("pipeline has no un-pipelinable backend stage")
        return max(delays)


@dataclass(frozen=True, eq=False)
class PipelineReportBatch:
    """Critical-path analyses of one pipeline at a batch of operating
    points (the plural of :class:`PipelineReport`).

    ``transistor_ps`` / ``wire_ps`` are ``(n_stages, n_points)`` arrays;
    ``report[i]`` is the scalar :class:`PipelineReport` of point ``i``.
    """

    config_name: str
    operating_points: Sequence[OperatingPoint]
    stages: Tuple[StageSpec, ...]
    transistor_ps: np.ndarray
    wire_ps: np.ndarray

    def __len__(self) -> int:
        return int(self.transistor_ps.shape[1])

    def __getitem__(self, index: int) -> PipelineReport:
        return PipelineReport(
            config_name=self.config_name,
            operating_point=self.operating_points[index],
            stages=tuple(
                StageDelay(
                    name=spec.name,
                    kind=spec.kind,
                    transistor_ps=float(self.transistor_ps[k, index]),
                    wire_ps=float(self.wire_ps[k, index]),
                    pipelinable=spec.pipelinable,
                )
                for k, spec in enumerate(self.stages)
            ),
        )

    @property
    def max_delay_ps(self) -> np.ndarray:
        return (self.transistor_ps + self.wire_ps).max(axis=0)

    @property
    def frequency_ghz(self) -> np.ndarray:
        """Per-point :attr:`PipelineReport.frequency_ghz`."""
        return 1000.0 / self.max_delay_ps


class PipelineModel:
    """Evaluate pipelines at arbitrary (structure, operating point)."""

    def __init__(
        self,
        stages: Sequence[StageSpec] = BOOM_STAGES,
        wire_model: Optional[CryoWireModel] = None,
        logic_card: MOSFETCard = FREEPDK45_CARD,
        floorplan: Floorplan = SKYLAKE_FLOORPLAN,
    ):
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        self.stages = tuple(stages)
        self.wires = wire_model if wire_model is not None else CryoWireModel()
        self.logic = CryoMOSFET(logic_card)
        self.floorplan = floorplan

    def with_stages(self, stages: Sequence[StageSpec]) -> "PipelineModel":
        """A copy of this model over a different stage list."""
        return PipelineModel(stages, self.wires, self.logic.card, self.floorplan)

    def evaluate_batch(
        self, config: CoreConfig, ops: OperatingPointBatchLike
    ) -> PipelineReportBatch:
        """Critical-path analysis of the whole pipeline at many points.

        ``ops`` is an :class:`~repro.tech.batch.OperatingPointBatch` or a
        sequence of :class:`OperatingPoint` (whose names the per-point
        reports keep). Each metal layer costs one vectorized wire kernel
        call for the whole batch, pricing the wires of all the stages on
        it as one column of lengths; this is the only implementation of
        the stage-delay composition, and :meth:`evaluate` is its
        length-1 view.
        """
        if isinstance(ops, OperatingPoint):
            ops = (ops,)
        batch = as_operating_point_batch(ops)
        points = ops if isinstance(ops, (list, tuple)) else batch
        gate = self.logic.gate_delay_factor_batch(batch)
        forwarding = self.floorplan.forwarding_wire_length_um(config)
        transistor = np.array(
            [spec.transistor_delay_ps(config) * gate for spec in self.stages]
        )
        layers = [spec.wire.layer for spec in self.stages]
        lengths = np.array(
            [[spec.wire.length_um(config, forwarding)] for spec in self.stages]
        )
        wire = np.empty_like(transistor)
        for layer in dict.fromkeys(layers):
            rows = [k for k, name in enumerate(layers) if name == layer]
            breakdown = self.wires.unrepeated_breakdown_batch(layer, lengths[rows], batch)
            # The wire component (driver + flight) is reported as Design
            # Compiler would report net delay: it belongs to the wire bucket.
            wire[rows] = NODE_SCALE * breakdown.total_ns * 1e3
        return PipelineReportBatch(
            config_name=config.name,
            operating_points=points,
            stages=self.stages,
            transistor_ps=transistor,
            wire_ps=wire,
        )

    def evaluate(self, config: CoreConfig, op: OperatingPoint) -> PipelineReport:
        """Critical-path analysis of the whole pipeline at (config, op)."""
        return self.evaluate_batch(config, op)[0]
