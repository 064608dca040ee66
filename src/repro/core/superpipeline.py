"""The frontend superpipelining methodology (Section 4.4).

The transform mechanises the paper's three steps:

1. **Target latency** -- the longest delay among the *un-pipelinable*
   backend stages at the target operating point (at 77 K that is
   ``execute_bypass``: forwarding stages shrink dramatically because
   their delay is mostly wire).
2. **Stage selection** -- every pipelinable stage whose delay exceeds the
   target and that carries a :class:`~repro.pipeline.stages.SplitSpec`
   is split; each child inherits a share of the parent's logic plus a
   flip-flop insertion overhead.
3. **Worthwhileness check** -- the frequency gain is weighed against the
   IPC cost of the deeper pipeline (via :class:`repro.core.ipc.IPCModel`).

At 300 K the transform is a no-op by construction: the un-pipelinable
backend stages *are* the critical path, so no frontend stage exceeds the
target -- which is exactly the paper's observation that further frontend
pipelining is meaningless at room temperature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.pipeline.config import CoreConfig
from repro.pipeline.model import PipelineModel, PipelineReport
from repro.pipeline.stages import LATCH_OVERHEAD_PS, StageSpec
from repro.tech.operating_point import OperatingPoint


@dataclass(frozen=True)
class SuperpipelinePlan:
    """Outcome of planning the transform at one operating point."""

    operating_point: OperatingPoint
    target_latency_ps: float
    split_stage_names: Tuple[str, ...]
    #: Stages that exceed the target but cannot be split (SRAM arrays
    #: like the I-cache access stage); they bound the final frequency.
    residual_stage_names: Tuple[str, ...]
    stages: Tuple[StageSpec, ...]

    @property
    def extra_stages(self) -> int:
        return len(self.split_stage_names)

    @property
    def is_noop(self) -> bool:
        return not self.split_stage_names


class SuperpipelineTransform:
    """Apply the Section 4.4 methodology to a pipeline."""

    def __init__(self, model: Optional[PipelineModel] = None):
        self.model = model if model is not None else PipelineModel()

    def _split_stage(self, spec: StageSpec) -> List[StageSpec]:
        assert spec.split is not None
        children = []
        for child in spec.split.children:
            children.append(
                StageSpec(
                    name=f"{spec.name}.{child.name}",
                    kind=spec.kind,
                    transistor_ps=spec.transistor_ps * child.transistor_fraction
                    + LATCH_OVERHEAD_PS,
                    wire=child.wire,
                    width_exponent=spec.width_exponent,
                    pipelinable=True,
                    split=None,
                )
            )
        return children

    def plan(self, config: CoreConfig, op: OperatingPoint) -> SuperpipelinePlan:
        """Decide which stages to split at (config, op) and build them."""
        report = self.model.evaluate(config, op)
        target = report.unpipelinable_backend_max_ps()

        new_stages: List[StageSpec] = []
        split_names: List[str] = []
        residual: List[str] = []
        for spec in self.model.stages:
            delay = report.stage(spec.name).total_ps
            if delay <= target or not spec.pipelinable:
                new_stages.append(spec)
                continue
            if spec.split is None:
                residual.append(spec.name)
                new_stages.append(spec)
                continue
            split_names.append(spec.name)
            new_stages.extend(self._split_stage(spec))

        return SuperpipelinePlan(
            operating_point=op,
            target_latency_ps=target,
            split_stage_names=tuple(split_names),
            residual_stage_names=tuple(residual),
            stages=tuple(new_stages),
        )

    def apply(
        self, config: CoreConfig, op: OperatingPoint
    ) -> Tuple[SuperpipelinePlan, PipelineModel, PipelineReport]:
        """Plan, build the superpipelined model, and evaluate it."""
        plan = self.plan(config, op)
        new_model = self.model.with_stages(plan.stages)
        new_config = config.deepened(plan.extra_stages)
        report = new_model.evaluate(new_config, op)
        return plan, new_model, report

    def frequency_gain(
        self, config: CoreConfig, op: OperatingPoint
    ) -> Tuple[float, PipelineReport, PipelineReport]:
        """(gain, before, after): frequency ratio from the transform."""
        before = self.model.evaluate(config, op)
        _, _, after = self.apply(config, op)
        return after.frequency_ghz / before.frequency_ghz, before, after
