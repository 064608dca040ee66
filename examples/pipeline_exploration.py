#!/usr/bin/env python
"""Pipeline design-space exploration at cryogenic temperatures.

Goes beyond the paper's single design point: sweeps operating
temperature and voltage to show where superpipelining starts paying off,
and re-runs the voltage optimiser under different power budgets -- the
kind of what-if a designer would ask of this toolbox.

Run:  python examples/pipeline_exploration.py
"""

from repro.core.ipc import IPCModel
from repro.core.superpipeline import SuperpipelineTransform
from repro.core.voltage import VoltageOptimizer
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.tech.operating_point import OperatingPoint
from repro.util.tables import format_table


def temperature_sweep() -> None:
    print("=== Does superpipelining pay off? (by temperature) ===")
    model = PipelineModel()
    transform = SuperpipelineTransform(model)
    ipc = IPCModel()
    rows = []
    for temperature in (300.0, 250.0, 200.0, 150.0, 100.0, 77.0):
        op = OperatingPoint(f"{temperature:.0f}K", temperature, 1.25, 0.47)
        plan, _, after = transform.apply(SKYLAKE_CONFIG, op)
        before = model.evaluate(SKYLAKE_CONFIG, op)
        freq_gain = after.frequency_ghz / before.frequency_ghz
        ipc_cost = 1.0 - ipc.mean_relative_ipc(
            SKYLAKE_CONFIG.deepened(plan.extra_stages), SKYLAKE_CONFIG
        )
        net = freq_gain * (1.0 - ipc_cost)
        rows.append(
            (
                f"{temperature:.0f}K",
                len(plan.split_stage_names),
                round(before.frequency_ghz, 2),
                round(after.frequency_ghz, 2),
                f"{freq_gain - 1:+.1%}",
                f"{-ipc_cost:+.1%}",
                f"{net - 1:+.1%}",
            )
        )
    print(
        format_table(
            ("temp", "stages split", "f before", "f after",
             "freq gain", "ipc cost", "net perf"),
            rows,
        )
    )
    print("Splitting only helps once the wire-bound backend has collapsed "
          "(cold); at 300 K the transform is a no-op.\n")


def budget_sweep() -> None:
    print("=== Voltage optimisation under different power budgets ===")
    model = PipelineModel()
    transform = SuperpipelineTransform(model)
    op = OperatingPoint("77K", 77.0, 1.25, 0.47)
    plan, sp_model, _ = transform.apply(SKYLAKE_CONFIG, op)
    config = CRYO_CORE_CONFIG.deepened(plan.extra_stages)
    optimizer = VoltageOptimizer(sp_model)
    rows = []
    for budget in (0.5, 0.75, 1.0, 1.5, 2.0):
        result = optimizer.optimize(config, 77.0, total_power_budget=budget)
        rows.append(
            (
                budget,
                round(result.frequency_ghz, 2),
                result.vdd_v,
                result.vth_v,
                round(result.power.total_rel, 3),
            )
        )
    print(format_table(("power budget", "f (GHz)", "Vdd", "Vth", "total power"), rows))
    print("The paper's CryoSP point (7.84 GHz at ~1.0 budget) sits on this curve.")


if __name__ == "__main__":
    temperature_sweep()
    budget_sweep()
