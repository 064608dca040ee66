"""Which entry point of which ``repro`` layer the traced run wraps.

Each span sits at a layer's outermost public call, so a layer's self time
is the time spent in its own code and not in the layers it calls. Counters
read the return values where the work is counted (packets simulated,
fixed-point iterations run). :data:`REQUIRED` names the spans each
workload must call at least once: a traced run in which one of them has
no calls fails, because the layer it measures was not exercised.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from benchmarks.e2e.trace import REQUEST_SPAN, Target


def _count_packets(recorder, point) -> None:
    recorder.count("noc.packets", point.offered_packets)


def _count_solve(recorder, result) -> None:
    recorder.count("system.iterations", result.iterations_used)
    convergence = result.convergence
    if convergence is not None and convergence.saturation_clamped:
        recorder.count("system.saturation_clamps")


_TECH = (
    Target("repro.tech.mosfet:CryoMOSFET.gate_delay_factor_batch", "tech.gate_delay_factor_batch"),
    Target("repro.tech.mosfet:CryoMOSFET.leakage_factor_batch", "tech.leakage_factor_batch"),
    Target("repro.tech.mosfet:CryoMOSFET.effective_vth_batch", "tech.effective_vth_batch"),
    Target("repro.tech.metal:MetalLayer.resistance_per_um_batch", "tech.resistance_per_um_batch"),
    Target("repro.tech.repeater:RepeaterOptimizer.optimize_batch", "tech.optimize_batch"),
    Target("repro.tech.wire:CryoWireModel.unrepeated_breakdown_batch", "tech.unrepeated_breakdown_batch"),
)

# Left out: ``circuits`` (the RC-ladder simulator) and ``memory.cacti``,
# which no experiment and no endpoint calls, and the ``memory.hierarchy``
# latency methods, which the multicore fixed point calls ~160k times per
# reproduction at about a microsecond each, so a span would cost more than
# the call and the measured share would be mostly tracing overhead. Their
# time shows up in the caller's (``system``) self time.
_MODEL = (
    Target("repro.pipeline.model:PipelineModel.evaluate", "pipeline.evaluate"),
    Target("repro.core.cryosp:CryoSPDesigner.derive", "core.derive"),
    Target("repro.core.voltage:VoltageOptimizer.optimize", "core.voltage_optimize"),
    Target("repro.power.mcpat:CorePowerModel.report", "power.core_report"),
    Target("repro.power.orion:NocPowerModel.report", "power.noc_report"),
    Target("repro.thermal.cryostat:Cryostat.ledger", "thermal.ledger"),
    Target("repro.noc.simulator:NocSimulator.simulate_router_network", "noc.simulate_router_network", _count_packets),
    Target("repro.noc.simulator:NocSimulator.simulate_bus", "noc.simulate_bus", _count_packets),
    Target("repro.noc.measure:load_latency_curve", "noc.load_latency_curve"),
    Target("repro.system.multicore:MulticoreSystem.evaluate", "system.evaluate", _count_solve),
    Target("repro.util.guards:check_operating_point_batch", "guards.check_operating_point_batch"),
    Target("repro.util.guards:validate_operating_point_batch", "guards.validate_operating_point_batch"),
)

# The CLI renders through ``_emit``: its format table holds
# ``ExperimentResult.to_text`` from import time, so wrapping the method
# would never see a call.
_ENGINE = (
    Target("repro.experiments.engine:ExecutionEngine.run", "experiments.run"),
    Target("repro.experiments.cache:ResultCache.get", "experiments.cache_get"),
    Target("repro.experiments.cache:ResultCache.put", "experiments.cache_put"),
    Target("repro.experiments.cli:_emit", "experiments.render"),
)

_SERVE = (
    Target("repro.serve.http:read_request", "serve.read_request", span=False, begins_request=True),
    Target("repro.serve.http:write_response", "serve.write_response", ends_request=True),
    Target("repro.serve.http:Request.json", "serve.parse_json"),
    Target("repro.serve.service:parse_point_query", "serve.parse_point_query"),
    Target("repro.serve.batching:MicroBatcher.submit", "serve.submit"),
    Target("repro.serve.service:ModelService.evaluate_points", "serve.kernel"),
    Target("repro.serve.http:render_response", "serve.serialize"),
    Target("repro.serve.service:ModelService.evaluate_grid", "serve.grid"),
)

TARGETS: Tuple[Target, ...] = _TECH + _MODEL + _ENGINE + _SERVE

#: The layers whose self time is reported, in report order.
LAYERS = (
    "tech", "pipeline", "core", "power", "thermal", "noc", "system",
    "guards", "experiments",
)

#: The experiments ``cryowire all`` runs, one ``driver_pct`` metric each.
EXPERIMENT_IDS = (
    "ablation_cryobus", "ablation_exposure", "ablation_interleaving",
    "ablation_superpipeline", "ext_nodes", "fig02", "fig03", "fig05", "fig09",
    "fig10", "fig12_14", "fig16", "fig17", "fig18", "fig20", "fig21", "fig22",
    "fig23", "fig24", "fig25", "fig26", "fig27", "robustness",
    "stage_assignment", "table1", "table3", "table4",
)

#: Span name -> the serve phase it times, for the per-request breakdown.
SERVE_PHASES: Dict[str, str] = {
    "serve.parse_json": "parse",
    "serve.parse_point_query": "parse",
    "serve.submit": "submit",
    "serve.kernel": "kernel",
    "serve.serialize": "serialize",
    "serve.grid": "grid",
}

_SERVE_CORE = frozenset(
    {"serve.parse_json", "serve.submit", "serve.kernel", "serve.serialize",
     "serve.write_response", REQUEST_SPAN}
)

REQUIRED: Dict[str, FrozenSet[str]] = {
    "repro_cold": frozenset(
        t.name for t in _TECH + _MODEL
        if t.name not in (
            "tech.leakage_factor_batch", "tech.effective_vth_batch",
            "guards.validate_operating_point_batch",
        )
    ) | {"experiments.run", "experiments.cache_put", "experiments.render"},
    "repro_warm": frozenset(
        {"experiments.run", "experiments.cache_get", "experiments.render"}
    ),
    "serve_points": _SERVE_CORE | {
        "serve.parse_point_query", "tech.gate_delay_factor_batch",
        "tech.optimize_batch",
    },
    "serve_mixed": _SERVE_CORE | {
        "serve.parse_point_query", "serve.grid",
        "guards.validate_operating_point_batch",
        "tech.leakage_factor_batch", "tech.effective_vth_batch",
    },
}
