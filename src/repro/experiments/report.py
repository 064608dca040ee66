"""Paper anchors as data, and the gate over them (``cryowire report``).

``ANCHORS`` is the one place that says which regenerated quantity
reproduces which number of the paper and how closely. A row names an
experiment, the key of that experiment's ``paper_reference`` that holds
the paper's value, how to read the measured value off the result, and a
band relative to the paper value. The paper values live only in the
drivers (and so in each result's golden digest); this module holds none.

The default band is ``DEFAULT_BAND``. A row is wider only with a
one-line ``reason``, its EXPERIMENTS.md "Known deviations" entry, and
the median |diff| over the rows without a reason must stay within
``MEDIAN_LIMIT``. ``cryowire report`` prints every row with its band and
exits 1 on a breach; the full-suite test in ``tests/test_engine.py``
applies the same gate to the results it computes.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment

#: ``(experiment, quantity, paper, measured)``, one per anchor.
Row = Tuple[str, str, float, float]

#: A runner maps an experiment id to its result. The default is the
#: serial uncached path; the CLI injects the caching engine's
#: ``run_one`` so repeated ``cryowire report`` invocations are warm.
Runner = Callable[[str], ExperimentResult]

Measure = Callable[[ExperimentResult], float]

#: Relative band of a row that states no reason.
DEFAULT_BAND = 0.06

#: Ceiling on the median |diff| over the rows without a reason.
MEDIAN_LIMIT = 0.025


class Anchor(NamedTuple):
    experiment: str
    key: str  # into the experiment's ``paper_reference``
    label: str
    measure: Measure
    band: float = DEFAULT_BAND
    reason: str = ""  # required for, and only for, a band over the default


def _cell(key_header: str, key, column: str) -> Measure:
    return lambda result: result.lookup(key_header, key, column)


def _mean(column: str) -> Measure:
    return _cell("workload", "mean", column)


def _ratio(numerator: Measure, denominator: Measure) -> Measure:
    return lambda result: numerator(result) / denominator(result)


def _series_max(series: str, column: int) -> Measure:
    return lambda result: max(r[column] for r in result.rows if r[0] == series)


def _fig05_at(series: str, length_um: float) -> Measure:
    return lambda result: next(
        r[2] for r in result.rows if r[0] == series and r[1] == length_um
    )


def _max_delay_reduction(case: str) -> Measure:
    return lambda result: 1 - _series_max(case, 5)(result)


def _fig03_max(result: ExperimentResult) -> float:
    return max(r[-1] for r in result.rows if r[0] != "mean")


_COMBINED = "CryoSP (77K, CryoBus)"

ANCHORS: Tuple[Anchor, ...] = (
    Anchor("fig02", "mean_wire_fraction", "forwarding-stage wire share",
           _cell("stage", "mean", "wire_fraction")),
    Anchor("fig03", "noc_fraction_mean", "NoC(+sync) CPI share (avg)",
           _mean("noc_plus_sync")),
    Anchor("fig03", "noc_fraction_max", "NoC(+sync) CPI share (max)",
           _fig03_max, 0.15,
           "streamcluster's barrier storm is over-weighted"),
    Anchor("fig05", "global_repeated_6220um", "repeated global @6.22mm",
           _fig05_at("global_repeated", 6220.0), 0.044),
    Anchor("fig05", "semi_global_unrepeated_max", "max unrepeated semi-global",
           _series_max("semi_global_unrepeated", 2)),
    Anchor("fig05", "local_unrepeated_max", "max unrepeated local",
           _series_max("local_unrepeated", 2)),
    Anchor("fig05", "semi_global_repeated_900um", "repeated semi-global @900um",
           _fig05_at("semi_global_repeated", 900.0), 0.15,
           "semi-global repeaters are logic-library cells (8 % cryo gain)"),
    Anchor("fig10", "link_speedup_77k", "6mm link speed-up @77K",
           lambda result: result.rows[0][1]),
    Anchor("fig12_14", "reduction_77k", "77K max-delay reduction",
           _max_delay_reduction("fig13_77K")),
    Anchor("fig12_14", "reduction_superpipelined", "superpipelined reduction",
           _max_delay_reduction("fig14_superpipelined_77K")),
    Anchor("fig16", "mesh77_hit_noc_fraction", "77K mesh NoC share of L3 hit",
           lambda result: next(
               r[5] for r in result.rows if r[0] == "mesh" and r[1] == 77.0
           )),
    Anchor("fig17", "mesh_mean", "77K mesh vs ideal NoC", _mean("mesh_77k")),
    Anchor("fig17", "shared_bus_mean", "77K shared bus vs ideal NoC",
           _mean("shared_bus_77k"), 0.10,
           "our 77 K bus queues more near the top of the PARSEC band"),
    Anchor("fig20", "cryobus_broadcast", "CryoBus broadcast cycles",
           lambda result: float(result.lookup("design", "cryobus", "broadcast"))),
    Anchor("fig21", "cryobus_zero_load_cycles", "CryoBus zero-load cycles",
           _cell("series", "cryobus", "latency_cycles")),
    Anchor("fig22", "cryobus", "CryoBus power vs 300K mesh",
           _cell("design", "cryobus", "total")),
    Anchor("fig22", "mesh_77k", "77K mesh power vs 300K mesh",
           _cell("design", "mesh_77K", "total")),
    Anchor("fig22", "shared_bus_77k", "77K bus power vs 300K mesh",
           _cell("design", "shared_bus_77K", "total")),
    Anchor("fig23", "cryosp_cryobus_mean", "CryoSP+CryoBus vs CHP mesh (avg)",
           _mean(_COMBINED), 0.10,
           "the CryoSP-only and CryoBus-only shortfalls compound"),
    Anchor("fig23", "cryosp_cryobus_vs_300k", "CryoSP+CryoBus vs 300K (avg)",
           _ratio(_mean(_COMBINED), _mean("Baseline (300K, Mesh)"))),
    Anchor("fig23", "chp_cryobus_mean", "CryoBus alone (avg)",
           _mean("CHP-core (77K, CryoBus)")),
    Anchor("fig23", "cryosp_mesh_mean", "CryoSP alone (avg)",
           _mean("CryoSP (77K, Mesh)")),
    Anchor("fig23", "streamcluster_cryosp_cryobus", "streamcluster combined",
           _cell("workload", "streamcluster", _COMBINED)),
    Anchor("fig23", "streamcluster_chp_cryobus", "streamcluster bus-only",
           _cell("workload", "streamcluster", "CHP-core (77K, CryoBus)"), 0.10,
           "streamcluster's over-weighted barrier storm gains more from the bus"),
    Anchor("fig24", "cryobus_vs_300k", "CryoBus+prefetch vs 300K",
           _mean(_COMBINED)),
    Anchor("fig24", "cryobus_2way_vs_300k", "2-way CryoBus vs 300K",
           _mean("CryoSP (77K, CryoBus, 2-way)")),
    Anchor("fig24", "cryobus_vs_chp", "CryoBus+prefetch vs CHP mesh",
           _ratio(_mean(_COMBINED), _mean("CHP-core (77K, Mesh)")), 0.20,
           "the 1-way bus saturates on more SPEC workloads than the paper's 4"),
    Anchor("table1", "forwarding_wire_um", "forwarding wire (um)",
           _cell("item", "forwarding_wire_8wide", "height_um"), 0.0059),
    Anchor("table3", "cryosp_ghz", "CryoSP frequency (GHz)",
           _cell("design", "77K CryoSP", "frequency_ghz"), 0.05),
    Anchor("table3", "chp_ghz", "CHP-core frequency (GHz)",
           _cell("design", "CHP-core", "frequency_ghz"), 0.05),
    Anchor("fig09", "pipeline_predicted", "pipeline 135K speed-up (model)",
           lambda result: result.rows[0][1]),
)


def collect(runner: Optional[Runner] = None) -> List[Row]:
    """(experiment, quantity, paper, measured) for every anchor, in
    ``ANCHORS`` order; each experiment runs once."""
    runner = runner or run_experiment
    results: Dict[str, ExperimentResult] = {}
    rows: List[Row] = []
    for anchor in ANCHORS:
        if anchor.experiment not in results:
            results[anchor.experiment] = runner(anchor.experiment)
        result = results[anchor.experiment]
        rows.append((anchor.experiment, anchor.label,
                     result.paper_reference[anchor.key], anchor.measure(result)))
    return rows


def _diff(row: Row) -> float:
    _, _, paper, measured = row
    return (measured - paper) / paper


def _out_of_band(anchor: Anchor, row: Row) -> bool:
    return abs(_diff(row)) > anchor.band


def _median_diff(rows: List[Row]) -> float:
    """Median |diff| over the rows whose anchor states no reason."""
    return statistics.median(
        abs(_diff(row)) for anchor, row in zip(ANCHORS, rows) if not anchor.reason
    )


def breaches(rows: List[Row]) -> List[str]:
    """Every way ``rows`` (``collect``'s output) fails the gate: each row
    outside its band, then a median |diff| over ``MEDIAN_LIMIT``."""
    if len(rows) != len(ANCHORS):
        raise ValueError(f"{len(rows)} rows for {len(ANCHORS)} anchors")
    found = [
        f"{row[0]} {row[1]}: {_diff(row):+.1%} outside {_band(anchor)}"
        for anchor, row in zip(ANCHORS, rows)
        if _out_of_band(anchor, row)
    ]
    median = _median_diff(rows)
    if median > MEDIAN_LIMIT:
        found.append(
            f"median |diff| {median:.1%} over the {MEDIAN_LIMIT:.1%} limit"
        )
    return found


def _band(anchor: Anchor) -> str:
    return f"±{anchor.band * 100:.3g}%"


def render(rows: List[Row]) -> str:
    rule = "-" * 86
    lines = [
        "# paper vs measured",
        "",
        f"{'experiment':10s} {'quantity':38s} {'paper':>8s} "
        f"{'measured':>9s} {'diff':>7s} {'band':>7s}",
        rule,
    ]
    for anchor, row in zip(ANCHORS, rows):
        experiment, quantity, paper, measured = row
        flag = "  OUT" if _out_of_band(anchor, row) else ""
        lines.append(
            f"{experiment:10s} {quantity:38s} {paper:8.3f} "
            f"{measured:9.3f} {_diff(row):+6.1%} {_band(anchor):>7s}{flag}"
        )
        if anchor.reason:
            lines.append(f"{'':11s}deviation: {anchor.reason}")
    lines.append(rule)
    documented = sum(1 for anchor in ANCHORS if anchor.reason)
    lines.append(
        f"median |diff| = {_median_diff(rows):.1%} over "
        f"{len(rows) - documented} anchors without a documented deviation "
        f"(limit {MEDIAN_LIMIT:.1%})"
    )
    failures = breaches(rows)
    if failures:
        lines.extend(f"FAIL {failure}" for failure in failures)
    else:
        lines.append(f"all {len(rows)} anchors in band")
    return "\n".join(lines)
