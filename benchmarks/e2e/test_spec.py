"""The metrics the benchmark emits are the ones BENCHMARK.json declares."""

from __future__ import annotations

import json
import re
from pathlib import Path

from benchmarks.e2e import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section):
    return [metric["name"] for metric in SPEC[section]]


def test_declared_names_are_well_formed_and_unique():
    names = _names("end_to_end") + _names("per_layer") + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_names_match_what_a_run_emits():
    result = workloads.Result("repro_cold")
    workloads._job_metrics(result, [1.0, 2.0, 3.0], [0.5, 0.7], 2, 1.2, [400.0], [90.0])
    assert result.info["jobs_per_s"] > 0
    assert list(result.metrics) == _names("end_to_end") == list(workloads.END_TO_END_METRICS)
    assert all(metric.value > 0 for metric in result.metrics.values())


def test_per_layer_names_match_what_a_traced_run_emits():
    metrics, _ = workloads.layer_metrics({"spans": [], "counts": []}, 0.0, 1.0)
    assert list(metrics) == _names("per_layer") == list(workloads.PER_LAYER_METRICS)


def test_end_to_end_bounds_follow_the_contract():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
