"""The four workloads, their output checks and their metrics.

Every workload reports every end-to-end metric. A *job* is the unit the
latency, throughput and CPU metrics count: one ``cryowire all`` process
for the repro workloads, one HTTP request for the serve workloads.

=============  ==============================================================
repro_cold     ``cryowire all --jobs 1`` against an empty cache, back to back
               until ``seconds`` have passed. The model layers do the work.
repro_warm     one ``cryowire all --jobs 2`` fills a cache, then
               ``cryowire all --jobs 1`` reruns against it. The model is
               bypassed: import, cache reads, manifest and rendering remain.
serve_points   ``cryowire serve``; two connections in a closed loop of
               ``POST /v1/query`` with continuum-random points, most of
               which miss the tech-context memo.
serve_mixed    the same server; the diurnal replay of ``tools/loadtest.py``
               (90 % ``/v1/query``, half of them revisited points, 10 %
               ``/v1/grid``, peaking at 150 req/s) as a seeded open loop over
               two connections, where memo hits and grids count.
=============  ==============================================================

With ``trace`` a workload instead runs its system under test twice, once
plain and once under :mod:`benchmarks.e2e.launch`, and reports the
per-layer metrics of :func:`layer_metrics` plus the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import layers, load
from benchmarks.e2e.stats import tail
from benchmarks.e2e.sut import Checkout, CliRun, Server
from benchmarks.e2e.trace import END, ID, NAME, REQUEST, REQUEST_SPAN, START, count_totals, self_times

WORKLOADS = ("repro_cold", "repro_warm", "serve_points", "serve_mixed")

#: Cold starts per run that ``setup_s`` takes the median of.
SETUP_REPEATS = 5
#: ``cryowire all`` runs per repro run at the least, even past ``seconds``:
#: a cold reproduction takes ~12 s, and one run is too few for a median.
MIN_REPRO_RUNS = 3
#: Untimed traffic before a serve measurement.
WARMUP_S = 2.0
CONNECTIONS = 2
#: Untraced/traced rerun pairs in a traced repro_warm run.
WARM_TRACE_PAIRS = 3
#: The fixed probe set answered by the live server and in-process.
PROBE_POINTS = 20


@dataclass
class Metric:
    value: float
    samples: List[float]


@dataclass
class Result:
    """One workload run: metrics, checks and what was attempted."""

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: Dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def set(self, name: str, value: float, samples: Optional[Sequence[float]] = None) -> None:
        self.metrics[name] = Metric(float(value), list(samples) if samples else [float(value)])

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def run(workload: str, co: Checkout, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload; ``trace`` selects the per-layer run."""
    result = Result(workload)
    if workload.startswith("repro_"):
        if trace:
            _repro_traced(result, co)
        else:
            _repro(result, co, seconds)
    else:
        (_serve_traced if trace else _serve)(result, co, seed, seconds)
    return result


# -- repro ----------------------------------------------------------------------


def _experiment_ids(result: Result, co: Checkout) -> Tuple[List[str], List[float]]:
    """``cryowire list`` from cold, :data:`SETUP_REPEATS` times."""
    walls, ids = [], []
    for _ in range(SETUP_REPEATS):
        listing = co.run(co.cli("list"))
        result.check("cryowire list exits 0", listing.code == 0, listing.stderr.decode()[-500:])
        walls.append(listing.wall_s)
        ids = listing.stdout.decode().split()
    result.check("cryowire list names experiments", bool(ids))
    return ids, walls


def _check_run(result: Result, run: CliRun, cache: Path, ids: Sequence[str], status: str) -> object:
    """Exit code and manifest of one ``cryowire all``; counts its experiments."""
    from repro.experiments.engine import load_last_manifest

    result.check("cryowire all exits 0", run.code == 0, run.stderr.decode()[-500:])
    manifest = load_last_manifest(cache)
    records = manifest.records if manifest is not None else []
    done = {r.experiment_id for r in records if r.status == status}
    result.attempted += len(ids)
    result.failed += len(set(ids) - done)
    result.check(
        f"every experiment {status}",
        done == set(ids),
        f"{len(done)}/{len(ids)} {status}; others: "
        + ", ".join(f"{r.experiment_id}={r.status}" for r in records if r.status != status),
    )
    return manifest


def _anchors(result: Result, cache: Path) -> None:
    """Paper-vs-measured anchors, read back through the run's cache."""
    from repro.experiments.engine import ExecutionEngine
    from repro.experiments.report import collect

    rows = collect(ExecutionEngine(jobs=1, cache_dir=cache).run_one)
    errors = [abs(measured - paper) / abs(paper) * 100.0 for _, _, paper, measured in rows]
    result.check(
        "paper anchors are finite",
        bool(errors) and all(math.isfinite(e) for e in errors),
    )
    result.info["anchors"] = {
        "n": len(errors),
        "median_err_pct": statistics.median(errors) if errors else None,
        "max_err_pct": max(errors) if errors else None,
    }


def _job_metrics(result: Result, setup: Sequence[float], latencies_s: Sequence[float],
                 completed: int, measured_s: float, cpu_ms: Sequence[float],
                 rss_mb: Sequence[float]) -> None:
    latencies_ms = [x * 1e3 for x in latencies_s] or [0.0]
    result.set("setup_s", statistics.median(setup), setup)
    result.set("p50_ms", statistics.median(latencies_ms), latencies_ms)
    result.set("peak_rss_mb", statistics.median(rss_mb), rss_mb)
    pct, value, n = tail(latencies_ms)
    result.info["tail_ms"] = {"pct": pct, "value": value, "n": n}
    result.info["jobs_per_s"] = completed / measured_s
    result.info["cpu_ms_per_job"] = statistics.median(cpu_ms)


def _repro(result: Result, co: Checkout, seconds: float) -> None:
    # Imported before the timed loop, so the manifest check inside the
    # loop costs a JSON read, not an import.
    import repro.experiments.engine  # noqa: F401

    ids, setup = _experiment_ids(result, co)
    cold = result.workload == "repro_cold"
    if cold:
        reference = None
    else:
        cache = co.fresh_dir("cache")
        fill = co.run(co.cli("all", "--jobs", "2"), cache, both_cpus=True)
        _check_run(result, fill, cache, ids, "miss")
        reference = fill.stdout
        result.info["fill_s"] = fill.wall_s
    # Back to back while the next run, if it takes as long as the last one,
    # still ends within ``seconds``; always at least MIN_REPRO_RUNS.
    runs: List[CliRun] = []
    start = time.perf_counter()
    while True:
        if cold:
            cache = co.fresh_dir("cache")
        runs.append(co.run(co.cli("all", "--jobs", "1"), cache))
        _check_run(result, runs[-1], cache, ids, "miss" if cold else "hit")
        measured = time.perf_counter() - start
        if len(runs) >= MIN_REPRO_RUNS and measured + runs[-1].wall_s > seconds:
            break
    if cold:
        reference = runs[0].stdout
        rerun = co.run(co.cli("all", "--jobs", "1"), cache)
        _check_run(result, rerun, cache, ids, "hit")
        result.attempted -= len(ids)  # the rerun is a check, not a job
        result.check("warm rerun stdout is byte-identical to the cold run",
                     rerun.stdout == reference)
        _anchors(result, cache)
    result.check("stdout is byte-identical across runs",
                 all(r.stdout == reference for r in runs))
    result.info["stdout_sha256"] = hashlib.sha256(reference).hexdigest()
    _job_metrics(
        result, setup, [r.wall_s for r in runs], len(runs), measured,
        [r.cpu_s * 1e3 for r in runs], [r.rss_mb for r in runs],
    )


def _repro_traced(result: Result, co: Checkout) -> None:
    ids, _ = _experiment_ids(result, co)
    args = ("all", "--jobs", "1", "--timeout", "0")  # drivers run inline
    cold = result.workload == "repro_cold"
    cache = None
    if not cold:
        cache = co.fresh_dir("cache")
        fill = co.run(co.cli("all", "--jobs", "2"), cache, both_cpus=True)
        _check_run(result, fill, cache, ids, "miss")
    pairs = 1 if cold else WARM_TRACE_PAIRS
    plain: List[CliRun] = []
    traced: List[CliRun] = []
    for _ in range(pairs):
        if cold:
            cache = co.fresh_dir("cache")
        trace_path = co.fresh_dir("trace") / "spans.json"
        traced.append(co.run(co.traced(trace_path, *args), cache))
        _check_run(result, traced[-1], cache, ids, "miss" if cold else "hit")
        if cold:
            cache = co.fresh_dir("cache")
        plain.append(co.run(co.cli(*args), cache))
        manifest = _check_run(result, plain[-1], cache, ids, "miss" if cold else "hit")
    result.check("traced stdout is byte-identical to untraced",
                 all(t.stdout == plain[0].stdout for t in traced + plain))
    trace = json.loads(trace_path.read_text())
    metrics, calls = layer_metrics(trace, *trace["window"])
    context = trace["tech_context"]
    metrics["tech.context_hit_rate"] = _ratio(context["hits"], context["hits"] + context["misses"])
    metrics["tech.context_evictions"] = context["evictions"]
    if manifest is not None:
        metrics["guards.model_warnings"] = manifest.n_model_warnings
        metrics["experiments.cache_hit_rate"] = manifest.hit_rate
        for record in manifest.records:
            key = f"experiments.driver_pct.{record.experiment_id}"
            if key in metrics:
                metrics[key] = _pct(record.wall_time_s, manifest.elapsed_s)
    metrics["trace.overhead_pct"] = _overhead(
        [t.cpu_s for t in traced], [p.cpu_s for p in plain]
    )
    _finish_traced(result, metrics, calls)


# -- serve ----------------------------------------------------------------------


def _closed(port: int, tag: str, seconds: float) -> load.Outcome:
    return load.closed_loop(port, seconds, tag, CONNECTIONS)


def _load(workload: str, port: int, seed: int, seconds: float) -> Tuple[Callable[[], None], Callable[[], load.Outcome]]:
    """(warm-up, measured load) for a serve workload."""
    if workload == "serve_points":
        return (lambda: _closed(port, f"serve_points/warmup/{seed}", WARMUP_S),
                lambda: _closed(port, f"serve_points/{seed}", seconds))
    warmup = load.open_loop_schedule(~seed, load.PEAK_RPS, WARMUP_S)
    schedule = load.open_loop_schedule(seed, load.PEAK_RPS, seconds)
    return (lambda: load.open_loop(port, warmup, CONNECTIONS),
            lambda: load.open_loop(port, schedule, CONNECTIONS))


def _stop(result: Result, server: Server) -> None:
    code, out = server.stop()
    result.check("server drains gracefully on SIGTERM",
                 code == 0 and "shutdown [graceful]" in out, out[-300:])


def _record_outcome(result: Result, outcome: load.Outcome) -> None:
    result.attempted += outcome.attempted
    result.failed += outcome.failed
    result.check("every response is a well-formed 200", outcome.failed == 0,
                 "; ".join(outcome.errors))


def _probe(result: Result, port: int) -> None:
    """A fixed probe set answered live must equal in-process answers."""
    from repro.serve.service import ModelService, parse_point_query

    rng = random.Random("probe")
    bodies = [load.make_point_query(rng, fresh=True) for _ in range(PROBE_POINTS)]
    client = load.Client(port)
    try:
        answers = [client.post("/v1/query", body) for body in bodies]
    finally:
        client.close()
    live = []
    for status, payload in answers:
        if status == 200 and isinstance(payload, dict):
            payload.pop("deadline", None)
        live.append(payload)
    expected = ModelService().evaluate_points([parse_point_query(b) for b in bodies])
    expected = json.loads(json.dumps(expected))
    result.check(f"{PROBE_POINTS} probe points equal in-process ModelService answers",
                 live == expected)


def _server_stats(port: int) -> Dict:
    client = load.Client(port)
    try:
        return client.get("/stats")[1]
    finally:
        client.close()


def _serve(result: Result, co: Checkout, seed: int, seconds: float) -> None:
    setup: List[float] = []
    for i in range(SETUP_REPEATS):
        server = co.start_server(co.cli("serve", "--port", "0"))
        setup.append(server.ready_s)
        if i < SETUP_REPEATS - 1:
            _stop(result, server)
    try:
        warmup, measured_load = _load(result.workload, server.port, seed, seconds)
        warmup()
        cpu0 = server.cpu_s()
        outcome = measured_load()
        cpu_s = server.cpu_s() - cpu0
        rss = server.peak_rss_mb()
        _probe(result, server.port)
        stats = _server_stats(server.port)
    finally:
        _stop(result, server)
    _record_outcome(result, outcome)
    completed = len(outcome.latencies_s)
    _job_metrics(result, setup, outcome.latencies_s, completed, outcome.elapsed_s,
                 [cpu_s * 1e3 / max(completed, 1)], [rss])
    result.info["late_share"] = _ratio(outcome.late, outcome.attempted)
    result.info["p50_ms_by_path"] = {
        path: statistics.median(v) * 1e3 for path, v in sorted(outcome.by_path.items())
    }
    result.info["batching"] = stats["batching"]
    result.info["tech_context"] = stats["tech_context"]


def _serve_traced(result: Result, co: Checkout, seed: int, seconds: float) -> None:
    half = seconds / 2.0
    cpu_per_request = {}
    for mode in ("plain", "traced"):
        trace_path = co.fresh_dir("trace") / "spans.json"
        argv = ("serve", "--port", "0")
        server = co.start_server(co.traced(trace_path, *argv) if mode == "traced" else co.cli(*argv))
        try:
            warmup, measured_load = _load(result.workload, server.port, seed, half)
            warmup()
            before = _server_stats(server.port)
            cpu0, t0 = server.cpu_s(), time.monotonic()
            outcome = measured_load()
            t1, cpu1 = time.monotonic(), server.cpu_s()
            after = _server_stats(server.port)
        finally:
            _stop(result, server)
        _record_outcome(result, outcome)
        cpu_per_request[mode] = (cpu1 - cpu0) / max(len(outcome.latencies_s), 1)
    trace = json.loads(trace_path.read_text())
    metrics, calls = layer_metrics(trace, t0, t1)

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    hits, misses = delta("tech_context", "hits"), delta("tech_context", "misses")
    metrics["tech.context_hit_rate"] = _ratio(hits, hits + misses)
    metrics["tech.context_evictions"] = delta("tech_context", "evictions")
    metrics["guards.model_warnings"] = sum(after["guards"].values()) - sum(before["guards"].values())
    batches, points = delta("batching", "batches"), delta("batching", "points")
    metrics["serve.batch_mean_size"] = _ratio(points, batches)
    metrics["serve.coalescing_rate"] = _ratio(points - batches, points)
    metrics["serve.late_share"] = _ratio(outcome.late, outcome.attempted)
    metrics["trace.overhead_pct"] = _overhead([cpu_per_request["traced"]], [cpu_per_request["plain"]])
    result.info["serve_phase_p50_ms"] = phase_p50s(trace, t0, t1)
    _finish_traced(result, metrics, calls)


# -- per-layer metrics ------------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _pct(a: float, b: float) -> float:
    return 100.0 * _ratio(a, b)


def _overhead(traced_cpu: Sequence[float], plain_cpu: Sequence[float]) -> float:
    return 100.0 * (statistics.median(traced_cpu) / statistics.median(plain_cpu) - 1.0)


def layer_metrics(trace: Dict, t0: float, t1: float) -> Tuple[Dict[str, float], Counter]:
    """Every per-layer metric the spans of ``[t0, t1)`` give (others at 0),
    and the number of calls per span name and per layer.

    ``<layer>.self_pct`` is the layer's self time as a share of the
    window; ``serve.<phase>_pct`` is a phase's summed span time as a share
    of the summed request time.
    """
    spans = [tuple(span) for span in trace["spans"]]
    own = self_times(spans)
    inside = [s for s in spans if t0 <= s[START] < t1]
    counts = count_totals(trace["counts"], t0, t1)
    window = t1 - t0
    self_s: Counter = Counter()
    calls: Counter = Counter()
    span_s: Counter = Counter()
    for span in inside:
        layer = span[NAME].split(".", 1)[0]
        self_s[layer] += own[span[ID]]
        calls[layer] += 1
        calls[span[NAME]] += 1
        span_s[span[NAME]] += span[END] - span[START]
    metrics = dict.fromkeys(PER_LAYER_METRICS, 0.0)
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_pct"] = _pct(self_s[layer], window)
    metrics["tech.calls"] = calls["tech"]
    metrics["noc.calls"] = calls["noc"]
    metrics["noc.packets"] = counts["noc.packets"]
    metrics["noc.packets_per_s"] = _ratio(counts["noc.packets"], self_s["noc"])
    metrics["system.evaluate_calls"] = calls["system.evaluate"]
    metrics["system.iterations_mean"] = _ratio(counts["system.iterations"], calls["system.evaluate"])
    metrics["system.saturation_clamps"] = counts["system.saturation_clamps"]
    metrics["guards.calls"] = calls["guards"]
    metrics["experiments.cache_get_pct"] = _pct(span_s["experiments.cache_get"], window)
    request_s = span_s[REQUEST_SPAN]
    metrics["serve.requests"] = calls[REQUEST_SPAN]
    phase_s: Counter = Counter()
    for name, phase in layers.SERVE_PHASES.items():
        phase_s[phase] += span_s[name]
    for phase in SERVE_PHASES:
        metrics[f"serve.{phase}_pct"] = _pct(phase_s[phase], request_s)
    metrics["trace.spans"] = len(inside)
    return metrics, calls


def phase_p50s(trace: Dict, t0: float, t1: float) -> Dict[str, float]:
    """Median per-request time of each serve phase, in ms."""
    per_request: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span in trace["spans"]:
        phase = layers.SERVE_PHASES.get(span[NAME])
        if phase is not None and span[REQUEST] is not None and t0 <= span[START] < t1:
            per_request[phase][span[REQUEST]] += span[END] - span[START]
    return {
        phase: statistics.median(times.values()) * 1e3
        for phase, times in sorted(per_request.items())
    }


def _finish_traced(result: Result, metrics: Dict[str, float], calls: Counter) -> None:
    missing = sorted(name for name in layers.REQUIRED[result.workload] if not calls[name])
    result.check("every span this workload exercises was called", not missing,
                 "no calls: " + ", ".join(missing))
    result.info["span_calls"] = {
        name: n for name, n in sorted(calls.items()) if "." in name
    }
    for name in PER_LAYER_METRICS:
        result.set(name, metrics[name])


SERVE_PHASES = tuple(dict.fromkeys(layers.SERVE_PHASES.values()))

PER_LAYER_METRICS: Tuple[str, ...] = (
    *(f"{layer}.self_pct" for layer in layers.LAYERS),
    "tech.calls", "tech.context_hit_rate", "tech.context_evictions",
    "noc.calls", "noc.packets", "noc.packets_per_s",
    "system.evaluate_calls", "system.iterations_mean", "system.saturation_clamps",
    "guards.calls", "guards.model_warnings",
    "experiments.cache_hit_rate", "experiments.cache_get_pct",
    *(f"experiments.driver_pct.{eid}" for eid in layers.EXPERIMENT_IDS),
    "serve.requests",
    *(f"serve.{phase}_pct" for phase in SERVE_PHASES),
    "serve.batch_mean_size", "serve.coalescing_rate", "serve.late_share",
    "trace.overhead_pct", "trace.spans",
)

END_TO_END_METRICS = ("setup_s", "p50_ms", "peak_rss_mb")
