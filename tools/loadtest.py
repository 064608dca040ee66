"""Load-test harness for ``cryowire serve``.

Replays a synthetic query stream against a running server (or one it
boots itself with ``--self-host``) and reports the numbers that matter
for a long-running model service:

* **diurnal replay** — an open-loop, paced phase whose request rate
  follows a sinusoidal day/night profile compressed into the test
  duration (quiet troughs, busy peaks). Per-request latencies give the
  p50/p99; the server's ``/stats`` gives the warm-context hit rate and
  the micro-batcher's coalescing rate.
* **A/B throughput** (``--self-host`` only) — closed-loop clients hammer
  a batching-enabled server and a batching-disabled twin with the same
  query mix; the ratio is what micro-batching is worth. The queries all
  carry a wire spec (a repeater optimisation per point), so the control
  pays a real model evaluation per request rather than a dict lookup.
  Sixteen closed-loop clients always keep a backlog behind the running
  batch, so this is the phase where batches are sure to form.
* **overload** (``--overload``) — closed-loop clients drive a small-
  capacity server at ~5x its admission limit and assert shed-not-queued
  behavior: excess load is answered ``503 overloaded`` + ``Retry-After``
  (not queued), admitted-request p99 stays inside the deadline budget,
  the client-side and server-side 503/408 accounting reconciles, and
  zero responses are torn.

Usage::

    python tools/loadtest.py --self-host --duration 8
    python tools/loadtest.py --url http://127.0.0.1:8077 --duration 10
    python tools/loadtest.py --overload-only --duration 6

``--require-coalescing`` is CI's regression tripwire. It exits non-zero
unless the diurnal phase completed every request without an error, and
the A/B phase's batched closed loop coalesced and beat the unbatched
twin by ``MIN_AB_SPEEDUP``. The A/B clients are threads of the server's
own process, so they share its interpreter lock and the ratio prices
that contention as well as coalescing: it is a floor, not a measurement
of what batching is worth. At ``--self-host --duration 10`` a 2-vCPU
host reads 1.9-2.0x. End-to-end serve numbers are recorded by
``python -m benchmarks.e2e``.

Stdlib only — ``http.client`` with one keep-alive connection per client
thread, no external load-generation dependency.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import random
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

#: The query mix draws operating points from the calibrated domain.
TEMPERATURE_RANGE_K = (77.0, 300.0)
VDD_RANGE_V = (0.6, 1.25)
VTH_V = 0.25
WIRE_LENGTHS_UM = (500.0, 2000.0, 6220.0)
CARDS = ("freepdk45", "industry_2z")

#: ``--require-coalescing`` floor on batched vs unbatched A/B throughput.
MIN_AB_SPEEDUP = 1.3

#: Repeated grids in the diurnal mix (dashboards re-requesting the same
#: sweep; the batch kernels recompute each one).
GRID_TEMPERATURES = ([77.0, 135.0, 200.0, 250.0, 300.0], [77.0, 300.0])


def _connect(url: str) -> http.client.HTTPConnection:
    parts = urlsplit(url)
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)


def _post(
    conn: http.client.HTTPConnection, path: str, payload: Dict
) -> Tuple[int, Dict]:
    body = json.dumps(payload).encode("utf-8")
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data)


def _post_full(
    conn: http.client.HTTPConnection,
    path: str,
    payload: Dict,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], Dict]:
    """Like :func:`_post` but also returns the response headers
    (lower-cased names) — the overload phase checks ``Retry-After``."""
    body = json.dumps(payload).encode("utf-8")
    request_headers = {"Content-Type": "application/json"}
    if headers:
        request_headers.update(headers)
    conn.request("POST", path, body=body, headers=request_headers)
    response = conn.getresponse()
    data = response.read()
    response_headers = {k.lower(): v for k, v in response.getheaders()}
    return response.status, response_headers, json.loads(data)


def _get(conn: http.client.HTTPConnection, path: str) -> Dict:
    conn.request("GET", path)
    response = conn.getresponse()
    return json.loads(response.read())


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def make_point_query(rng: random.Random, fresh: bool = True) -> Dict:
    """One synthetic ``/v1/query`` body (fresh = continuum-random point)."""
    t = rng.uniform(*TEMPERATURE_RANGE_K)
    vdd = rng.uniform(*VDD_RANGE_V)
    if not fresh:
        # A finite pool of revisited points (recomputed by the batch
        # kernels on every visit, like fresh ones).
        t = round(t, 0)
        vdd = round(vdd, 1)
    return {
        "operating_point": {
            "temperature_k": t,
            "vdd_v": max(vdd, VTH_V + 0.1),
            "vth_v": VTH_V,
        },
        "card": rng.choice(CARDS),
        "wire": {
            "layer": "global",
            "length_um": rng.choice(WIRE_LENGTHS_UM),
        },
    }


def make_grid_query(rng: random.Random) -> Dict:
    """A repeated dashboard-style grid (recomputed on every request)."""
    return {
        "temperature_k": rng.choice(GRID_TEMPERATURES),
        "vdd_v": 0.64,
        "vth_v": 0.25,
        "card": "freepdk45",
    }


def diurnal_rate(t_s: float, duration_s: float, peak_rps: float) -> float:
    """Sinusoidal day/night request rate: trough at the ends, peak mid."""
    phase = 2.0 * math.pi * (t_s / duration_s)
    # 0.15 floor keeps the night-time trough non-zero (a real service
    # never goes fully silent) while the peak reaches peak_rps.
    return peak_rps * (0.15 + 0.85 * 0.5 * (1.0 - math.cos(phase)))


def run_diurnal_phase(
    url: str,
    duration_s: float,
    clients: int,
    peak_rps: float,
    seed: int,
) -> Dict:
    """Open-loop paced replay following the diurnal profile."""
    rng = random.Random(seed)
    # Pre-build the arrival schedule by integrating the rate curve in
    # small ticks (fractional arrivals accumulate across ticks).
    tick_s = 0.02
    schedule: List[Tuple[float, str, Dict]] = []
    credit = 0.0
    t = 0.0
    while t < duration_s:
        credit += diurnal_rate(t, duration_s, peak_rps) * tick_s
        while credit >= 1.0:
            credit -= 1.0
            if rng.random() < 0.1:
                schedule.append((t, "/v1/grid", make_grid_query(rng)))
            else:
                schedule.append(
                    (t, "/v1/query", make_point_query(rng, fresh=rng.random() < 0.5))
                )
        t += tick_s
    queue_lock = threading.Lock()
    cursor = [0]
    latencies: List[float] = []
    errors = [0]
    start = time.monotonic()

    def worker() -> None:
        conn = _connect(url)
        try:
            while True:
                with queue_lock:
                    if cursor[0] >= len(schedule):
                        return
                    send_at, path, payload = schedule[cursor[0]]
                    cursor[0] += 1
                delay = start + send_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                t0 = time.monotonic()
                try:
                    status, _ = _post(conn, path, payload)
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = _connect(url)
                    status = 599
                elapsed = time.monotonic() - t0
                with queue_lock:
                    if status == 200:
                        latencies.append(elapsed)
                    else:
                        errors[0] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, name=f"loadtest-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    latencies.sort()
    return {
        "requests": len(schedule),
        "completed": len(latencies),
        "errors": errors[0],
        "wall_s": round(wall, 3),
        "offered_peak_rps": peak_rps,
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "throughput_rps": round(len(latencies) / wall, 1) if wall > 0 else 0.0,
    }


def run_closed_loop(
    url: str, duration_s: float, clients: int, seed: int
) -> float:
    """Closed-loop hammer: returns completed requests per second."""
    stop_at = time.monotonic() + duration_s
    counts: List[int] = []
    lock = threading.Lock()

    def worker(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        conn = _connect(url)
        n = 0
        try:
            while time.monotonic() < stop_at:
                try:
                    status, _ = _post(
                        conn, "/v1/query", make_point_query(rng, fresh=True)
                    )
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = _connect(url)
                    continue
                if status == 200:
                    n += 1
        finally:
            conn.close()
            with lock:
                counts.append(n)

    threads = [
        threading.Thread(target=worker, args=(seed + i,), daemon=True)
        for i in range(clients)
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    return sum(counts) / wall if wall > 0 else 0.0


def fetch_stats(url: str) -> Dict:
    conn = _connect(url)
    try:
        return _get(conn, "/stats")
    finally:
        conn.close()


def run_loadtest(
    url: Optional[str] = None,
    duration_s: float = 8.0,
    clients: int = 8,
    peak_rps: float = 150.0,
    seed: int = 7,
    ab: bool = True,
) -> Dict:
    """The full harness; returns the report dict.

    With ``url=None`` the server is booted in-process (self-host); the
    A/B phase only runs self-hosted (it needs a batching-disabled twin).
    """
    report: Dict = {"duration_s": duration_s, "clients": clients}
    own_server = url is None
    handle = None
    if own_server:
        from repro.serve.app import serve_in_thread

        handle = serve_in_thread()
        url = handle.url
    try:
        report["diurnal"] = run_diurnal_phase(
            url, duration_s, clients, peak_rps, seed
        )
        stats = fetch_stats(url)
        report["batching"] = stats["batching"]
        report["tech_context"] = stats["tech_context"]
        report["coalescing_rate"] = stats["batching"]["coalescing_rate"]
        report["cache_hit_rate"] = stats["tech_context"]["hit_rate"]
    finally:
        if handle is not None:
            handle.stop()
    if ab and own_server:
        # The A/B contrast needs enough closed-loop concurrency for
        # batches to actually form; the paced diurnal client count is a
        # latency story, not a throughput one.
        report["ab"] = run_ab_phase(
            duration_s=min(duration_s / 2.0, 5.0),
            clients=max(clients, 16),
            seed=seed,
        )
    return report


def run_ab_phase(duration_s: float, clients: int, seed: int) -> Dict:
    """Throughput with micro-batching on vs off (fresh server each)."""
    from repro.serve.app import serve_in_thread

    results = {}
    for label, enabled in (("batched", True), ("unbatched", False)):
        handle = serve_in_thread(batching_enabled=enabled)
        try:
            results[label] = run_closed_loop(
                handle.url, duration_s, clients, seed
            )
            if enabled:
                results["batched_stats"] = handle.stats()["batching"]
        finally:
            handle.stop()
    off = results["unbatched"]
    return {
        "batched_rps": round(results["batched"], 1),
        "unbatched_rps": round(off, 1),
        "speedup": round(results["batched"] / off, 2) if off > 0 else 0.0,
        "batched_coalescing_rate": results["batched_stats"]["coalescing_rate"],
        "batched_mean_batch": results["batched_stats"]["mean_batch_size"],
    }


def run_overload_phase(
    duration_s: float = 6.0,
    seed: int = 7,
    max_inflight: int = 8,
    overload_factor: float = 5.0,
    deadline_ms: float = 2000.0,
) -> Dict:
    """Drive a small-capacity server past its admission limit.

    Boots a server with a deliberately tiny gate (``max_inflight``) and
    hammers it closed-loop with ``max_inflight * overload_factor``
    clients, then asserts the shed-not-queued contract:

    * excess load is answered ``503 overloaded`` with ``Retry-After``
      (never silently queued, never a torn response);
    * admitted requests keep a bounded p99 — the gate caps the queue in
      front of them, so overload cannot stretch their latency unboundedly;
    * client-side and server-side accounting reconcile: every request
      the clients sent is either in the server's ``admitted`` or its
      ``shed_overload`` counter.

    Returns a report with a ``checks`` list and an overall ``ok``.
    """
    from repro.serve.app import serve_in_thread

    clients = max(2, int(max_inflight * overload_factor))
    handle = serve_in_thread(
        max_inflight=max_inflight,
        default_deadline_ms=deadline_ms,
        drain_timeout_s=5.0,
    )
    lock = threading.Lock()
    tallies = {
        "sent": 0,
        "ok": 0,
        "shed_overload": 0,
        "shed_deadline": 0,
        "other_status": 0,
        "torn": 0,
        "missing_retry_after": 0,
        "conn_errors": 0,
    }
    ok_latencies: List[float] = []
    stop_at = time.monotonic() + duration_s

    def worker(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        conn = _connect(handle.url)
        try:
            while time.monotonic() < stop_at:
                payload = make_point_query(rng, fresh=True)
                t0 = time.monotonic()
                try:
                    status, headers, body = _post_full(
                        conn, "/v1/query", payload
                    )
                except (ValueError, http.client.HTTPException, OSError) as exc:
                    # ValueError = unparseable JSON = a torn response;
                    # transport errors just mean reconnect and retry.
                    conn.close()
                    conn = _connect(handle.url)
                    with lock:
                        if isinstance(exc, ValueError):
                            tallies["sent"] += 1
                            tallies["torn"] += 1
                        else:
                            tallies["conn_errors"] += 1
                    continue
                elapsed = time.monotonic() - t0
                error = body.get("error", {}) if isinstance(body, dict) else {}
                code = error.get("code")
                with lock:
                    tallies["sent"] += 1
                    if status == 200:
                        tallies["ok"] += 1
                        ok_latencies.append(elapsed)
                    elif status == 503 and code == "overloaded":
                        tallies["shed_overload"] += 1
                        if "retry-after" not in headers:
                            tallies["missing_retry_after"] += 1
                    elif status == 408 and code == "deadline_exceeded":
                        tallies["shed_deadline"] += 1
                    else:
                        tallies["other_status"] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(
            target=worker, args=(seed + i,), name=f"overload-{i}", daemon=True
        )
        for i in range(clients)
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    try:
        stats = handle.stats()
    finally:
        stop_outcome = handle.stop()
    overload = stats["overload"]
    ok_latencies.sort()
    p99_ms = round(_percentile(ok_latencies, 0.99) * 1e3, 3)
    # The budget an admitted request can legitimately spend is its
    # deadline; give 50% margin for scheduling noise before calling the
    # tail unbounded.
    p99_bound_ms = deadline_ms * 1.5
    server_handled = overload["admitted"] + overload["shed_overload"]
    # Requests that died on the transport (conn_errors) may or may not
    # have reached the gate, so accounting tolerates that much skew.
    skew = abs(server_handled - tallies["sent"])
    checks = [
        {
            "name": "shed_not_queued",
            "ok": tallies["shed_overload"] > 0
            and overload["shed_overload"] > 0,
            "detail": f"client 503s={tallies['shed_overload']}, "
            f"server shed={overload['shed_overload']}",
        },
        {
            "name": "retry_after_on_every_503",
            "ok": tallies["missing_retry_after"] == 0,
            "detail": f"missing={tallies['missing_retry_after']}",
        },
        {
            "name": "no_torn_responses",
            "ok": tallies["torn"] == 0,
            "detail": f"torn={tallies['torn']}",
        },
        {
            "name": "admitted_p99_bounded",
            "ok": tallies["ok"] > 0 and p99_ms <= p99_bound_ms,
            "detail": f"p99={p99_ms} ms, bound={p99_bound_ms} ms, "
            f"admitted_ok={tallies['ok']}",
        },
        {
            "name": "accounting_reconciles",
            "ok": skew <= tallies["conn_errors"],
            "detail": f"client sent={tallies['sent']}, server "
            f"admitted+shed={server_handled}, conn_errors="
            f"{tallies['conn_errors']}",
        },
        {
            "name": "unexpected_statuses",
            "ok": tallies["other_status"] == 0,
            "detail": f"other={tallies['other_status']}",
        },
    ]
    return {
        "clients": clients,
        "max_inflight": max_inflight,
        "overload_factor": round(clients / max_inflight, 1),
        "deadline_ms": deadline_ms,
        "wall_s": round(wall, 3),
        "tallies": tallies,
        "admitted_p99_ms": p99_ms,
        "server_overload": overload,
        "stop_outcome": stop_outcome,
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }


def coalescing_failures(report: Dict) -> List[str]:
    """What ``--require-coalescing`` rejects in a self-hosted report."""
    diurnal, ab = report["diurnal"], report["ab"]
    failures = []
    if diurnal["errors"] or diurnal["completed"] != diurnal["requests"]:
        failures.append(
            f"diurnal phase completed {diurnal['completed']}/"
            f"{diurnal['requests']} requests with {diurnal['errors']} error(s)"
        )
    if ab["batched_coalescing_rate"] <= 0.0:
        failures.append(
            f"micro-batcher never coalesced (A/B rate {ab['batched_coalescing_rate']})"
        )
    if ab["speedup"] < MIN_AB_SPEEDUP:
        failures.append(
            f"micro-batching only worth {ab['speedup']:.2f}x "
            f"(floor: {MIN_AB_SPEEDUP:g}x)"
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay a diurnal synthetic query stream against cryowire serve."
    )
    parser.add_argument(
        "--url",
        default=None,
        help="server base URL (e.g. http://127.0.0.1:8077); omit with --self-host",
    )
    parser.add_argument(
        "--self-host",
        action="store_true",
        help="boot the server in-process (required for the A/B phase)",
    )
    parser.add_argument("--duration", type=float, default=8.0, metavar="S")
    parser.add_argument("--clients", type=int, default=8, metavar="N")
    parser.add_argument(
        "--peak-rps", type=float, default=150.0, metavar="RPS",
        help="diurnal peak request rate (default 150)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--no-ab", action="store_true", help="skip the A/B throughput phase"
    )
    parser.add_argument(
        "--require-coalescing",
        action="store_true",
        help="exit non-zero unless every diurnal request completed without "
        "an error and the A/B phase's batched closed loop coalesced and beat "
        f"the unbatched twin by {MIN_AB_SPEEDUP:g}x (CI tripwire; needs "
        "--self-host)",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="also run the overload phase (self-hosts its own "
        "small-capacity server; exits non-zero if any check fails)",
    )
    parser.add_argument(
        "--overload-only",
        action="store_true",
        help="run only the overload phase (skips diurnal and A/B)",
    )
    parser.add_argument(
        "--overload-inflight", type=int, default=8, metavar="N",
        help="overload-phase server admission cap (default 8)",
    )
    parser.add_argument(
        "--overload-factor", type=float, default=5.0, metavar="X",
        help="overload-phase client count as a multiple of the "
        "admission cap (default 5.0)",
    )
    args = parser.parse_args(argv)
    if args.overload_only:
        args.overload = True
    if not args.overload_only:
        if args.url is None and not args.self_host:
            parser.error("pass --url or --self-host")
        if args.url is not None and args.self_host:
            parser.error("--url and --self-host are mutually exclusive")
    if args.require_coalescing and (
        args.overload_only or args.no_ab or not args.self_host
    ):
        parser.error(
            "--require-coalescing needs the A/B phase "
            "(--self-host without --no-ab or --overload-only)"
        )
    report: Dict = {}
    if not args.overload_only:
        report = run_loadtest(
            url=args.url,
            duration_s=args.duration,
            clients=args.clients,
            peak_rps=args.peak_rps,
            seed=args.seed,
            ab=not args.no_ab,
        )
    overload_failed = False
    if args.overload:
        overload_report = run_overload_phase(
            duration_s=min(args.duration, 10.0),
            seed=args.seed,
            max_inflight=args.overload_inflight,
            overload_factor=args.overload_factor,
        )
        report["overload"] = overload_report
        overload_failed = not overload_report["ok"]
    print(json.dumps(report, indent=2))
    if args.require_coalescing:
        failures = coalescing_failures(report)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    if overload_failed:
        for check in report["overload"]["checks"]:
            if not check["ok"]:
                print(
                    f"FAIL: overload check {check['name']}: {check['detail']}",
                    file=sys.stderr,
                )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
